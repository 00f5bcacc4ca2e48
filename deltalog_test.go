package authmem

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestFacadeIncrementalRoundTrip: base image + one delta log per shard
// replays to the live state under the pinned combined root, and the resumed
// memory keeps tracking.
func TestFacadeIncrementalRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg := testConfig(DeltaEncoding, MACInECC)
		m := newMemShards(t, cfg, shards)
		m.EnableDeltaTracking()
		rng := rand.New(rand.NewSource(11))
		truth := make(map[uint64][]byte)
		write := func(m *Memory, n int) {
			for i := 0; i < n; i++ {
				addr := uint64(rng.Intn(int(cfg.Size/BlockSize))) * BlockSize
				data := make([]byte, BlockSize)
				rng.Read(data)
				if err := m.Write(addr, data); err != nil {
					t.Fatal(err)
				}
				truth[addr] = data
			}
		}
		write(m, 200)

		var base bytes.Buffer
		if _, err := m.Persist(&base); err != nil {
			t.Fatal(err)
		}
		logs := make([]bytes.Buffer, shards)
		dls := make([]*DeltaLog, shards)
		for i := range dls {
			dl, err := m.NewShardDeltaLog(i, &logs[i])
			if err != nil {
				t.Fatal(err)
			}
			dls[i] = dl
		}
		const epochs = 3
		for epoch := 0; epoch < epochs; epoch++ {
			write(m, 150)
			if m.DirtyGroups() == 0 {
				t.Fatal("writes left no dirty groups")
			}
			for i, dl := range dls {
				if _, err := m.AppendDeltaShard(i, dl); err != nil {
					t.Fatal(err)
				}
			}
		}
		if dls[0].Records() == 0 || dls[0].Offset() <= 0 {
			t.Fatal("log did not grow")
		}
		pin := m.RootDigest()

		wals := make([]io.Reader, shards)
		for i := range wals {
			wals[i] = bytes.NewReader(logs[i].Bytes())
		}
		m2, reports, err := ResumeShardedIncremental(cfg, shards, bytes.NewReader(base.Bytes()), wals, &pin)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != shards {
			t.Fatalf("%d reports", len(reports))
		}
		for i, rep := range reports {
			if rep.Status != RecoveryClean || rep.Epochs != epochs {
				t.Fatalf("shard %d: unexpected report %+v", i, rep)
			}
		}
		if CombinedRecoveredRoot(reports) != pin {
			t.Fatal("combined recovered root mismatch")
		}
		dst := make([]byte, BlockSize)
		for addr, want := range truth {
			if _, err := m2.Read(addr, dst); err != nil {
				t.Fatalf("read %#x: %v", addr, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("block %#x lost across incremental resume", addr)
			}
		}
		// Resume re-enables tracking.
		write(m2, 1)
		if m2.DirtyGroups() != 1 {
			t.Fatal("tracking not re-enabled after resume")
		}
	})
}

// TestFacadeTypedErrorsRoundTrip is the satellite regression at the public
// surface: *RecoveryError and *CodecMismatchError must both survive
// errors.As through the sharded incremental resume path.
func TestFacadeTypedErrorsRoundTrip(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	const shards = 2
	s, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableDeltaTracking()
	if err := s.Write(0, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		t.Fatal(err)
	}
	logs := make([]bytes.Buffer, shards)
	for i := 0; i < shards; i++ {
		dl, err := s.NewShardDeltaLog(i, &logs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(uint64(i)*s.ShardSize(), make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendDeltaShard(i, dl); err != nil {
			t.Fatal(err)
		}
	}
	raw := logs[0].Bytes()
	raw[len(raw)-1] ^= 1 // break the last record's seal
	wals := []io.Reader{bytes.NewReader(raw), bytes.NewReader(logs[1].Bytes())}
	_, _, err = ResumeShardedIncremental(cfg, shards, bytes.NewReader(base.Bytes()), wals, nil)
	var rerr *RecoveryError
	if !errors.As(err, &rerr) {
		t.Fatalf("*RecoveryError lost at the facade: %v", err)
	}
	if rerr.Report.Status != RecoveryRollback {
		t.Fatalf("status %v", rerr.Report.Status)
	}

	// Codec mismatch through the same path.
	inl := testConfig(DeltaEncoding, InlineMAC)
	inl.ECCCodec = "secded"
	si, err := NewSharded(inl, shards)
	if err != nil {
		t.Fatal(err)
	}
	var base2 bytes.Buffer
	if _, err := si.Persist(&base2); err != nil {
		t.Fatal(err)
	}
	other := inl
	other.ECCCodec = "residue"
	_, _, err = ResumeShardedIncremental(other, shards, bytes.NewReader(base2.Bytes()), nil, nil)
	var cerr *CodecMismatchError
	if !errors.As(err, &cerr) {
		t.Fatalf("*CodecMismatchError lost at the facade: %v", err)
	}
}
