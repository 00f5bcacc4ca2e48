package authmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"authmem/internal/wal"
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
		if err := m.BeginShardedImage(&base); err != nil {
			t.Fatal(err)
		}
		logs := make([]bytes.Buffer, shards)
		dls := make([]*DeltaLog, shards)
		for i := range dls {
			_, dl, err := m.CheckpointShard(i, &base, &logs[i])
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
		if dls[0].Offset() != int64(logs[0].Len()) || logs[0].Len() <= wal.HeaderSize {
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
		if m2.RootDigest() != pin {
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
	if err := s.BeginShardedImage(&base); err != nil {
		t.Fatal(err)
	}
	logs := make([]bytes.Buffer, shards)
	for i := 0; i < shards; i++ {
		_, dl, err := s.CheckpointShard(i, &base, &logs[i])
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
	si, err := NewSharded(inl, shards)
	if err != nil {
		t.Fatal(err)
	}
	var base2 bytes.Buffer
	if _, err := si.eng.Persist(&base2); err != nil {
		t.Fatal(err)
	}
	// Rewrite each shard header's length-prefixed codec name: an image a
	// residue build wrote.
	field := func(name string) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, uint64(len(name))), name...)
	}
	foreign := bytes.ReplaceAll(base2.Bytes(), field("secded"), field("residue"))
	_, _, err = ResumeShardedIncremental(inl, shards, bytes.NewReader(foreign), nil, nil)
	var cerr *CodecMismatchError
	if !errors.As(err, &cerr) {
		t.Fatalf("*CodecMismatchError lost at the facade: %v", err)
	}
	if cerr.ImageCodec != "residue" || cerr.ConfigCodec != "secded" {
		t.Fatalf("mismatch fields wrong: %+v", cerr)
	}
}
