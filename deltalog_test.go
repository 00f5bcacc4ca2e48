package authmem

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestFacadeIncrementalRoundTrip(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	m := newMem(t, cfg)
	m.EnableDeltaTracking()
	if !m.DeltaTrackingEnabled() {
		t.Fatal("tracking not enabled")
	}
	rng := rand.New(rand.NewSource(11))
	truth := make(map[uint64][]byte)
	write := func(n int) {
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(2048)) * BlockSize
			data := make([]byte, BlockSize)
			rng.Read(data)
			if err := m.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			truth[addr] = data
		}
	}
	write(100)

	var base, log bytes.Buffer
	if _, err := m.Persist(&base); err != nil {
		t.Fatal(err)
	}
	dl, err := m.NewDeltaLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	var last DeltaStats
	for epoch := 0; epoch < 3; epoch++ {
		write(60)
		last, err = m.AppendDelta(dl)
		if err != nil {
			t.Fatal(err)
		}
	}
	if dl.Records() == 0 || dl.Offset() <= 0 {
		t.Fatal("log did not grow")
	}

	m2, rep, err := ResumeIncremental(cfg, bytes.NewReader(base.Bytes()), bytes.NewReader(log.Bytes()), &last.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != RecoveryClean || rep.Epochs != 3 {
		t.Fatalf("unexpected report %+v", rep)
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
	if !m2.DeltaTrackingEnabled() {
		t.Fatal("tracking not re-enabled after resume")
	}
}

// TestFacadeSingleShardIncremental: a 1-shard ShardedMemory's base image
// and delta log are bit-compatible with Memory's — they resume through the
// plain ResumeIncremental.
func TestFacadeSingleShardIncremental(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	s, err := NewSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableDeltaTracking()
	var base, log bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		t.Fatal(err)
	}
	dl, err := s.NewShardDeltaLog(0, &log)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x42}, BlockSize)
	if err := s.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if s.DirtyGroups() != 1 {
		t.Fatalf("DirtyGroups = %d", s.DirtyGroups())
	}
	st, err := s.AppendDeltaShard(0, dl)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := ResumeIncremental(cfg, bytes.NewReader(base.Bytes()), bytes.NewReader(log.Bytes()), &st.Root)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if _, err := m2.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("block lost across single-shard incremental resume")
	}
}

func TestFacadeShardedIncremental(t *testing.T) {
	cfg := testConfig(DeltaEncoding, MACInECC)
	const shards = 4
	s, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableDeltaTracking()
	rng := rand.New(rand.NewSource(7))
	truth := make(map[uint64][]byte)
	write := func(n int) {
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(int(cfg.Size/BlockSize))) * BlockSize
			data := make([]byte, BlockSize)
			rng.Read(data)
			if err := s.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			truth[addr] = data
		}
	}
	write(200)

	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		t.Fatal(err)
	}
	logs := make([]bytes.Buffer, shards)
	dls := make([]*DeltaLog, shards)
	for i := range dls {
		dl, err := s.NewShardDeltaLog(i, &logs[i])
		if err != nil {
			t.Fatal(err)
		}
		dls[i] = dl
	}
	for epoch := 0; epoch < 2; epoch++ {
		write(150)
		for i := range dls {
			if _, err := s.AppendDeltaShard(i, dls[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	pin := s.RootDigest()

	wals := make([]io.Reader, shards)
	for i := range wals {
		wals[i] = bytes.NewReader(logs[i].Bytes())
	}
	s2, reports, err := ResumeShardedIncremental(cfg, shards, bytes.NewReader(base.Bytes()), wals, &pin)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != shards {
		t.Fatalf("%d reports", len(reports))
	}
	if CombinedRecoveredRoot(reports) != pin {
		t.Fatal("combined recovered root mismatch")
	}
	dst := make([]byte, BlockSize)
	for addr, want := range truth {
		if _, err := s2.Read(addr, dst); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %#x lost across sharded incremental resume", addr)
		}
	}
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
