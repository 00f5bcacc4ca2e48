package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/wal"
)

// deltaHarness drives an engine through base-persist + epoch appends while
// keeping a plaintext oracle snapshot per committed epoch.
type deltaHarness struct {
	cfg   Config
	eng   *Engine
	base  bytes.Buffer
	log   bytes.Buffer
	w     *wal.Writer
	rng   *rand.Rand
	truth map[uint64][]byte
	// epochTruth[k] is the oracle after k committed epochs (index 0 =
	// state at the base snapshot).
	epochTruth []map[uint64][]byte
	epochRoots []RootDigest
}

func copyTruth(m map[uint64][]byte) map[uint64][]byte {
	c := make(map[uint64][]byte, len(m))
	for k, v := range m {
		c[k] = append([]byte(nil), v...)
	}
	return c
}

func newDeltaHarness(t *testing.T, cfg Config) *deltaHarness {
	t.Helper()
	h := &deltaHarness{
		cfg:   cfg,
		eng:   newEngine(t, cfg),
		rng:   rand.New(rand.NewSource(77)),
		truth: make(map[uint64][]byte),
	}
	h.eng.EnableDeltaTracking()
	// Prefill, then snapshot the base and open the log against it.
	for i := 0; i < 64; i++ {
		h.write(t, uint64(h.rng.Intn(640)))
	}
	if _, err := h.eng.Persist(&h.base); err != nil {
		t.Fatal(err)
	}
	w, err := h.eng.NewDeltaWriter(&h.log)
	if err != nil {
		t.Fatal(err)
	}
	h.w = w
	// The prefill writes are in the base image; drain the dirty set so the
	// first epoch holds only post-base writes.
	h.eng.delta.reset()
	h.epochTruth = append(h.epochTruth, copyTruth(h.truth))
	h.epochRoots = append(h.epochRoots, h.eng.RootDigest())
	return h
}

func (h *deltaHarness) write(t *testing.T, blk uint64) {
	t.Helper()
	data := block(h.rng.Int63())
	if err := h.eng.Write(blk*BlockBytes, data); err != nil {
		t.Fatal(err)
	}
	h.truth[blk*BlockBytes] = data
}

func (h *deltaHarness) epoch(t *testing.T, writes int) DeltaStats {
	t.Helper()
	for i := 0; i < writes; i++ {
		h.write(t, uint64(h.rng.Intn(640)))
	}
	st, err := h.eng.AppendDelta(h.w)
	if err != nil {
		t.Fatal(err)
	}
	h.epochTruth = append(h.epochTruth, copyTruth(h.truth))
	h.epochRoots = append(h.epochRoots, st.Root)
	return st
}

// verifyAtEpoch checks a recovered engine against the oracle snapshot of
// the given committed epoch: every block the oracle holds must read back
// exactly; a mismatch is the silent stale read the whole design exists to
// prevent.
func verifyAtEpoch(t *testing.T, e *Engine, h *deltaHarness, epoch int) {
	t.Helper()
	dst := make([]byte, BlockBytes)
	for addr, want := range h.epochTruth[epoch] {
		if _, err := e.Read(addr, dst); err != nil {
			t.Fatalf("read %#x at epoch %d: %v", addr, epoch, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("silent stale read: block %#x differs from epoch-%d oracle", addr, epoch)
		}
	}
}

// resumeOneShard is the incremental resume of a lone engine's base image and
// delta log: the one-shard case of ResumeShardedIncremental, handing back the
// shard's engine and its report.
func resumeOneShard(cfg Config, base, walR io.Reader, pin *RootDigest) (*Engine, *RecoveryReport, error) {
	var wals []io.Reader
	if walR != nil {
		wals = []io.Reader{walR}
	}
	s, reports, err := ResumeShardedIncremental(cfg, 1, base, wals, pin)
	var rep *RecoveryReport
	if len(reports) == 1 {
		rep = reports[0]
	}
	if err != nil {
		return nil, rep, err
	}
	return s.shards[0].eng, rep, nil
}

func TestIncrementalRoundTrip(t *testing.T) {
	// Every design point under its placement's default codec, plus the one
	// registered codec that is no placement's default.
	residue := smallCfg(ctr.Delta, MACInline)
	residue.ECCCodec = "residue"
	for _, cfg := range append(allDesignPoints(), residue) {
		name := cfg.Scheme.String() + "/" + cfg.Placement.String() + "/" + cfg.CodecName()
		t.Run(name, func(t *testing.T) {
			h := newDeltaHarness(t, cfg)
			var last DeltaStats
			for i := 0; i < 4; i++ {
				last = h.epoch(t, 40)
			}
			pin := last.Root
			e, rep, err := resumeOneShard(cfg, bytes.NewReader(h.base.Bytes()), bytes.NewReader(h.log.Bytes()), &pin)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if rep.Status != RecoveryClean || rep.Epochs != 4 || rep.Dropped != 0 {
				t.Fatalf("unexpected report %+v", rep)
			}
			verifyAtEpoch(t, e, h, 4)
			// The recovered engine keeps working and keeps tracking: a
			// fresh write lands in the (re-enabled) dirty set.
			if err := e.Write(0, block(9)); err != nil {
				t.Fatal(err)
			}
			if e.DirtyGroups() == 0 {
				t.Fatal("post-resume write not tracked")
			}
		})
	}
}

func TestAppendDeltaIsProportionalToDirt(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	// Touch one block in one group.
	h.write(t, 3)
	st, err := h.eng.AppendDelta(h.w)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 {
		t.Fatalf("one dirty group, %d records", st.Groups)
	}
	var full bytes.Buffer
	if _, err := h.eng.Persist(&full); err != nil {
		t.Fatal(err)
	}
	if st.Bytes*4 > int64(full.Len()) {
		t.Fatalf("single-group delta (%d bytes) not small next to full image (%d bytes)", st.Bytes, full.Len())
	}
	// Clean set: the next epoch carries only its commit record.
	st2, err := h.eng.AppendDelta(h.w)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Groups != 0 {
		t.Fatalf("clean engine appended %d group records", st2.Groups)
	}
	// Within one fully resident group the epoch grows by one block entry per
	// block written, not by the group: k blocks cost the k = 0 epoch plus the
	// record header plus k entries.
	if err := h.eng.WriteBlocks(5*ctr.GroupBlocks*BlockBytes, make([]byte, ctr.GroupBlocks*BlockBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.AppendDelta(h.w); err != nil {
		t.Fatal(err)
	}
	header := int64(wal.RecordOverhead() + 1 + 8 + BlockBytes + 8)
	entry := int64(BlockBytes + 8 + h.eng.store.checkBytes)
	for _, k := range []int{1, 2, 8, 32} {
		for j := 0; j < k; j++ {
			h.write(t, 5*ctr.GroupBlocks+uint64(j))
		}
		st, err := h.eng.AppendDelta(h.w)
		if err != nil {
			t.Fatal(err)
		}
		if want := st2.Bytes + header + int64(k)*entry; st.Groups != 1 || st.Bytes != want {
			t.Fatalf("%d of 64 resident blocks written: %d records, %d bytes, want 1 record, %d bytes", k, st.Groups, st.Bytes, want)
		}
	}
}

// logRecords re-parses a delta log's framing and returns each record's end
// offset and its payload type byte. The framing is only trusted as far as
// the test uses it: to pick cut points.
func logRecords(t *testing.T, log []byte) (bounds []int64, types []byte) {
	t.Helper()
	off := int64(wal.HeaderSize)
	for off < int64(len(log)) {
		plen := int64(binary.LittleEndian.Uint32(log[off : off+4]))
		types = append(types, log[off+12])
		off += 4 + 8 + plen + 4 + 32
		bounds = append(bounds, off)
	}
	if off != int64(len(log)) {
		t.Fatalf("log does not parse to a record boundary: %d vs %d", off, len(log))
	}
	return bounds, types
}

// TestCrashPointMatrix is the satellite crash matrix: the log is cut at
// every record boundary and at several mid-record offsets, and every
// recovery must be a typed verdict whose recovered state matches the
// last-committed-epoch oracle exactly — never a silent stale read, never a
// wrong byte.
func TestCrashPointMatrix(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	for i := 0; i < 3; i++ {
		h.epoch(t, 12)
	}
	log := h.log.Bytes()
	bounds, types := logRecords(t, log)

	// commitsBefore[i] = committed epochs among records [0, i).
	commitsBefore := make([]int, len(bounds)+1)
	for i, typ := range types {
		commitsBefore[i+1] = commitsBefore[i]
		if typ == deltaRecCommit {
			commitsBefore[i+1]++
		}
	}

	// A cut is indistinguishable from an honest shutdown — and therefore
	// Clean — exactly when it lands on a record boundary with no group
	// records pending a commit: the bare header, or right after a commit
	// record. Everything else is a torn tail → Truncated. (Clean-but-short
	// prefixes are the truncation attack the expectRoot pin closes; see
	// TestPinDetectsTruncatedHistory.)
	type expect struct {
		epochs int
		clean  bool
	}
	cuts := map[int64]expect{
		0:                         {0, false},
		int64(wal.HeaderSize) - 3: {0, false},
		int64(wal.HeaderSize):     {0, true},
	}
	prev := int64(wal.HeaderSize)
	for i, b := range bounds {
		cuts[b] = expect{commitsBefore[i+1], types[i] == deltaRecCommit}
		cuts[prev+1] = expect{commitsBefore[i], false}     // just into the frame
		cuts[(prev+b)/2] = expect{commitsBefore[i], false} // mid-record
		cuts[b-1] = expect{commitsBefore[i], false}        // one byte short of the seal
		prev = b
	}

	for cut, want := range cuts {
		e, rep, err := resumeOneShard(cfg, bytes.NewReader(h.base.Bytes()), bytes.NewReader(log[:cut]), nil)
		if err != nil {
			t.Fatalf("cut %d: resume refused a torn tail: %v", cut, err)
		}
		if rep.Epochs != want.epochs {
			t.Fatalf("cut %d: recovered %d epochs, crash point allows %d", cut, rep.Epochs, want.epochs)
		}
		if want.clean {
			if rep.Status != RecoveryClean {
				t.Fatalf("cut %d (boundary after commit): status %v (%s)", cut, rep.Status, rep.Reason)
			}
		} else if rep.Status != RecoveryTruncated {
			t.Fatalf("cut %d: want truncated verdict, got %v (%s)", cut, rep.Status, rep.Reason)
		}
		if rep.Root != h.epochRoots[rep.Epochs] {
			t.Fatalf("cut %d: recovered root is not the epoch-%d root", cut, rep.Epochs)
		}
		verifyAtEpoch(t, e, h, rep.Epochs)
	}
}

// TestCorruptionMatrix flips a bit in every record of the log; each flip
// must surface as a typed verdict, and any engine that resumes must sit
// exactly at a committed-epoch oracle.
func TestCorruptionMatrix(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	for i := 0; i < 3; i++ {
		h.epoch(t, 12)
	}
	log := h.log.Bytes()
	bounds, _ := logRecords(t, log)
	rng := rand.New(rand.NewSource(5))

	prev := int64(wal.HeaderSize)
	for i, b := range bounds {
		for trial := 0; trial < 4; trial++ {
			mut := append([]byte(nil), log...)
			bit := prev*8 + int64(rng.Intn(int(b-prev)*8))
			mut[bit/8] ^= 1 << (bit % 8)
			e, rep, err := resumeOneShard(cfg, bytes.NewReader(h.base.Bytes()), bytes.NewReader(mut), nil)
			if err != nil {
				var rerr *RecoveryError
				if !errors.As(err, &rerr) {
					t.Fatalf("record %d: untyped resume error %v", i, err)
				}
				if rerr.Report.Status != RecoveryRollback {
					t.Fatalf("record %d: error with status %v", i, rerr.Report.Status)
				}
				continue
			}
			if rep.Status == RecoveryClean && rep.Epochs != len(h.epochTruth)-1 {
				t.Fatalf("record %d: clean verdict on a corrupted log with %d epochs", i, rep.Epochs)
			}
			if rep.Status == RecoveryClean {
				// A flip in already-cut padding cannot exist (records abut),
				// so a clean full replay means the flip did not survive...
				// which is impossible: every byte is covered by CRC + seal.
				t.Fatalf("record %d: bit flip replayed clean", i)
			}
			verifyAtEpoch(t, e, h, rep.Epochs)
		}
		prev = b
	}
}

// TestBaseImageTruncation cuts the base image (not the log) at arbitrary
// points: resume must fail loudly every time.
func TestBaseImageTruncation(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	h.epoch(t, 12)
	base := h.base.Bytes()
	for _, cut := range []int{0, 7, 8, len(base) / 3, len(base) / 2, len(base) - 1} {
		e, _, err := resumeOneShard(cfg, bytes.NewReader(base[:cut]), bytes.NewReader(h.log.Bytes()), nil)
		if err == nil || e != nil {
			t.Fatalf("cut %d: truncated base image resumed", cut)
		}
	}
}

func TestPinDetectsTruncatedHistory(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	h.epoch(t, 12)
	two := h.epoch(t, 12)
	log := h.log.Bytes()
	bounds, types := logRecords(t, log)

	// Present only epoch 1: a valid prefix ending at the first commit.
	var firstCommitEnd int64
	for i, typ := range types {
		if typ == deltaRecCommit {
			firstCommitEnd = bounds[i]
			break
		}
	}
	pin := two.Root
	e, rep, err := resumeOneShard(cfg, bytes.NewReader(h.base.Bytes()), bytes.NewReader(log[:firstCommitEnd]), &pin)
	if err == nil || e != nil {
		t.Fatal("truncated-at-boundary history resumed against a newer pin")
	}
	var rerr *RecoveryError
	if !errors.As(err, &rerr) || rerr.Report.Status != RecoveryRollback {
		t.Fatalf("want rollback RecoveryError, got %v (report %+v)", err, rep)
	}
}

func TestLogBoundToItsBase(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	h := newDeltaHarness(t, cfg)
	h.epoch(t, 12)

	// A second base snapshot taken later: the existing log's seed is the
	// FIRST base's root, so replaying it over the newer base must fail as
	// corrupt, not apply twice.
	var base2 bytes.Buffer
	if _, err := h.eng.Persist(&base2); err != nil {
		t.Fatal(err)
	}
	e, _, err := resumeOneShard(cfg, bytes.NewReader(base2.Bytes()), bytes.NewReader(h.log.Bytes()), nil)
	if err == nil || e != nil {
		t.Fatal("log replayed over a base it does not extend")
	}
	var rerr *RecoveryError
	if !errors.As(err, &rerr) || rerr.Report.Status != RecoveryRollback {
		t.Fatalf("want rollback RecoveryError, got %v", err)
	}
}

func TestShardedIncrementalRoundTrip(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	const shards = 4
	s, err := NewShardedEngine(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableDeltaTracking()
	rng := rand.New(rand.NewSource(3))
	truth := make(map[uint64][]byte)
	writeSome := func(n int) {
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(int(cfg.RegionBytes/BlockBytes))) * BlockBytes
			data := block(rng.Int63())
			if err := s.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			truth[addr] = data
		}
	}
	writeSome(200)

	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		t.Fatal(err)
	}
	logs := make([]bytes.Buffer, shards)
	writers := make([]*wal.Writer, shards)
	for i := range writers {
		w, err := s.NewShardDeltaWriter(i, &logs[i])
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = w
	}
	for epoch := 0; epoch < 3; epoch++ {
		writeSome(150)
		for i := range writers {
			if _, err := s.AppendDeltaShard(i, writers[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	pin := s.RootDigest()

	wals := make([]io.Reader, shards)
	for i := range wals {
		wals[i] = bytes.NewReader(logs[i].Bytes())
	}
	r, reports, err := ResumeShardedIncremental(cfg, shards, bytes.NewReader(base.Bytes()), wals, &pin)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for i, rep := range reports {
		if rep.Status != RecoveryClean || rep.Epochs != 3 {
			t.Fatalf("shard %d report %+v", i, rep)
		}
	}
	if CombinedRecoveredRoot(reports) != pin {
		t.Fatal("combined recovered root does not match the live pin")
	}
	dst := make([]byte, BlockBytes)
	for addr, want := range truth {
		if _, err := r.Read(addr, dst); err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %#x corrupted across sharded incremental resume", addr)
		}
	}
	// Per-shard logs are sealed under per-shard keys: shard 1's log can
	// never replay as shard 0's.
	if shards > 1 {
		swapped := make([]io.Reader, shards)
		for i := range swapped {
			swapped[i] = bytes.NewReader(logs[(i+1)%shards].Bytes())
		}
		if _, _, err := ResumeShardedIncremental(cfg, shards, bytes.NewReader(base.Bytes()), swapped, nil); err == nil {
			t.Fatal("cross-shard log splice resumed")
		}
	}
}

// TestRecoveryVerdictsRoundTripErrorsAs is the satellite regression: the
// typed recovery error must survive errors.As through the sharded resume
// path's wrapping, exactly like *CodecMismatchError does.
func TestRecoveryVerdictsRoundTripErrorsAs(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	const shards = 2
	s, err := NewShardedEngine(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableDeltaTracking()
	if err := s.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		t.Fatal(err)
	}
	logs := make([]bytes.Buffer, shards)
	for i := 0; i < shards; i++ {
		w, err := s.NewShardDeltaWriter(i, &logs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(uint64(i)*s.ShardBytes(), block(int64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendDeltaShard(i, w); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a seal bit in shard 1's log.
	raw := logs[1].Bytes()
	raw[len(raw)-1] ^= 0x80
	wals := []io.Reader{bytes.NewReader(logs[0].Bytes()), bytes.NewReader(raw)}
	_, _, err = ResumeShardedIncremental(cfg, shards, bytes.NewReader(base.Bytes()), wals, nil)
	if err == nil {
		t.Fatal("tampered shard log resumed")
	}
	var rerr *RecoveryError
	if !errors.As(err, &rerr) {
		t.Fatalf("*RecoveryError lost through shard wrapping: %v", err)
	}
	if rerr.Report.Status != RecoveryRollback {
		t.Fatalf("unexpected status %v", rerr.Report.Status)
	}
}

// TestCodecMismatchRoundTripsThroughIncrementalResume: the existing typed
// codec error must also survive the incremental sharded path.
func TestCodecMismatchRoundTripsThroughIncrementalResume(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInline)
	cfg.ECCCodec = "secded"
	const shards = 2
	s, err := NewShardedEngine(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if _, err := s.Persist(&base); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.ECCCodec = "residue"
	_, _, err = ResumeShardedIncremental(other, shards, bytes.NewReader(base.Bytes()), nil, nil)
	var cerr *CodecMismatchError
	if !errors.As(err, &cerr) {
		t.Fatalf("*CodecMismatchError lost through incremental shard wrapping: %v", err)
	}
	if cerr.ImageCodec != "secded" || cerr.ConfigCodec != "residue" {
		t.Fatalf("mismatch fields wrong: %+v", cerr)
	}
}
