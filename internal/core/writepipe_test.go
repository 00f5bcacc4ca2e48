package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// rebuiltRoot is the write pipeline's independent reference: a fresh tree
// built from scratch (tree.Rebuild, no UpdateLeaves batching, no dirty set)
// over the counter images the engine has stored. After a flush the engine's
// incrementally maintained root must equal it.
func rebuiltRoot(t testing.TB, e *Engine) RootDigest {
	t.Helper()
	ref, err := tree.New(e.key, e.tr.Leaves(), e.cfg.OnChipTreeBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Rebuild(e.images.Load); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(ref.TopLevel())
}

func TestWritePipelineCombinesWrites(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	// 8 writes into one group touch a single metadata leaf: the first
	// marks it dirty, the rest combine.
	for i := uint64(0); i < 8; i++ {
		if err := e.Write(i*BlockBytes, block(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.DirtyLeaves(); got != 1 {
		t.Fatalf("DirtyLeaves = %d, want 1", got)
	}
	st := e.Stats()
	if st.WriteCombines != 7 {
		t.Fatalf("WriteCombines = %d, want 7", st.WriteCombines)
	}
	if st.DeferredLeafFlushes != 0 {
		t.Fatalf("DeferredLeafFlushes = %d before any flush", st.DeferredLeafFlushes)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.DirtyLeaves(); got != 0 {
		t.Fatalf("DirtyLeaves = %d after Flush, want 0", got)
	}
	if st = e.Stats(); st.DeferredLeafFlushes != 1 {
		t.Fatalf("DeferredLeafFlushes = %d, want 1 (one leaf, once)", st.DeferredLeafFlushes)
	}
	// Flush on a clean set is a no-op.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	for i := uint64(0); i < 8; i++ {
		if _, err := e.Read(i*BlockBytes, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, block(int64(i))) {
			t.Fatalf("block %d corrupted through the pipeline", i)
		}
	}
}

func TestWritePipelineEpochBound(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	e.wp.maxDirty = 2
	// Distinct groups are distinct leaves; the second write hits the
	// maxDirty=2 bound and must flush inline.
	groupBytes := uint64(ctr.GroupBlocks * BlockBytes)
	if err := e.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	if got := e.DirtyLeaves(); got != 1 {
		t.Fatalf("DirtyLeaves = %d, want 1", got)
	}
	if err := e.Write(groupBytes, block(2)); err != nil {
		t.Fatal(err)
	}
	if got := e.DirtyLeaves(); got != 0 {
		t.Fatalf("DirtyLeaves = %d after epoch bound, want 0 (auto-flush)", got)
	}
	if st := e.Stats(); st.DeferredLeafFlushes != 2 {
		t.Fatalf("DeferredLeafFlushes = %d, want 2", st.DeferredLeafFlushes)
	}
}

// TestWritePipelineMatchesEagerState checks, at every design point, that
// deferring and batching the tree maintenance loses nothing against updating
// it eagerly: after hot traffic and a flush, (a) the root equals a tree
// rebuilt from scratch over the stored counter images, and (b) the persisted
// image resumes under the pinned root — Resume re-verifies every counter
// image against the tree — and reads back every block.
func TestWritePipelineMatchesEagerState(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		e := newEngine(t, cfg)
		want := make(map[uint64][]byte)
		for i := 0; i < 300; i++ {
			blk := uint64(i*7) % 512
			d := block(int64(i))
			if err := e.Write(blk*BlockBytes, d); err != nil {
				t.Fatal(err)
			}
			want[blk] = d
		}
		if e.Stats().WriteCombines == 0 {
			t.Fatalf("%s/%s: hot traffic combined no writes", cfg.Scheme, cfg.Placement)
		}
		var img bytes.Buffer
		root, err := e.Persist(&img) // Persist flushes first
		if err != nil {
			t.Fatal(err)
		}
		if root != rebuiltRoot(t, e) {
			t.Fatalf("%s/%s: flushed root diverges from a from-scratch rebuild", cfg.Scheme, cfg.Placement)
		}
		r, err := Resume(cfg, &img, &root)
		if err != nil {
			t.Fatalf("%s/%s: resume under the pinned root: %v", cfg.Scheme, cfg.Placement, err)
		}
		dst := make([]byte, BlockBytes)
		for blk, d := range want {
			if _, err := r.Read(blk*BlockBytes, dst); err != nil {
				t.Fatalf("%s/%s: block %d after resume: %v", cfg.Scheme, cfg.Placement, blk, err)
			}
			if !bytes.Equal(dst, d) {
				t.Fatalf("%s/%s: block %d corrupted through the pipeline", cfg.Scheme, cfg.Placement, blk)
			}
		}
	}
}

func TestWritePipelineRootDigestFlushes(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	if err := e.Write(0, block(3)); err != nil {
		t.Fatal(err)
	}
	if e.DirtyLeaves() == 0 {
		t.Fatal("write did not defer")
	}
	d1 := e.RootDigest() // must flush: an exported root covers every write
	if e.DirtyLeaves() != 0 {
		t.Fatal("RootDigest left dirty leaves behind")
	}
	if d1 != rebuiltRoot(t, e) {
		t.Fatal("exported root diverges from a from-scratch rebuild")
	}
}

func TestWritePipelinePersistResume(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	e := newEngine(t, cfg)
	for i := uint64(0); i < 70; i++ { // spans two groups: two dirty leaves
		if err := e.Write(i*BlockBytes, block(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if e.DirtyLeaves() == 0 {
		t.Fatal("writes did not defer")
	}
	var buf bytes.Buffer
	root, err := e.Persist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e.DirtyLeaves() != 0 {
		t.Fatal("Persist left dirty leaves behind")
	}
	// Resume verifies every counter block against the tree: if Persist had
	// serialized a stale tree, this would fail loudly.
	r, err := Resume(cfg, bytes.NewReader(buf.Bytes()), &root)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockBytes)
	for i := uint64(0); i < 70; i++ {
		if _, err := r.Read(i*BlockBytes, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, block(int64(i))) {
			t.Fatalf("block %d corrupted across persist/resume", i)
		}
	}
}

// TestWritePipelineDirtyFaultDetected is the safety invariant: a fault
// injected into a counter image between write and flush must surface as a
// loud counter-stage failure on the cold path — the stale tree cannot vouch
// for the image, and the trusted-state comparison must refuse it.
func TestWritePipelineDirtyFaultDetected(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		e := newEngine(t, cfg)
		if err := e.Write(0, block(11)); err != nil {
			t.Fatal(err)
		}
		if e.DirtyLeaves() != 1 {
			t.Fatal("write did not defer")
		}
		midx := e.MetadataIndex(0)
		if err := flipElem(e.off, PlaneCounter, midx, 5); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		_, err := e.Read(0, dst)
		var ie *IntegrityError
		if !errors.As(err, &ie) || ie.Stage != StageCounter {
			t.Fatalf("%s/%s: dirty-window fault not detected: %v", cfg.Scheme, cfg.Placement, err)
		}
		// The failure is counter-plane, so the recovery ladder repairs it
		// from trusted state and the read completes with the right data.
		ri, err := e.ReadRecover(0, dst)
		if err != nil {
			t.Fatalf("%s/%s: recovery failed: %v", cfg.Scheme, cfg.Placement, err)
		}
		if !ri.MetadataRepaired {
			t.Fatal("recovery did not go through metadata repair")
		}
		if !bytes.Equal(dst, block(11)) {
			t.Fatal("repaired read returned wrong data")
		}
		if e.DirtyLeaves() != 0 {
			t.Fatal("repair should subsume the pending flush")
		}
	}
}

// TestWritePipelineReadAfterWrite checks the read-after-write trigger: a
// cold read of a dirty leaf flushes just that leaf and serves the read.
func TestWritePipelineReadAfterWrite(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInline))
	if err := e.Write(0, block(21)); err != nil {
		t.Fatal(err)
	}
	if e.DirtyLeaves() != 1 {
		t.Fatal("write did not defer")
	}
	e.bc.evict(0) // make the read cold: write-allocate left the block resident
	dst := make([]byte, BlockBytes)
	if _, err := e.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block(21)) {
		t.Fatal("read-after-write returned wrong data")
	}
	if e.DirtyLeaves() != 0 {
		t.Fatal("cold read of a dirty leaf must flush it")
	}
	if st := e.Stats(); st.DeferredLeafFlushes != 1 {
		t.Fatalf("DeferredLeafFlushes = %d, want 1", st.DeferredLeafFlushes)
	}
}

func TestWritePipelineScrubFlushes(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Delta, MACInECC))
	if err := e.Write(0, block(31)); err != nil {
		t.Fatal(err)
	}
	if e.DirtyLeaves() != 1 {
		t.Fatal("write did not defer")
	}
	if _, err := e.Scrub(); err != nil {
		t.Fatal(err)
	}
	if e.DirtyLeaves() != 0 {
		t.Fatal("Scrub must flush before decoding stored images")
	}
}

// TestWritePipelineWriteAllocs guards the combined-write fast path: once a
// leaf is dirty, further writes into it must not allocate. Monolithic never
// re-encrypts, so the loop stays on the fast path indefinitely.
func TestWritePipelineWriteAllocs(t *testing.T) {
	e := newEngine(t, smallCfg(ctr.Monolithic, MACInECC))
	data := block(41)
	if err := e.Write(0, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Write(0, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("combined write allocates %v times per op, want 0", allocs)
	}
}

func TestEngineStatsAddWritePipeline(t *testing.T) {
	a := EngineStats{WriteCombines: 2, DeferredLeafFlushes: 3}
	b := EngineStats{WriteCombines: 10, DeferredLeafFlushes: 20}
	a.Add(b)
	if a.WriteCombines != 12 || a.DeferredLeafFlushes != 23 {
		t.Fatalf("Add dropped write-pipeline counters: %+v", a)
	}
}

// TestShardedWritePipelineFlushAll exercises the sharded default-on pipeline
// and the concurrent region-wide flush.
func TestShardedWritePipelineFlushAll(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s, err := NewShardedEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardBytes := s.ShardBytes()
	for i := 0; i < s.Shards(); i++ {
		base := uint64(i) * shardBytes
		for j := uint64(0); j < 4; j++ { // 4 writes, one leaf per shard
			if err := s.Write(base+j*BlockBytes, block(int64(i)<<8|int64(j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.WriteCombines != uint64(3*s.Shards()) {
		t.Fatalf("WriteCombines = %d, want %d", st.WriteCombines, 3*s.Shards())
	}
	dirty := 0
	for i := 0; i < s.Shards(); i++ {
		s.WithShard(i, func(e *Engine) { dirty += e.DirtyLeaves() })
	}
	if dirty != s.Shards() {
		t.Fatalf("dirty leaves across shards = %d, want %d", dirty, s.Shards())
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		s.WithShard(i, func(e *Engine) {
			if e.DirtyLeaves() != 0 {
				t.Fatalf("shard %d still dirty after FlushAll", i)
			}
		})
	}
	dst := make([]byte, BlockBytes)
	for i := 0; i < s.Shards(); i++ {
		base := uint64(i) * shardBytes
		for j := uint64(0); j < 4; j++ {
			if _, err := s.Read(base+j*BlockBytes, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, block(int64(i)<<8|int64(j))) {
				t.Fatalf("shard %d block %d corrupted", i, j)
			}
		}
	}
}
