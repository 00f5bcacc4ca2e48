package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"authmem/internal/ctr"
	"authmem/internal/tree"
)

// Tests for the lock-free warm-read path: the seqlock protocol itself, the
// ShardedEngine fast paths built on it, the zero-allocation pins, and a
// -race stress mixing readers with writers, tamper, repair, and re-encrypt
// traffic on the same lines.

// stamp fills a block with 8 copies of blk<<20|version, so a concurrent
// reader can detect both torn reads (words disagree) and stale reads (a
// version that regresses below one it has already observed).
func stamp(dst []byte, blk, version uint64) {
	w := blk<<20 | version
	for i := 0; i < BlockBytes; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
}

// parseStamp decodes a stamped block. torn reports words disagreeing — the
// one outcome the seqlock protocol must make impossible.
func parseStamp(buf []byte) (blk, version uint64, torn bool) {
	w := binary.LittleEndian.Uint64(buf)
	for i := 8; i < BlockBytes; i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != w {
			return 0, 0, true
		}
	}
	return w >> 20, w & (1<<20 - 1), false
}

// TestBlockCacheSeqlock exercises the protocol on a bare cache: install,
// probe, displacement, eviction, epoch flush, and the writer-in-progress
// (odd generation) retry path.
func TestBlockCacheSeqlock(t *testing.T) {
	c := newBlockCache(8)
	dst := make([]byte, BlockBytes)

	if hit, _ := c.probe(3, dst); hit {
		t.Fatal("empty cache reported a hit")
	}
	pt := block(3)
	c.insert(3, pt)
	hit, retries := c.probe(3, dst)
	if !hit || retries != 0 {
		t.Fatalf("clean probe: hit=%v retries=%d", hit, retries)
	}
	if string(dst) != string(pt) {
		t.Fatal("probe returned wrong plaintext")
	}

	// Same slot, different tag: block 11 displaces block 3 (mask 7).
	c.insert(11, block(11))
	if hit, _ := c.probe(3, dst); hit {
		t.Fatal("displaced line still resident")
	}
	if hit, _ := c.probe(11, dst); !hit {
		t.Fatal("displacing line not resident")
	}

	c.evict(11)
	if hit, _ := c.probe(11, dst); hit {
		t.Fatal("evicted line still resident")
	}

	// Epoch flush invalidates every resident line in O(1); a line installed
	// after the flush is valid under the new epoch.
	c.insert(5, block(5))
	c.flush()
	if hit, _ := c.probe(5, dst); hit {
		t.Fatal("flushed line still resident")
	}
	c.insert(5, pt)
	if hit, _ := c.probe(5, dst); !hit {
		t.Fatal("post-flush reinstall not resident")
	}

	// A permanently odd generation models a writer caught mid-update: the
	// probe must retry its bounded budget and fall back to a miss, never
	// return the half-written payload.
	e := &c.entries[5&c.mask]
	e.gen.Add(1)
	hit, retries = c.probe(5, dst)
	if hit {
		t.Fatal("probe returned a hit from a line mid-update")
	}
	if retries != seqlockMaxRetries+1 {
		t.Fatalf("mid-update probe retries = %d, want %d", retries, seqlockMaxRetries+1)
	}
	e.gen.Add(1)
	if hit, _ := c.probe(5, dst); !hit {
		t.Fatal("line not resident after writer completes")
	}
}

// TestLockFreeWarmReads checks that warm single-block reads are served by
// the lock-free path (write-allocate makes every written block warm) and
// that the counters attribute them correctly.
func TestLockFreeWarmReads(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		s := newSharded(t, cfg, 4)
		const blocks = 256
		for i := uint64(0); i < blocks; i++ {
			if err := s.Write(i*BlockBytes, block(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		base := s.Stats()
		dst := make([]byte, BlockBytes)
		const rounds = 4
		for r := 0; r < rounds; r++ {
			for i := uint64(0); i < blocks; i++ {
				if _, err := s.Read(i*BlockBytes, dst); err != nil {
					t.Fatalf("%s/%s: warm read blk %d: %v", cfg.Scheme, cfg.Placement, i, err)
				}
				if string(dst) != string(block(int64(i))) {
					t.Fatalf("%s/%s: warm read blk %d returned wrong data", cfg.Scheme, cfg.Placement, i)
				}
			}
		}
		d := statDelta(base, s.Stats())
		if d.LockFreeHits != rounds*blocks {
			t.Errorf("%s/%s: LockFreeHits = %d, want %d", cfg.Scheme, cfg.Placement, d.LockFreeHits, rounds*blocks)
		}
		if d.SlowPathReads != 0 {
			t.Errorf("%s/%s: SlowPathReads = %d on an all-warm workload", cfg.Scheme, cfg.Placement, d.SlowPathReads)
		}
		if d.Reads != rounds*blocks {
			t.Errorf("%s/%s: Reads = %d, want %d", cfg.Scheme, cfg.Placement, d.Reads, rounds*blocks)
		}
	}
}

func statDelta(a, b EngineStats) EngineStats {
	return EngineStats{
		Reads:         b.Reads - a.Reads,
		LockFreeHits:  b.LockFreeHits - a.LockFreeHits,
		SlowPathReads: b.SlowPathReads - a.SlowPathReads,
	}
}

// TestLockFreeSpanReads checks the ReadBlocks warm-prefix path across a
// shard boundary, and that a cold tail falls through to the locked fan-out
// without double-counting.
func TestLockFreeSpanReads(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	shardBlocks := s.ShardBytes() / BlockBytes

	// A warm span straddling the shard 0/1 boundary.
	start := shardBlocks - 8
	const n = 16
	src := make([]byte, n*BlockBytes)
	for i := uint64(0); i < n; i++ {
		copy(src[i*BlockBytes:], block(int64(start+i)))
	}
	if err := s.WriteBlocks(start*BlockBytes, src); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	dst := make([]byte, n*BlockBytes)
	if err := s.ReadBlocks(start*BlockBytes, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(src) {
		t.Fatal("warm span read returned wrong data")
	}
	d := statDelta(base, s.Stats())
	if d.LockFreeHits != n || d.SlowPathReads != 0 {
		t.Errorf("warm span: LockFreeHits=%d SlowPathReads=%d, want %d/0", d.LockFreeHits, d.SlowPathReads, n)
	}

	// Evict the middle: the warm prefix is served lock-free, the remainder
	// goes through the locked fan-out, and the two halves must add up.
	s.WithShard(0, func(eng *Engine) { eng.bc.evict(start + 4) })
	base = s.Stats()
	if err := s.ReadBlocks(start*BlockBytes, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(src) {
		t.Fatal("split span read returned wrong data")
	}
	d = statDelta(base, s.Stats())
	if d.LockFreeHits != 4 || d.SlowPathReads != n-4 {
		t.Errorf("split span: LockFreeHits=%d SlowPathReads=%d, want 4/%d", d.LockFreeHits, d.SlowPathReads, n-4)
	}
}

// TestLockFreeTamperCoherence checks the trust-boundary invariant: once a
// fault lands — in ciphertext, the check lane, a counter block, or a tree
// node — no subsequent read may be served stale-but-trusted plaintext from
// the verified-block cache. Every tamper entry point publishes through the
// same generation/epoch protocol the probe reads, so the warm line is gone
// before the fault exists.
func TestLockFreeTamperCoherence(t *testing.T) {
	planes := []struct {
		name   string
		tamper func(s *ShardedEngine, addr uint64) error
	}{
		{"ciphertext", func(s *ShardedEngine, addr uint64) error { return s.TamperCiphertext(addr, 7) }},
		{"ecc-lane", func(s *ShardedEngine, addr uint64) error { return s.TamperECCLane(addr, 3) }},
		{"counter", func(s *ShardedEngine, addr uint64) error { return s.TamperCounterForAddr(addr, 11) }},
	}
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			cfg := smallCfg(ctr.Delta, MACInECC)
			s := newSharded(t, cfg, 4)
			const addr = 5 * BlockBytes
			pt := block(99)
			if err := s.Write(addr, pt); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, BlockBytes)
			base := s.Stats()
			if _, err := s.Read(addr, dst); err != nil {
				t.Fatal(err)
			}
			if statDelta(base, s.Stats()).LockFreeHits != 1 {
				t.Fatal("warm-up read was not lock-free; test precondition broken")
			}
			if err := p.tamper(s, addr); err != nil {
				t.Fatal(err)
			}
			base = s.Stats()
			// A single flipped bit is within ECC correction for some planes;
			// the requirement is only that the read is NOT a lock-free hit on
			// pre-fault plaintext — detection/correction must get to run.
			if _, err := s.Read(addr, dst); err == nil {
				if string(dst) != string(pt) {
					t.Fatal("read after tamper returned silent garbage")
				}
			}
			d := statDelta(base, s.Stats())
			if d.LockFreeHits != 0 {
				t.Errorf("read after %s tamper hit the lock-free cache (%d hits)", p.name, d.LockFreeHits)
			}
			if d.SlowPathReads != 1 {
				t.Errorf("read after %s tamper: SlowPathReads = %d, want 1", p.name, d.SlowPathReads)
			}
		})
	}
}

// TestLockFreeWarmReadAllocs pins the hot paths to zero allocations:
// warm Read, a warm cross-shard ReadBlocks span, Stats(), and FlushAll()
// on a clean region.
func TestLockFreeWarmReadAllocs(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	shardBlocks := s.ShardBytes() / BlockBytes
	start := shardBlocks - 4
	const n = 8
	src := make([]byte, n*BlockBytes)
	for i := uint64(0); i < n; i++ {
		copy(src[i*BlockBytes:], block(int64(start+i)))
	}
	if err := s.WriteBlocks(start*BlockBytes, src); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, n*BlockBytes)

	if a := testing.AllocsPerRun(200, func() {
		if _, err := s.Read(start*BlockBytes, dst[:BlockBytes]); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm Read allocates %.1f per op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := s.ReadBlocks(start*BlockBytes, dst); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm cross-shard ReadBlocks allocates %.1f per op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { s.Stats() }); a != 0 {
		t.Errorf("Stats allocates %.1f per op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := s.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("quiescent FlushAll allocates %.1f per op, want 0", a)
	}
}

// TestLockFreeConcurrentStress is the -race stress for the seqlock caches:
// lock-free readers race disjoint-range writers, a tamper/recover goroutine
// rotating fault planes (ciphertext, check lane, counter block, tree node),
// and the re-encrypt sweeps the write traffic triggers — all on lines the
// readers are probing. Version-stamped blocks make the two forbidden
// outcomes visible: a torn read (seqlock failure) and a stale read (a
// version regressing, i.e. trusted-but-old plaintext after an eviction or
// flush should have retired it).
func TestLockFreeConcurrentStress(t *testing.T) {
	cfg := smallCfg(ctr.Delta, MACInECC)
	s := newSharded(t, cfg, 4)
	blocks := cfg.DataBlocks()
	shardBlocks := s.ShardBytes() / BlockBytes

	writerOps, readerOps, tamperOps := 600, 3000, 150
	if testing.Short() {
		writerOps, readerOps, tamperOps = 150, 600, 40
	}

	// Block ranges: three writer ranges and one tamper range, each spanning
	// a shard boundary so cross-shard span reads and same-shard contention
	// both happen; group-aligned so counter tampering stays in-range.
	const rangeBlocks = 2 * ctr.GroupBlocks
	ranges := make([][2]uint64, 4)
	for i := range ranges {
		lo := uint64(i)*shardBlocks + shardBlocks - rangeBlocks/2
		if lo+rangeBlocks > blocks {
			lo = blocks - rangeBlocks
		}
		lo = lo / ctr.GroupBlocks * ctr.GroupBlocks
		ranges[i] = [2]uint64{lo, lo + rangeBlocks}
	}
	tamperRange := ranges[3]

	// Seed every block in every range with version 0.
	buf := make([]byte, BlockBytes)
	for _, r := range ranges {
		for blk := r[0]; blk < r[1]; blk++ {
			stamp(buf, blk, 0)
			if err := s.Write(blk*BlockBytes, buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		halts    atomic.Uint64 // loud fault outcomes observed by any role
		mu       sync.Mutex
		failures []string
	)
	fail := func(msg string) {
		failed.Store(true)
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, msg)
		}
		mu.Unlock()
	}

	// Writers: each owns one range exclusively, bumping the version stamp on
	// every write. Hammering a 2-group window under the Delta scheme also
	// drives overflow re-encrypt sweeps into the mix.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(r [2]uint64, seed uint64) {
			defer wg.Done()
			buf := make([]byte, BlockBytes)
			versions := make(map[uint64]uint64)
			x := seed
			for op := 0; op < writerOps && !failed.Load(); op++ {
				x = x*6364136223846793005 + 1442695040888963407
				blk := r[0] + x>>33%(r[1]-r[0])
				versions[blk]++
				stamp(buf, blk, versions[blk])
				if err := s.Write(blk*BlockBytes, buf); err != nil {
					fail("writer: " + err.Error())
					return
				}
			}
		}(ranges[w], uint64(w+1))
	}

	// Tamperer: owns its range; rotates fault planes, then recovers the
	// victim loudly and re-stamps it with a bumped version so readers keep
	// a monotone view.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, BlockBytes)
		versions := make(map[uint64]uint64)
		x := uint64(0x9E3779B97F4A7C15)
		for op := 0; op < tamperOps && !failed.Load(); op++ {
			x = x*6364136223846793005 + 1442695040888963407
			blk := tamperRange[0] + x>>33%(tamperRange[1]-tamperRange[0])
			addr := blk * BlockBytes
			var err error
			switch op % 4 {
			case 0:
				err = s.TamperCiphertext(addr, int(x>>20)%(BlockBytes*8))
			case 1:
				err = s.TamperECCLane(addr, int(x>>20)%64)
			case 2:
				err = s.TamperCounterForAddr(addr, int(x>>20)%(BlockBytes*8))
			case 3:
				shard := s.ShardOf(addr)
				local := addr - uint64(shard)*s.ShardBytes()
				s.WithShard(shard, func(eng *Engine) {
					tr := eng.Tree()
					off := tr.OffChipLevels()
					if off == 0 {
						return
					}
					leaf := eng.MetaLeaf(eng.MetadataIndex(local))
					id := tree.NodeID{Level: 0, Index: leaf / tree.Arity}
					err = eng.TamperTreeNode(id, int(x>>20)%(tree.NodeBytes*8))
				})
			}
			if err != nil {
				fail("tamper: " + err.Error())
				return
			}
			ri, rerr := s.ReadRecover(addr, buf)
			if rerr != nil || ri.MetadataRepaired || ri.RetryRecovered ||
				ri.CorrectedDataBits > 0 || ri.CorrectedMACBits > 0 {
				halts.Add(1) // loud: halted, repaired, or corrected
			}
			versions[blk]++
			stamp(buf, blk, versions[blk])
			if werr := s.Write(addr, buf); werr != nil {
				fail("tamper resync write: " + werr.Error())
				return
			}
		}
	}()

	// Readers: probe every range — including the one under attack — through
	// both single-block and span paths, checking torn/stale invariants. A
	// read error is a loud outcome, which is always acceptable.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			dst := make([]byte, BlockBytes)
			span := make([]byte, 8*BlockBytes)
			lastSeen := make(map[uint64]uint64)
			check := func(buf []byte, wantBlk uint64) {
				blk, v, torn := parseStamp(buf)
				if torn {
					fail("torn read: words disagree within one block")
					return
				}
				if blk != wantBlk {
					fail("read returned another block's stamp")
					return
				}
				if last, ok := lastSeen[blk]; ok && v < last {
					fail("stale read: version regressed on a warm line")
					return
				}
				lastSeen[blk] = v
			}
			x := seed
			for op := 0; op < readerOps && !failed.Load(); op++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := ranges[x>>60%4]
				if op%8 == 7 {
					start := r[0] + x>>33%(r[1]-r[0]-8)
					if err := s.ReadBlocks(start*BlockBytes, span); err != nil {
						halts.Add(1)
						continue
					}
					for i := uint64(0); i < 8; i++ {
						check(span[i*BlockBytes:(i+1)*BlockBytes], start+i)
					}
					continue
				}
				blk := r[0] + x>>33%(r[1]-r[0])
				if _, err := s.Read(blk*BlockBytes, dst); err != nil {
					halts.Add(1)
					continue
				}
				check(dst, blk)
			}
		}(uint64(g + 101))
	}

	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	st := s.Stats()
	if st.LockFreeHits == 0 {
		t.Error("stress ran without a single lock-free hit; fast path never engaged")
	}
	if halts.Load() == 0 {
		t.Error("stress observed no loud fault outcome; tamper traffic never landed")
	}
	t.Logf("lockFreeHits=%d seqlockRetries=%d slowPathReads=%d halts=%d quarantined=%d",
		st.LockFreeHits, st.SeqlockRetries, st.SlowPathReads, halts.Load(), st.Quarantined)

	// Quiesce and verify the final state is still fully readable: rewrite
	// the tamper range from a fresh stamp (some victims may sit quarantined
	// or faulted), then check every range decrypts cleanly.
	for blk := tamperRange[0]; blk < tamperRange[1]; blk++ {
		stamp(buf, blk, 1<<19)
		if err := s.Write(blk*BlockBytes, buf); err != nil {
			t.Fatalf("final resync blk %d: %v", blk, err)
		}
	}
	for _, r := range ranges {
		for blk := r[0]; blk < r[1]; blk++ {
			if _, err := s.ReadRecover(blk*BlockBytes, buf); err != nil {
				t.Fatalf("final sweep blk %d: %v", blk, err)
			}
			if _, _, torn := parseStamp(buf); torn {
				t.Fatalf("final sweep blk %d: malformed stamp", blk)
			}
		}
	}
}
