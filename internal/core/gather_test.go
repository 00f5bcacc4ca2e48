package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

// coldStreamCfg is the region of the cold-stream tests: 16 MiB over four
// shards, so each shard's 4 MiB is twice its verified-block cache and most
// reads miss.
func coldStreamCfg(placement MACPlacement) Config {
	cfg := Default(ctr.Delta, placement)
	cfg.RegionBytes = 16 << 20
	return cfg
}

// prefillBlock is block blk's content after prefill.
func prefillBlock(dst []byte, blk uint64) {
	for k := uint64(0); k < BlockBytes/8; k++ {
		binary.LittleEndian.PutUint64(dst[k*8:], blk*0x9e3779b97f4a7c15^k)
	}
}

// prefill writes every block of s with prefillBlock, one block-group per
// call, and drops every shard's on-chip lines, so the reads that follow
// verify stored bits.
func prefill(t testing.TB, s *ShardedEngine) {
	t.Helper()
	span := make([]byte, ctr.GroupBlocks*BlockBytes)
	for first := uint64(0); first < s.Config().RegionBytes/BlockBytes; first += ctr.GroupBlocks {
		for j := uint64(0); j < ctr.GroupBlocks; j++ {
			prefillBlock(span[j*BlockBytes:], first+j)
		}
		if err := s.WriteBlocks(first*BlockBytes, span); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		goCold(sh.eng)
	}
}

// runColdStream drives a seeded mixed cold stream through a prefilled s and
// checks every read against an oracle: uniform 4-block span reads, span
// reads around a recently written block (so a span mixes cache hits and
// misses), a few spans across a shard boundary, single-block scattered
// writes, a hot block whose writes overflow its delta and re-encrypt its
// group, and a FlushAll half way.
func runColdStream(t *testing.T, s *ShardedEngine, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nblocks := s.Config().RegionBytes / BlockBytes
	shardBlocks := s.ShardBytes() / BlockBytes
	hot := shardBlocks + 4096 + 5 // one block of shard 1, its group otherwise cold
	oracle := make(map[uint64][]byte)
	var recent [16]uint64
	nrecent := 0
	src := make([]byte, BlockBytes)
	dst := make([]byte, 4*BlockBytes)
	want := make([]byte, 4*BlockBytes)
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			if err := s.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		var first uint64
		switch r := rng.Intn(100); {
		case r < 48:
			blk := uint64(rng.Int63n(int64(nblocks)))
			if r >= 40 {
				blk = hot
			}
			rng.Read(src)
			if err := s.Write(blk*BlockBytes, src); err != nil {
				t.Fatal(err)
			}
			oracle[blk] = append([]byte(nil), src...)
			recent[nrecent%len(recent)] = blk
			nrecent++
			continue
		case r < 58 && nrecent > 0:
			first = recent[rng.Intn(min(nrecent, len(recent)))] &^ 3
		case r < 60:
			first = uint64(1+rng.Intn(3))*shardBlocks - 2
		default:
			first = uint64(rng.Int63n(int64(nblocks/4))) * 4
		}
		if err := s.ReadBlocks(first*BlockBytes, dst); err != nil {
			t.Fatalf("op %d: read of blocks %d..%d: %v", op, first, first+3, err)
		}
		for j := uint64(0); j < 4; j++ {
			if b, ok := oracle[first+j]; ok {
				copy(want[j*BlockBytes:], b)
			} else {
				prefillBlock(want[j*BlockBytes:], first+j)
			}
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("op %d: blocks %d..%d read back wrong", op, first, first+3)
		}
	}
}

// TestColdPathCountsPinned holds a seeded cold stream's event counts,
// counter-scheme counts and root digest on a four-shard delta region, under
// both MAC placements, to the values the engine produced before its cold
// path gathered its lines: a gather only loads, so none may move.
func TestColdPathCountsPinned(t *testing.T) {
	// The counts and the tree cover counters, not data, so both placements
	// give the same values.
	wantStats := EngineStats{
		Reads: 6176, Writes: 263600, GroupReencrypts: 1,
		MetaCacheHits: 181, MetaCacheMisses: 1230,
		DataCacheHits: 780, DataCacheMisses: 5396,
		WriteCombines: 260, DeferredLeafFlushes: 5292,
		LockFreeHits: 609, SlowPathReads: 5567,
	}
	wantScheme := ctr.Stats{Writes: 263600, Resets: 4096, Reencryptions: 1, ReencryptedBlocks: 64}
	const wantRoot = "8320eb58dacc6238ef89831c52205d7fbadfa48beef9147aeb28a5ac045248a6"
	for _, placement := range []MACPlacement{MACInECC, MACInline} {
		t.Run(placement.String(), func(t *testing.T) {
			s := newSharded(t, coldStreamCfg(placement), 4)
			prefill(t, s)
			runColdStream(t, s, 44, 3000)
			root := s.RootDigest()
			st, sc := s.Stats(), s.SchemeStats()
			if sc.Reencryptions == 0 {
				t.Error("the stream re-encrypted no group")
			}
			if st != wantStats {
				t.Errorf("Stats() = %+v\nwant       %+v", st, wantStats)
			}
			if sc != wantScheme {
				t.Errorf("SchemeStats() = %+v, want %+v", sc, wantScheme)
			}
			if got := hex.EncodeToString(root[:]); got != wantRoot {
				t.Errorf("RootDigest() = %s, want %s", got, wantRoot)
			}
		})
	}
}

// BenchmarkColdSpan is the cold path on demand: a prefilled 64 MiB delta
// region over four shards, eight times their verified-block caches, driven
// alternately by a uniform 4-block span read and a single-block write
// scattered over the whole region. Addresses come from an inline xorshift,
// so the loop allocates nothing and spends next to nothing choosing them.
func BenchmarkColdSpan(b *testing.B) {
	cfg := Default(ctr.Delta, MACInECC)
	cfg.RegionBytes = 64 << 20
	s := newSharded(b, cfg, 4)
	prefill(b, s)
	nblocks := cfg.RegionBytes / BlockBytes
	span := make([]byte, 4*BlockBytes)
	x := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i%2 == 0 {
			if err := s.ReadBlocks(x%(nblocks/4)*4*BlockBytes, span); err != nil {
				b.Fatal(err)
			}
		} else if err := s.Write(x%nblocks*BlockBytes, span[:BlockBytes]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmSpanProbe reads one resident span of 1, 4 or 64 blocks
// through ShardedEngine.ReadBlocks: the lock-free probe and nothing else,
// since a warm span never takes the shard lock.
func BenchmarkWarmSpanProbe(b *testing.B) {
	for _, blocks := range []int{1, 4, 64} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			s := newSharded(b, smallCfg(ctr.Delta, MACInECC), 4)
			span := make([]byte, blocks*BlockBytes)
			if err := s.WriteBlocks(0, span); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ReadBlocks(0, span); err != nil {
					b.Fatal(err)
				}
			}
			if st := s.Stats(); st.SlowPathReads != 0 {
				b.Fatalf("a warm span took the shard lock %d times", st.SlowPathReads)
			}
		})
	}
}

// engineState hashes everything of e a gather could change if it wrote
// anything but its sink: the counts, the stored bits (ciphertext, lanes,
// check bytes, counter images, chunk presence), both caches' lines and
// epochs, and the dirty set.
func engineState(e *Engine) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v %+v %d %d %v\n", e.Stats(), e.SchemeStats(), e.store.Len(), e.images.Len(), e.wp.dirty)
	for i, c := range e.store.chunks {
		fmt.Fprintf(h, "chunk %d %v\n", i, c != nil)
	}
	e.store.forEach(func(blk uint64, ct []byte, meta *uint64, check []byte) {
		fmt.Fprintf(h, "%d %x %d %x\n", blk, ct, *meta, check)
	})
	e.images.forEach(func(midx uint64, img []byte) { fmt.Fprintf(h, "%d %x\n", midx, img) })
	fmt.Fprintf(h, "%d %d\n", e.bc.epoch.Load(), e.cc.epoch)
	for i := range e.bc.entries {
		l := &e.bc.entries[i]
		fmt.Fprintf(h, "%d %d %d", l.gen.Load(), l.tag.Load(), l.epoch.Load())
		for w := range l.pt {
			fmt.Fprintf(h, " %d", l.pt[w].Load())
		}
	}
	for _, l := range e.cc.entries {
		fmt.Fprintf(h, "%d %d %x\n", l.tag, l.epoch, l.img)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestGatherTouchesNothing checks that the cold path's gather only loads:
// over written and never-written blocks and chunks, the region's last
// block and a batch longer than it covers, under every design point, it
// leaves every count, stored bit, cache line and dirty leaf as it found
// them and materializes nothing.
func TestGatherTouchesNothing(t *testing.T) {
	for _, cfg := range allDesignPoints() {
		e := newEngine(t, cfg)
		nblocks := cfg.DataBlocks()
		for _, blk := range []uint64{0, 1, 5, 70, nblocks - 1} {
			if err := e.Write(blk*BlockBytes, block(int64(blk))); err != nil {
				t.Fatal(err)
			}
		}
		goCold(e)
		dst := make([]byte, BlockBytes)
		if _, err := e.Read(5*BlockBytes, dst); err != nil { // one line back in each cache
			t.Fatal(err)
		}
		before := engineState(e)
		for _, g := range []struct {
			first uint64
			n     int
		}{
			{0, 1}, {0, 4}, {2, 64}, {60, 200},
			{nblocks - 4, 4}, {nblocks - 1, 1}, {chunkBlocks + 3, 4},
		} {
			e.gather(g.first, g.n, e.scheme.MetadataBlock(g.first))
		}
		if engineState(e) != before {
			t.Errorf("%s/%s: a gather changed engine state", cfg.Scheme, cfg.Placement)
		}
	}
}
