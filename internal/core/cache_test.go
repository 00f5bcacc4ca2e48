package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestBlockCacheEntryLayout pins the field offsets blockcache_amd64.s
// hard-codes: a moved field would make publishLine store over the wrong
// word, or probeSpan load from it. The entry's layout is the same on every
// target; the cache's, which only the amd64 probe kernel reads, is pinned
// on amd64.
func TestBlockCacheEntryLayout(t *testing.T) {
	type offset struct {
		name      string
		got, want uintptr
	}
	var e blockCacheEntry
	offsets := []offset{
		{"entry gen", unsafe.Offsetof(e.gen), 0},
		{"entry tag", unsafe.Offsetof(e.tag), 8},
		{"entry epoch", unsafe.Offsetof(e.epoch), 16},
		{"entry pt", unsafe.Offsetof(e.pt), 24},
		{"entry size", unsafe.Sizeof(e), 88},
	}
	if runtime.GOARCH == "amd64" {
		var c blockCache
		offsets = append(offsets,
			offset{"cache entries", unsafe.Offsetof(c.entries), 0},
			offset{"cache mask", unsafe.Offsetof(c.mask), 24},
			offset{"cache epoch", unsafe.Offsetof(c.epoch), 32})
	}
	for _, f := range offsets {
		if f.got != f.want {
			t.Errorf("%s at %d, publishLine and probeSpan assume %d", f.name, f.got, f.want)
		}
	}
}

// entryWords reads every word of e: generation, tag, epoch, plaintext.
func entryWords(e *blockCacheEntry) [3 + blockCacheWords]uint64 {
	w := [3 + blockCacheWords]uint64{e.gen.Load(), e.tag.Load(), e.epoch.Load()}
	for i := range e.pt {
		w[3+i] = e.pt[i].Load()
	}
	return w
}

// TestPublishLineMatchesGeneric holds the store kernel to the Go body: on
// random lines published over random prior contents, both leave every word
// of the entry equal, the generation (gen+2) included.
func TestPublishLineMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var kernel, generic blockCacheEntry
	var pt [BlockBytes]byte
	for i := 0; i < 1000; i++ {
		for j := range kernel.pt {
			kernel.pt[j].Store(rng.Uint64())
			generic.pt[j].Store(rng.Uint64())
		}
		rng.Read(pt[:])
		gen, tag, epoch := rng.Uint64(), rng.Uint64(), rng.Uint64()
		publishLine(&kernel, gen, tag, epoch, &pt)
		publishLineGeneric(&generic, gen, tag, epoch, &pt)
		k, g := entryWords(&kernel), entryWords(&generic)
		if k != g {
			t.Fatalf("line %d: kernel %x, Go body %x", i, k, g)
		}
		if k[0] != gen+2 {
			t.Fatalf("line %d: generation %d after publishing from %d", i, k[0], gen)
		}
	}
}

// TestProbeSpanMatchesGeneric holds the probe kernel to the Go body on
// crafted cache states. Each trial makes a span of 1 to 64 blocks resident
// (even generations, right tags, the cache's epoch) and then spoils one of
// its lines, or none: an odd generation (a writer parked mid-update, which
// exhausts the retry budget), a wrong tag or a stale epoch. Spans start
// anywhere in a 128-line cache, so many wrap past mask. Both paths must
// return the same bytes served and retries, and leave dst equal byte for
// byte; the Go body must serve exactly the prefix before the spoiled line.
func TestProbeSpanMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	c := newBlockCache(128)
	wrapped := 0
	for i := 0; i < 1000; i++ {
		c.epoch.Store(rng.Uint64() | 1)
		for j := range c.entries {
			e := &c.entries[j]
			e.gen.Store(rng.Uint64() &^ 1)
			e.tag.Store(rng.Uint64())
			e.epoch.Store(rng.Uint64())
			for w := range e.pt {
				e.pt[w].Store(rng.Uint64())
			}
		}
		n := 1 + rng.Intn(64)
		if i < 64 {
			n = 1 + i // every length at least once
		}
		blk := rng.Uint64() >> 1
		if blk&c.mask+uint64(n) > c.mask+1 {
			wrapped++
		}
		for j := 0; j < n; j++ {
			e := &c.entries[(blk+uint64(j))&c.mask]
			e.tag.Store(blk + uint64(j) + 1)
			e.epoch.Store(c.epoch.Load())
		}
		spoilAt := rng.Intn(n + 1) // n: nothing spoiled
		wantRetries := uint64(0)
		if spoilAt < n {
			e := &c.entries[(blk+uint64(spoilAt))&c.mask]
			switch rng.Intn(3) {
			case 0:
				e.gen.Add(1)
				wantRetries = seqlockMaxRetries + 1
			case 1:
				e.tag.Add(c.mask + 1)
			case 2:
				e.epoch.Store(c.epoch.Load() - 1)
			}
		}
		kernel := make([]byte, n*BlockBytes+rng.Intn(BlockBytes)) // a partial tail must stay untouched
		rng.Read(kernel)
		generic := bytes.Clone(kernel)
		ks, kr := probeSpan(c, blk, kernel)
		gs, gr := probeSpanGeneric(c, blk, generic)
		if ks != gs || kr != gr || !bytes.Equal(kernel, generic) {
			t.Fatalf("trial %d (blk %d, n %d, spoiled at %d): kernel (%d, %d), Go body (%d, %d), dst equal %v",
				i, blk, n, spoilAt, ks, kr, gs, gr, bytes.Equal(kernel, generic))
		}
		if gs != spoilAt*BlockBytes || gr != wantRetries {
			t.Fatalf("trial %d: served %d retries %d, want %d and %d", i, gs, gr, spoilAt*BlockBytes, wantRetries)
		}
	}
	if wrapped == 0 {
		t.Fatal("no span wrapped past mask")
	}
}

// TestProbeSpanSeqlockHammer runs probeSpan against a writer that keeps
// republishing a span's lines until two readers have each probed the span
// a fixed number of times. Each line alternates between the span's block
// and the block one cache size above it, which shares its slot, and every
// payload is stamped with its block and a version, so a served block that is
// torn, or that carries the other block's plaintext under the span's tag, is
// caught. Under -race probeSpan is the Go body; without it, the kernel.
func TestProbeSpanSeqlockHammer(t *testing.T) {
	const (
		lines  = 16
		first  = 100
		probes = 20000
	)
	c := newBlockCache(64)
	alias := uint64(len(c.entries))
	pt := make([]byte, BlockBytes)
	for j := uint64(0); j < lines; j++ {
		stamp(pt, first+j, 0)
		c.insert(first+j, pt)
	}
	var stop atomic.Bool
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		for v := uint64(1); !stop.Load(); v++ {
			for j := uint64(0); j < lines; j++ {
				blk := first + j
				if v&1 == 1 {
					blk += alias
				}
				stamp(pt, blk, v)
				c.insert(blk, pt)
			}
		}
	}()
	var readers sync.WaitGroup
	var served, retried atomic.Uint64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			dst := make([]byte, lines*BlockBytes)
			for i := 0; i < probes && !t.Failed(); i++ {
				n, retries := probeSpan(c, first, dst)
				served.Add(uint64(n / BlockBytes))
				retried.Add(retries)
				for off := 0; off < n; off += BlockBytes {
					if blk, _, torn := parseStamp(dst[off : off+BlockBytes]); torn || blk != first+uint64(off/BlockBytes) {
						t.Errorf("served block %d: stamp of block %d, torn %v", first+off/BlockBytes, blk, torn)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	<-writer
	t.Logf("%d blocks served, %d retries", served.Load(), retried.Load())
}

// BenchmarkBlockCacheInsert times one install under the writer protocol:
// warm cycles 64 resident lines, cold strides through all 32 768 entries of
// a full-size cache, so each insert writes a line the last pass left.
func BenchmarkBlockCacheInsert(b *testing.B) {
	pt := block(1)
	for _, bc := range []struct {
		name  string
		lines uint64
	}{{"warm", 64}, {"cold", maxBlockCacheEntries}} {
		b.Run(bc.name, func(b *testing.B) {
			c := newBlockCache(maxBlockCacheEntries)
			var blk uint64
			for b.Loop() {
				c.insert(blk, pt)
				if blk++; blk == bc.lines {
					blk = 0
				}
			}
		})
	}
}

// BenchmarkCounterCacheUpdate times the write-back refresh of a resident
// counter image, the commit path's counter-cache work, over a full cache.
func BenchmarkCounterCacheUpdate(b *testing.B) {
	c := newCounterCache(maxCounterCacheEntries)
	img := block(2)
	for i := uint64(0); i < maxCounterCacheEntries; i++ {
		c.insert(i, img)
	}
	var midx uint64
	for b.Loop() {
		c.update(midx, img)
		midx = (midx + 1) % maxCounterCacheEntries
	}
}
