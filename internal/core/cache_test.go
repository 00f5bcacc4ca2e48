package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestBlockCacheEntryLayout pins the field offsets blockcache_amd64.s
// hard-codes: a moved field would make publishLine store over the wrong
// word.
func TestBlockCacheEntryLayout(t *testing.T) {
	var e blockCacheEntry
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"gen", unsafe.Offsetof(e.gen), 0},
		{"tag", unsafe.Offsetof(e.tag), 8},
		{"epoch", unsafe.Offsetof(e.epoch), 16},
		{"pt", unsafe.Offsetof(e.pt), 24},
		{"size", unsafe.Sizeof(e), 88},
	} {
		if f.got != f.want {
			t.Errorf("blockCacheEntry %s at %d, publishLine assumes %d", f.name, f.got, f.want)
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
