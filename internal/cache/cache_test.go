package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small(t testing.TB) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2}) // 8 sets
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{SizeBytes: 1024, LineBytes: 63, Ways: 2},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) should fail", cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad geometry")
		}
	}()
	MustNew(Config{SizeBytes: 1, LineBytes: 64, Ways: 1})
}

func TestTable1Geometries(t *testing.T) {
	// All of Table 1's caches must construct.
	for _, cfg := range []Config{
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},  // L1 + metadata cache
		{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8}, // L2
		{SizeBytes: 10 << 20, LineBytes: 64, Ways: 16}, // L3 10MB
	} {
		if _, err := New(cfg); err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access should miss")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access should hit")
	}
	if r := c.Access(0x1038, false); !r.Hit {
		t.Fatal("same line, different offset should hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 8 sets, 2 ways; same-set stride = 8*64 = 512
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	r := c.Access(d, false)
	if !r.Evicted || r.EvictedAddr != b {
		t.Fatalf("want eviction of %#x, got %+v", b, r)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := small(t)
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false)
	if !r.Evicted || !r.EvictedDirty || r.EvictedAddr != 0 {
		t.Fatalf("want dirty eviction of 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.Access(0, true) // hit, marks dirty
	c.Access(512, false)
	r := c.Access(1024, false)
	if !r.EvictedDirty {
		t.Fatal("line written on a hit must be evicted dirty")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.Access(512, false) // set full; 0 is LRU
	if !c.Probe(0) {
		t.Fatal("probe should find 0")
	}
	// Probe must not refresh 0's LRU position: filling evicts 0.
	r := c.Access(1024, false)
	if r.EvictedAddr != 0 {
		t.Fatalf("probe disturbed LRU: evicted %#x", r.EvictedAddr)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("probe affected stats: %+v", st)
	}
}

func TestFlush(t *testing.T) {
	c := small(t)
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	if d := c.Flush(); d != 2 {
		t.Fatalf("flush dropped %d dirty lines, want 2", d)
	}
	for _, a := range []uint64{0, 64, 128} {
		if c.Probe(a) {
			t.Fatalf("%#x survived flush", a)
		}
	}
}

func TestEvictedAddrRoundTrips(t *testing.T) {
	// The reported eviction address must map back to the same set/tag:
	// re-accessing it must evict the newly filled line, not a third one.
	f := func(addrSeed uint64) bool {
		c := MustNew(Config{SizeBytes: 4096, LineBytes: 64, Ways: 1})
		addr := addrSeed &^ 63
		c.Access(addr, false)
		conflict := addr + 4096 // same set, different tag (64 sets * 64B)
		r := c.Access(conflict, false)
		return r.Evicted && r.EvictedAddr == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetFitsHasNoEvictions(t *testing.T) {
	c := MustNew(Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	// Touch exactly the capacity once, then re-touch: all hits.
	for a := uint64(0); a < 32<<10; a += 64 {
		c.Access(a, false)
	}
	warm := c.Stats()
	for a := uint64(0); a < 32<<10; a += 64 {
		if r := c.Access(a, false); !r.Hit {
			t.Fatalf("address %#x missed on re-touch", a)
		}
	}
	if st := c.Stats(); st.Misses != warm.Misses || st.Evictions != 0 {
		t.Fatalf("stats %+v after warm-up %+v", st, warm)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("idle hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
}

func TestRandomizedNoDuplicateLines(t *testing.T) {
	// Property: a line address never occupies two ways at once.
	c := MustNew(Config{SizeBytes: 2048, LineBytes: 64, Ways: 4})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(64)) * 64
		c.Access(addr, rng.Intn(2) == 0)
	}
	for s := range c.sets {
		seen := map[uint64]bool{}
		for _, l := range c.sets[s] {
			if !l.valid {
				continue
			}
			if seen[l.tag] {
				t.Fatalf("set %d holds tag %#x twice", s, l.tag)
			}
			seen[l.tag] = true
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := MustNew(Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	c.Access(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := MustNew(Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*64, false)
	}
}
