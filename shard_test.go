package authmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func shardTestConfig(t testing.TB, size uint64) Config {
	t.Helper()
	cfg := DefaultConfig(size)
	cfg.Key = bytes.Repeat([]byte{0x5A}, KeySize)
	return cfg
}

func newShardedMem(t testing.TB, size uint64, shards int) *Memory {
	t.Helper()
	return newMemShards(t, shardTestConfig(t, size), shards)
}

func TestShardedMemoryGeometry(t *testing.T) {
	m := newShardedMem(t, 1<<20, 4)
	if m.Shards() != 4 || m.ShardSize() != 1<<18 {
		t.Fatalf("geometry: %d shards of %d bytes", m.Shards(), m.ShardSize())
	}
	if m.ShardOf(0) != 0 || m.ShardOf(1<<18) != 1 || m.ShardOf((1<<20)-BlockSize) != 3 {
		t.Fatal("ShardOf misroutes")
	}
	if _, err := NewSharded(shardTestConfig(t, 1<<20), 3); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	if _, err := NewSharded(Config{}, 1); err == nil {
		t.Fatal("invalid config should fail")
	}
}

// TestShardedReadWriteAtCrossShard drives unaligned byte-granular I/O
// straddling shard boundaries through the io.ReaderAt/WriterAt surface.
func TestShardedReadWriteAtCrossShard(t *testing.T) {
	m := newShardedMem(t, 1<<20, 4)
	rng := rand.New(rand.NewSource(3))
	boundary := int64(m.ShardSize())

	cases := []struct {
		off int64
		n   int
	}{
		{boundary - 5, 10},                            // tiny unaligned straddle
		{boundary - 13, 4096},                         // unaligned, one boundary
		{boundary - BlockSize, BlockSize * 2},         // aligned straddle
		{boundary*2 - 777, int(m.ShardSize()) + 1234}, // crosses two boundaries, unaligned both ends
		{7, 3 * int(m.ShardSize())},                   // nearly the whole region, unaligned start
	}
	for _, c := range cases {
		src := make([]byte, c.n)
		rng.Read(src)
		if n, err := m.WriteAt(src, c.off); err != nil || n != c.n {
			t.Fatalf("WriteAt(%d, +%d) = %d, %v", c.off, c.n, n, err)
		}
		dst := make([]byte, c.n)
		if n, err := m.ReadAt(dst, c.off); err != nil || n != c.n {
			t.Fatalf("ReadAt(%d, +%d) = %d, %v", c.off, c.n, n, err)
		}
		if !bytes.Equal(src, dst) {
			t.Fatalf("bytes [%d, +%d) corrupted across shards", c.off, c.n)
		}
	}

	// Unaligned writes must not disturb their neighbours: re-read one byte
	// on each side of the tiny straddle above.
	probe := make([]byte, 1)
	if _, err := m.ReadAt(probe, boundary-6); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMidSpanFailurePropagates tampers a block inside a cross-shard
// span and requires the global failing address from both the block-span and
// byte-granular paths.
func TestShardedMidSpanFailurePropagates(t *testing.T) {
	m := newShardedMem(t, 1<<20, 4)
	span := make([]byte, 4*int(m.ShardSize())-2*BlockSize)
	for i := range span {
		span[i] = byte(i)
	}
	start := int64(BlockSize)
	if _, err := m.WriteAt(span, start); err != nil {
		t.Fatal(err)
	}
	target := m.ShardSize()*2 + 7*BlockSize
	for _, bit := range []int{9, 200, 333} { // beyond the 2-bit ECC budget
		if err := m.FlipDataBit(target, bit); err != nil {
			t.Fatal(err)
		}
	}
	var ie *IntegrityError
	err := m.ReadBlocks(BlockSize, make([]byte, len(span)-int(start)%BlockSize))
	if !errors.As(err, &ie) || ie.Addr != target {
		t.Fatalf("ReadBlocks over tampered block: %v (want IntegrityError at %#x)", err, target)
	}
	if _, err := m.ReadAt(make([]byte, len(span)), start); !errors.As(err, &ie) {
		t.Fatalf("ReadAt over tampered block: %v", err)
	}
	// A fresh write through the span path releases the block.
	if err := m.WriteBlocks(target, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(target, make([]byte, BlockSize)); err != nil {
		t.Fatalf("read after overwrite: %v", err)
	}
}

// TestShardedWithShard: the one-shard view WithShard hands out and the device
// it came from never disagree — a write through either is read back through
// the other at i*ShardSize() + local, and a tree-node flip through the view
// fails the parent's read at the global address.
func TestShardedWithShard(t *testing.T) {
	cfg := shardTestConfig(t, 1<<20)
	cfg.OnChipTreeBytes = 64 // leave tree levels off chip to attack
	m, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const shard = 3
	local := uint64(2 * BlockSize)
	global := shard*m.ShardSize() + local
	viaParent := bytes.Repeat([]byte{0xA1}, BlockSize)
	viaView := bytes.Repeat([]byte{0xB2}, BlockSize)
	got := make([]byte, BlockSize)

	if err := m.Write(global, viaParent); err != nil {
		t.Fatal(err)
	}
	m.WithShard(shard, func(view *Memory) {
		if view.Shards() != 1 || view.Size() != m.ShardSize() {
			t.Fatalf("view is %d shards of %d bytes", view.Shards(), view.Size())
		}
		if _, err := view.Read(local, got); err != nil || !bytes.Equal(got, viaParent) {
			t.Fatalf("parent's write read through the view: %v", err)
		}
		if err := view.Write(local+BlockSize, viaView); err != nil {
			t.Fatal(err)
		}
		if view.Stats().Writes != 2 {
			t.Fatal("view does not see the shard's own counters")
		}
	})
	if _, err := m.Read(global+BlockSize, got); err != nil || !bytes.Equal(got, viaView) {
		t.Fatalf("view's write read through the parent: %v", err)
	}
	if m.Stats().Writes != 2 {
		t.Fatal("per-shard stats not merged")
	}

	// Land the deferred tree updates first: a still-dirty leaf's path would
	// be recomputed from trusted state, overwriting the flip.
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	m.WithShard(shard, func(view *Memory) {
		if err := view.FlipTreeNodeBit(0, 0, 0, 3); err != nil {
			t.Fatal(err)
		}
		var ie *IntegrityError
		if _, err := view.Read(local, got); !errors.As(err, &ie) || ie.Addr != local {
			t.Fatalf("view read over a flipped tree node: %v (want IntegrityError at %#x)", err, local)
		}
	})
	var ie *IntegrityError
	if _, err := m.Read(global, got); !errors.As(err, &ie) || ie.Addr != global {
		t.Fatalf("parent read over a tree node flipped through the view: %v (want IntegrityError at %#x)", err, global)
	}
	if _, err := m.Read(local, got); err != nil {
		t.Fatalf("the flip leaked into shard 0: %v", err)
	}
}

// TestCrossShardRelocationNeverVerifies: shard isolation is cryptographic.
// Two shards are given identical write histories, so block, counter and
// counter-block image agree bit for bit at the same local address; bits taken
// from shard 0 and planted at that address in shard 1 — ciphertext and MAC
// alone (Splice), or with the counter block too (Replay through the shard's
// view) — still never verify, because each shard's keys are derived from its
// position.
func TestCrossShardRelocationNeverVerifies(t *testing.T) {
	for _, scheme := range []CounterScheme{Monolithic, DeltaEncoding} {
		for _, placement := range []MACPlacement{MACInECC, InlineMAC} {
			plant := map[string]func(m *Memory, snap BlockSnapshot, addr uint64) error{
				"splice": func(m *Memory, snap BlockSnapshot, addr uint64) error {
					return m.Splice(snap, addr+m.ShardSize())
				},
				"replay": func(m *Memory, snap BlockSnapshot, _ uint64) (err error) {
					m.WithShard(1, func(view *Memory) { err = view.Replay(snap) })
					return err
				},
			}
			for name, attack := range plant {
				m := newMemShards(t, testConfig(scheme, placement), 2)
				const addr = 5 * BlockSize
				data := make([]byte, BlockSize)
				for i := 0; i < 3; i++ { // the same history in both shards
					data[0] = byte(i)
					for _, a := range []uint64{addr, addr + m.ShardSize()} {
						if err := m.Write(a, data); err != nil {
							t.Fatal(err)
						}
					}
				}
				snap, err := m.Snapshot(addr)
				if err != nil {
					t.Fatal(err)
				}
				if err := attack(m, snap, addr); err != nil {
					t.Fatal(err)
				}
				target := addr + m.ShardSize()
				dst := make([]byte, BlockSize)
				for _, read := range []func() error{
					func() error { _, err := m.Read(target, dst); return err },
					func() error { return m.ReadBlocks(target, dst) },
					func() error { _, err := m.ReadAt(dst[:8], int64(target)+3); return err },
				} {
					var ie *IntegrityError
					if err := read(); !errors.As(err, &ie) || ie.Addr != target {
						t.Fatalf("%v/%v %s: relocated block read gave %v, want IntegrityError at %#x", scheme, placement, name, err, target)
					}
				}
				if _, err := m.Read(addr, dst); err != nil || !bytes.Equal(dst, data) {
					t.Fatalf("%v/%v %s: the source block was disturbed: %v", scheme, placement, name, err)
				}
			}
		}
	}
}

// TestShardedZeroAllocObservability: Stats, QuarantineCount, and the empty
// QuarantineList must not allocate — observability shouldn't tax traffic.
func TestShardedZeroAllocObservability(t *testing.T) {
	forShards(t, zeroAllocObservability)
}

func zeroAllocObservability(t *testing.T, shards int) {
	m := newShardedMem(t, 1<<20, shards)
	if err := m.Write(0, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if m.QuarantineList() != nil {
			t.Fatal("unexpected quarantine")
		}
	}); avg != 0 {
		t.Fatalf("empty QuarantineList allocates %.1f objects/op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.QuarantineCount() }); avg != 0 {
		t.Fatalf("QuarantineCount allocates %.1f objects/op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.Stats() }); avg != 0 {
		t.Fatalf("Stats allocates %.1f objects/op", avg)
	}

}

// BenchmarkShardedStats guards the merge-on-read observability cost.
func BenchmarkShardedStats(b *testing.B) {
	m := newShardedMem(b, 1<<20, 4)
	if err := m.Write(0, make([]byte, BlockSize)); err != nil {
		b.Fatal(err)
	}
	b.Run("stats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Stats()
		}
	})
	b.Run("quarantine-list-empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.QuarantineList()
		}
	})
}

// TestShardedMemoryConcurrent exercises the public surface from many
// goroutines (meaningful under -race).
func TestShardedMemoryConcurrent(t *testing.T) {
	m := newShardedMem(t, 1<<20, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 300)
			for i := 0; i < 200; i++ {
				off := int64(rng.Intn(1<<20 - len(buf)))
				if w%2 == 0 {
					rng.Read(buf)
					if _, err := m.WriteAt(buf, off); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := m.ReadAt(buf, off); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Stats().IntegrityFailures != 0 {
		t.Fatal("integrity failures under clean concurrent traffic")
	}
}

// TestSingleShardConcurrentUse shares a one-shard Memory — one engine
// behind one lock, the single-controller configuration — between goroutines
// hammering disjoint regions: every read must return the goroutine's own
// last write, and no access may be lost from the counters. Run under -race.
func TestSingleShardConcurrentUse(t *testing.T) {
	m := newShardedMem(t, 1<<20, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 128 * BlockSize
			buf := make([]byte, BlockSize)
			dst := make([]byte, BlockSize)
			for i := 0; i < 200; i++ {
				addr := base + uint64(i%128)*BlockSize
				buf[0], buf[1] = byte(g), byte(i)
				if err := m.Write(addr, buf); err != nil {
					errs <- err
					return
				}
				if _, err := m.Read(addr, dst); err != nil {
					errs <- err
					return
				}
				if dst[0] != byte(g) || dst[1] != byte(i) {
					errs <- fmt.Errorf("goroutine %d: stale read", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Writes != 8*200 || st.Reads != 8*200 {
		t.Fatalf("stats %+v", st)
	}
}

// TestShardedSpanOpsAllocateNothing: a span inside one shard — every span the
// gated workloads issue — runs under that shard's lock directly: WriteBlocks
// and a cold ReadBlocks (verify, decrypt, cache fill) allocate nothing. A
// span over a shard boundary still fans out and still round-trips.
func TestShardedSpanOpsAllocateNothing(t *testing.T) {
	const size, shards, spans = 1 << 20, 4, 512
	m := newShardedMem(t, size, shards)
	span := make([]byte, 4*BlockSize)
	for i := range span {
		span[i] = byte(i)
	}
	next := uint64(0)
	write := func() {
		if err := m.WriteBlocks(next%spans*uint64(len(span)), span); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < spans; i++ {
		write()
	}
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Fatalf("WriteBlocks inside one shard allocates %.2f objects/op", avg)
	}

	// A resumed memory starts with cold caches: each span below is read
	// once, so every read takes the shard lock and verifies stored bits.
	var img bytes.Buffer
	root, err := m.Persist(&img)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ResumeSharded(shardTestConfig(t, size), shards, &img, &root)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(span))
	next = 0
	avg := testing.AllocsPerRun(200, func() {
		if err := cold.ReadBlocks(next*uint64(len(dst)), dst); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg != 0 {
		t.Fatalf("cold ReadBlocks inside one shard allocates %.2f objects/op", avg)
	}
	if !bytes.Equal(dst, span) {
		t.Fatal("cold span read back wrong")
	}
	if st := cold.Stats(); st.SlowPathReads != next*4 || st.LockFreeHits != 0 {
		t.Fatalf("the %d span reads were not all cold: %d slow-path blocks, %d lock-free hits", next, st.SlowPathReads, st.LockFreeHits)
	}

	boundary := m.ShardSize() - 2*BlockSize
	if err := m.WriteBlocks(boundary, span); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadBlocks(boundary, dst); err != nil || !bytes.Equal(dst, span) {
		t.Fatalf("span over a shard boundary: %v", err)
	}
}

// TestTryBlocksFacade drives TryReadBlocks / TryWriteBlocks through the
// public surface, for shards in {1, 4}, against a shadow of the plaintext.
// While WithShard holds a shard, a span that needs its lock is refused and
// changes nothing — image, statistics and dirty set are compared — and a
// span crossing shards is refused whatever is held. Otherwise the calls
// produce what ReadBlocks / WriteBlocks do.
func TestTryBlocksFacade(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := newShardedMem(t, 1<<20, shards)
			m.EnableDeltaTracking()
			shadow := make([]byte, m.Size())
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			for i := 0; i < 2000; i++ {
				n := uint64(1+rng.Intn(8)) * BlockSize
				addr := uint64(rng.Intn(int(m.Size()-n)/BlockSize)) * BlockSize
				crosses := m.ShardOf(addr) != m.ShardOf(addr+n-1)
				if i%3 == 0 {
					src := make([]byte, n)
					rng.Read(src)
					done, err := m.TryWriteBlocks(addr, src)
					if err != nil || done == crosses {
						t.Fatalf("write %#x+%d (crosses=%v): (%v, %v)", addr, n, crosses, done, err)
					}
					if !done {
						err = m.WriteBlocks(addr, src)
					}
					if err != nil {
						t.Fatal(err)
					}
					copy(shadow[addr:], src)
					continue
				}
				dst := make([]byte, n)
				done, err := m.TryReadBlocks(addr, dst)
				if err != nil || done == crosses {
					t.Fatalf("read %#x+%d (crosses=%v): (%v, %v)", addr, n, crosses, done, err)
				}
				if !done {
					err = m.ReadBlocks(addr, dst)
				}
				if err != nil || !bytes.Equal(dst, shadow[addr:addr+n]) {
					t.Fatalf("read %#x+%d: err %v, equal %v", addr, n, err, bytes.Equal(dst, shadow[addr:addr+n]))
				}
			}

			buf := make([]byte, 2*BlockSize)
			if err := m.WriteBlocks(0, buf); err != nil {
				t.Fatal(err)
			}
			var before bytes.Buffer
			if _, err := m.Persist(&before); err != nil {
				t.Fatal(err)
			}
			stats, dirty := m.Stats(), m.DirtyGroups()
			m.WithShard(0, func(view *Memory) {
				// Evicted through the view so the read below needs the lock.
				if err := view.FlipDataBit(0, 5); err != nil {
					t.Fatal(err)
				}
				if done, err := m.TryReadBlocks(0, buf); done || err != nil {
					t.Errorf("read under a held shard: (%v, %v), want (false, nil)", done, err)
				}
				if done, err := m.TryWriteBlocks(0, buf); done || err != nil {
					t.Errorf("write under a held shard: (%v, %v), want (false, nil)", done, err)
				}
				if err := view.FlipDataBit(0, 5); err != nil { // undo
					t.Fatal(err)
				}
			})
			if got := m.Stats(); got != stats {
				t.Errorf("refused calls counted something:\n got %+v\nwant %+v", got, stats)
			}
			if got := m.DirtyGroups(); got != dirty {
				t.Errorf("dirty groups %d -> %d across refused calls", dirty, got)
			}
			var after bytes.Buffer
			if _, err := m.Persist(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Error("stored state changed across refused calls")
			}
		})
	}
}
