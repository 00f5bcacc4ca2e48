package authmem

// Hot-path microbenchmarks for the functional engine itself (as opposed to
// the paper-figure harnesses in bench_test.go): per-operation latency and
// allocation counts for the read/write/scrub paths, across every scheme ×
// placement point. EXPERIMENTS.md ("Decided experiments") records the
// numbers these shapes produced when the hot path was first tuned.

import (
	"fmt"
	"math/rand"
	"testing"

	"authmem/internal/ctr"
)

func hotPoints() []struct {
	name      string
	scheme    CounterScheme
	placement MACPlacement
} {
	return []struct {
		name      string
		scheme    CounterScheme
		placement MACPlacement
	}{
		{"mono-inline", Monolithic, InlineMAC},
		{"mono-macecc", Monolithic, MACInECC},
		{"split-macecc", SplitCounter, MACInECC},
		{"delta-inline", DeltaEncoding, InlineMAC},
		{"delta-macecc", DeltaEncoding, MACInECC},
		{"dual-macecc", DualLengthDelta, MACInECC},
	}
}

func hotMemory(b *testing.B, scheme CounterScheme, placement MACPlacement) *Memory {
	b.Helper()
	cfg := DefaultConfig(1 << 20)
	cfg.Scheme = scheme
	cfg.Placement = placement
	cfg.Key = benchKey()
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkHotWrite measures single-block Write over a working set small
// enough to stay in the arena's first chunks.
func BenchmarkHotWrite(b *testing.B) {
	for _, p := range hotPoints() {
		b.Run(p.name, func(b *testing.B) {
			m := hotMemory(b, p.scheme, p.placement)
			buf := make([]byte, BlockSize)
			rand.New(rand.NewSource(1)).Read(buf)
			const blocks = 1024
			b.ReportAllocs()
			b.SetBytes(BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Write(uint64(i%blocks)*BlockSize, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotRead measures steady-state single-block Read of resident
// blocks. The engine read path is required to be allocation-free.
func BenchmarkHotRead(b *testing.B) {
	for _, p := range hotPoints() {
		b.Run(p.name, func(b *testing.B) {
			m := hotMemory(b, p.scheme, p.placement)
			buf := make([]byte, BlockSize)
			rand.New(rand.NewSource(2)).Read(buf)
			const blocks = 1024
			for i := 0; i < blocks; i++ {
				if err := m.Write(uint64(i)*BlockSize, buf); err != nil {
					b.Fatal(err)
				}
			}
			dst := make([]byte, BlockSize)
			b.ReportAllocs()
			b.SetBytes(BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Read(uint64(i%blocks)*BlockSize, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotWriteBlocks measures the batched write path, one group
// (4KB) per operation.
func BenchmarkHotWriteBlocks(b *testing.B) {
	for _, p := range hotPoints() {
		b.Run(p.name, func(b *testing.B) {
			m := hotMemory(b, p.scheme, p.placement)
			span := make([]byte, ctr.GroupBlocks*BlockSize)
			rand.New(rand.NewSource(3)).Read(span)
			const groups = 16
			b.ReportAllocs()
			b.SetBytes(int64(len(span)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i%groups) * uint64(len(span))
				if err := m.WriteBlocks(addr, span); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotReadBlocks measures the batched read path, one group (4KB)
// per operation.
func BenchmarkHotReadBlocks(b *testing.B) {
	for _, p := range hotPoints() {
		b.Run(p.name, func(b *testing.B) {
			m := hotMemory(b, p.scheme, p.placement)
			span := make([]byte, ctr.GroupBlocks*BlockSize)
			rand.New(rand.NewSource(4)).Read(span)
			const groups = 16
			for g := 0; g < groups; g++ {
				if err := m.WriteBlocks(uint64(g)*uint64(len(span)), span); err != nil {
					b.Fatal(err)
				}
			}
			dst := make([]byte, len(span))
			b.ReportAllocs()
			b.SetBytes(int64(len(span)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i%groups) * uint64(len(span))
				if err := m.ReadBlocks(addr, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotScrub measures full-pass patrol scrubbing of a 4MB resident
// region, one shard against four scrubbing concurrently.
func BenchmarkHotScrub(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConfig(4 << 20)
			cfg.Key = benchKey()
			m, err := NewSharded(cfg, shards)
			if err != nil {
				b.Fatal(err)
			}
			span := make([]byte, ctr.GroupBlocks*BlockSize)
			rand.New(rand.NewSource(5)).Read(span)
			for addr := uint64(0); addr < cfg.Size; addr += uint64(len(span)) {
				if err := m.WriteBlocks(addr, span); err != nil {
					b.Fatal(err)
				}
			}
			blocks := int64(m.Stats().Writes)
			b.ReportAllocs()
			b.SetBytes(blocks * BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Scrub(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHotReadZeroAllocs pins the steady-state Read path at zero heap
// allocations per operation for the paper's design point.
func TestHotReadZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(1 << 20)
	cfg.Key = benchKey()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for i := 0; i < 64; i++ {
		if err := m.Write(uint64(i)*BlockSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, BlockSize)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Read(uint64(i%64)*BlockSize, dst); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Read allocates %.1f times per op, want 0", allocs)
	}
}
