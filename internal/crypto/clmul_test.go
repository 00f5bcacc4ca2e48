package crypto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"authmem/internal/gf64"
)

// macPair returns the MAC NewMAC builds from material (the CLMUL kernel on
// a CPU that has it) and a copy of it switched to the table path.
func macPair(tb testing.TB, material []byte) (clmul, table *MAC) {
	tb.Helper()
	m, err := NewMAC(material)
	if err != nil {
		tb.Fatal(err)
	}
	if !gf64.CLMUL {
		tb.Skip("no carry-less multiplier: NewMAC runs the table path, which the conformance suite covers")
	}
	if m.h1 != nil || m.h2 != nil {
		tb.Fatal("NewMAC built tables on a CLMUL CPU")
	}
	t := *m
	t.buildTables()
	return m, &t
}

// TestCLMULMatchesTables runs the PCLMULQDQ kernel and the two-chain table
// fallback on the same key and requires equal tags: random blocks, all-ones
// words, single-bit blocks, a hash point with bit 63 set (so both reduction
// folds fire) and the zero hash point that NewMAC replaces with 1.
func TestCLMULMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	material := make([]byte, 24)
	var points []uint64
	for i := 0; i < 8; i++ {
		points = append(points, rng.Uint64())
	}
	points = append(points, 0, 1, 1<<63, 1<<63|1, ^uint64(0), 0xFEDCBA9876543210|1<<63)

	block := make([]byte, BlockSize)
	for _, h := range points {
		binary.LittleEndian.PutUint64(material[:8], h)
		rng.Read(material[8:])
		clmul, table := macPair(t, material)
		if h == 0 && clmul.h != 1 {
			t.Fatalf("hash point 0 became %#x, want 1", clmul.h)
		}
		check := func(addr, counter uint64) {
			t.Helper()
			got, err := clmul.Tag(block, addr, counter)
			if err != nil {
				t.Fatal(err)
			}
			want, err := table.Tag(block, addr, counter)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("h=%#x block %x: CLMUL tag %#x, table tag %#x", h, block, got, want)
			}
			if ok, err := table.Verify(block, addr, counter, got); err != nil || !ok {
				t.Fatalf("h=%#x: table path rejects the CLMUL tag (%v, %v)", h, ok, err)
			}
		}
		clear(block)
		check(0, 0)
		copy(block, bytes.Repeat([]byte{0xFF}, BlockSize))
		check(64, 1<<56-1)
		for bit := 0; bit < BlockSize*8; bit += 7 {
			clear(block)
			block[bit/8] = 1 << (bit % 8)
			check(uint64(bit)*64, uint64(bit))
		}
		for i := 0; i < 500; i++ {
			rng.Read(block)
			check(rng.Uint64()&^63, rng.Uint64()&(1<<56-1))
		}
	}
}

// BenchmarkMACTag is one tag — the cost every seal, verified read, tree
// node check and MAC-in-ECC lane check pays — on each hash path.
func BenchmarkMACTag(b *testing.B) {
	block := make([]byte, BlockSize)
	for i := range block {
		block[i] = byte(i * 37)
	}
	benchPaths(b, func(b *testing.B, m *MAC) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			block[0] = byte(acc)
			tag, _ := m.Tag(block, uint64(i)*BlockSize, 7)
			acc ^= tag
		}
		sinkTag = acc
	})
}

// BenchmarkMACTagBatch tags one 64-block counter group, the span a group
// re-encryption or a group-sized write seals; ns/op is per group.
func BenchmarkMACTagBatch(b *testing.B) {
	const n = 64
	cts := make([]byte, n*BlockSize)
	for i := range cts {
		cts[i] = byte(i * 37)
	}
	tags := make([]uint64, n)
	benchPaths(b, func(b *testing.B, m *MAC) {
		b.SetBytes(int64(len(cts)))
		for i := 0; i < b.N; i++ {
			if err := m.TagBatch(tags, cts, uint64(i)*n*BlockSize, 7); err != nil {
				b.Fatal(err)
			}
		}
		sinkTag = tags[n-1]
	})
}

// benchPaths runs fn as a "clmul" and a "table" sub-benchmark over MACs
// with the same key.
func benchPaths(b *testing.B, fn func(*testing.B, *MAC)) {
	material := make([]byte, 24)
	for i := range material {
		material[i] = byte(i*29 + 3)
	}
	m, err := NewMAC(material)
	if err != nil {
		b.Fatal(err)
	}
	table := *m
	table.buildTables()
	b.Run("clmul", func(b *testing.B) {
		if m.h1 != nil {
			b.Skip("no carry-less multiplier")
		}
		b.ReportAllocs()
		fn(b, m)
	})
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		fn(b, &table)
	})
}

var sinkTag uint64
