package gf64

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestPolyHashMatchesWideReduce holds PolyHash (the PCLMULQDQ kernel where
// CLMUL is true) to ⊕ MulWide followed by one Reduce, and to
// polyHashGeneric, the XOR of eight bit-serial Muls, on edge-value words and
// powers and on random draws.
func TestPolyHashMatchesWideReduce(t *testing.T) {
	t.Logf("CLMUL = %v", CLMUL)
	check := func(pow *[8]uint64, block *[64]byte) {
		t.Helper()
		got := PolyHash(pow, block)
		var hi, lo uint64
		for i, p := range pow {
			h, l := MulWide(binary.LittleEndian.Uint64(block[8*i:]), p)
			hi ^= h
			lo ^= l
		}
		if want := Reduce(hi, lo); got != want {
			t.Fatalf("PolyHash(%x, %x) = %#x, ⊕MulWide+Reduce %#x", *pow, *block, got, want)
		}
		if sum := polyHashGeneric(pow, block); got != sum { // so polyHashGeneric is held to the wide path too
			t.Fatalf("PolyHash(%x, %x) = %#x, ⊕Mul %#x", *pow, *block, got, sum)
		}
	}
	var pow [8]uint64
	var block [64]byte
	for _, p := range edgeValues {
		for _, c := range edgeValues {
			for i := range pow {
				pow[i] = p
				binary.LittleEndian.PutUint64(block[8*i:], c)
			}
			check(&pow, &block)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10_000; trial++ {
		h := rng.Uint64()
		if trial%2 == 0 {
			h |= 1 << 63 // the top product bits set, so both folds fire
		}
		for i := range pow {
			pow[i] = Pow(h, uint64(8-i))
		}
		rng.Read(block[:])
		check(&pow, &block)
	}
}

func BenchmarkPolyHash(b *testing.B) {
	var pow [8]uint64
	for i := range pow {
		pow[i] = Pow(0xABCDEF0123456789, uint64(8-i))
	}
	var block [64]byte
	for i := range block {
		block[i] = byte(i * 37)
	}
	b.ReportAllocs()
	var acc uint64
	for i := 0; i < b.N; i++ {
		block[0] = byte(acc)
		acc ^= PolyHash(&pow, &block)
	}
	sink = acc
}
