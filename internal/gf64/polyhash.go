package gf64

import "encoding/binary"

// PolyHash returns the eight-word polynomial hash of a 64-byte block,
//
//	c0·pow[0] ⊕ c1·pow[1] ⊕ … ⊕ c7·pow[7]
//
// over the block's little-endian words c0…c7. With pow = h^8, h^7, …, h it
// is the Carter-Wegman hash PolyHash_h of internal/crypto. When CLMUL is
// true it runs as one assembly kernel: eight independent PCLMULQDQ
// products, XORed into one 128-bit sum and reduced once by p(x). Otherwise
// it is the same sum over the bit-serial Mul, which is constant-time but
// slow; callers that hash on the hot path without CLMUL use Tables.
func PolyHash(pow *[8]uint64, block *[64]byte) uint64 {
	if CLMUL {
		return polyHashCLMUL(pow, block)
	}
	return polyHashGeneric(pow, block)
}

// polyHashGeneric is PolyHash as eight bit-serial Muls.
func polyHashGeneric(pow *[8]uint64, block *[64]byte) uint64 {
	var sum uint64
	for i, p := range pow {
		sum ^= Mul(binary.LittleEndian.Uint64(block[8*i:]), p)
	}
	return sum
}
