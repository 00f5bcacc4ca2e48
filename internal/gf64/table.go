package gf64

import "math/bits"

// This file implements table-driven multiplication by a fixed field point —
// the GHASH trick adapted to GF(2^64). A bit-serial Mul costs 64 dependent
// shift/XOR iterations; when one operand is fixed (the secret MAC hash
// point, or a precomputed power of it) the product is linear in the other
// operand, so it can be assembled from precomputed partial products:
//
//	a * x = XOR over w of ((a >> 8w) & 0xFF) << 8w * x
//
// Eight 8-bit windows, each with 256 possible values, give an 8x256-entry
// table (16KB) built once per key. A table multiply is then 8 loads + 7
// XORs with no data-dependent branches on the *variable* operand; the table
// itself is key-dependent, which is the same leakage shape as a hardware
// GHASH multiplier's precomputed key powers.
//
// The bit-serial Mul in gf64.go remains the constant-time reference oracle;
// equivalence is proven in table_test.go.

// windows is the number of 8-bit windows in a 64-bit operand.
const windows = 8

// Table holds the precomputed partial products of one fixed multiplicand.
type Table struct {
	// win[w][v] = (v << 8w) * x for the fixed point x.
	win [windows][256]uint64
}

// NewTable precomputes the windowed multiplication table for the fixed
// point x, so that NewTable(x).Mul(a) == Mul(a, x) for every a.
func NewTable(x uint64) *Table {
	t := new(Table)
	p := x // x * x^(8w+b) at window w, bit b
	for w := range t.win {
		// Build the window from its doubling basis: entry 1<<b is
		// x * x^(8w+b); every other entry is the XOR of the basis
		// entries of its set bits, by linearity of carry-less
		// multiplication. Entry v is entry v-without-its-lowest-set-bit
		// plus one basis entry, so each costs one XOR.
		var basis [8]uint64
		for b := range basis {
			basis[b] = p
			p = mulX(p)
		}
		tw := &t.win[w]
		for v := 1; v < 256; v++ {
			tw[v] = tw[v&(v-1)] ^ basis[bits.TrailingZeros(uint(v))]
		}
	}
	return t
}

// mulX multiplies a field element by x (a single doubling step).
func mulX(a uint64) uint64 {
	hi := a >> 63
	return (a << 1) ^ (Poly & -hi)
}

// Mul returns a times the table's fixed point.
func (t *Table) Mul(a uint64) uint64 {
	return t.win[0][a&0xFF] ^
		t.win[1][a>>8&0xFF] ^
		t.win[2][a>>16&0xFF] ^
		t.win[3][a>>24&0xFF] ^
		t.win[4][a>>32&0xFF] ^
		t.win[5][a>>40&0xFF] ^
		t.win[6][a>>48&0xFF] ^
		t.win[7][a>>56]
}
