package gf64

// The test-only half of the field: a second multiplication (the unreduced
// 128-bit product and its reduction by Poly) that Mul and PolyHash are held
// to, and the helpers no production code calls. internal/crypto's tests
// spell their own Horner loop over Mul as the MAC reference.

// Add returns a + b in GF(2^64). Addition is XOR; it is its own inverse.
func Add(a, b uint64) uint64 { return a ^ b }

// MulWide returns the 128-bit carry-less product of a and b without
// reduction, as (hi, lo). Followed by Reduce it is the independent second
// multiplication Mul and PolyHash are checked against.
//
// The loop is the mask-accumulate form of the schoolbook product: the
// 128-bit value (ahi, alo) tracks a << i across iterations with two
// constant-distance shifts, and a branch-free mask accumulates it whenever
// bit i of b is set. Unlike the earlier variable-shift formulation there is
// no per-iteration shift-by-i, and the iteration count is fixed, keeping
// the routine constant-time in both operands.
func MulWide(a, b uint64) (hi, lo uint64) {
	var ahi, alo uint64 = 0, a
	for i := 0; i < 64; i++ {
		mask := -(b & 1)
		lo ^= alo & mask
		hi ^= ahi & mask
		b >>= 1
		ahi = ahi<<1 | alo>>63
		alo <<= 1
	}
	return hi, lo
}

// Reduce folds a 128-bit carry-less product (hi, lo) into GF(2^64) modulo
// Poly. Combined with MulWide it is equivalent to Mul.
func Reduce(hi, lo uint64) uint64 {
	// Each set bit i of hi contributes x^(64+i) = x^i * p'(x) where
	// p'(x) = x^4+x^3+x+1 (the low part of the reduction polynomial).
	// Folding hi once can carry back into bits >= 64 (at most bit 67),
	// so fold twice.
	for j := 0; j < 2; j++ {
		var carry uint64
		// hi * (x^4 + x^3 + x + 1), tracking overflow back into hi.
		l0 := lo ^ hi ^ (hi << 1) ^ (hi << 3) ^ (hi << 4)
		carry = (hi >> 63) ^ (hi >> 61) ^ (hi >> 60)
		lo = l0
		hi = carry
	}
	return lo
}

// Inv returns the multiplicative inverse of a in GF(2^64).
// Inv(0) is defined as 0 for convenience (0 has no inverse).
//
// The inverse is a^(2^64-2) by Lagrange's theorem on the multiplicative
// group of order 2^64-1.
func Inv(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	// 2^64 - 2 = 0xFFFFFFFFFFFFFFFE
	return Pow(a, 0xFFFFFFFFFFFFFFFE)
}

// Horner evaluates the polynomial
//
//	m[0]*x^n + m[1]*x^(n-1) + ... + m[n-1]*x
//
// at point x over GF(2^64), where n = len(m). This is the standard
// polynomial-hash shape used by Carter-Wegman MACs (note the trailing
// factor of x, which prevents length-extension of the last block).
func Horner(x uint64, m []uint64) uint64 {
	var acc uint64
	for _, v := range m {
		acc = Mul(acc^v, x)
	}
	return acc
}
