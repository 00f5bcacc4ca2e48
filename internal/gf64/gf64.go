// Package gf64 implements arithmetic in the binary Galois field GF(2^64).
//
// The field is realized as GF(2)[x]/(p(x)) with the primitive reduction
// polynomial
//
//	p(x) = x^64 + x^4 + x^3 + x + 1
//
// which is the conventional choice for 64-bit carry-less hashing. Elements
// are represented as uint64 values whose bit i is the coefficient of x^i.
//
// The package underpins the Carter-Wegman MAC in internal/crypto (and its
// test-only reference, internal/mac): a polynomial hash over GF(2^64) is a
// one-cycle operation in the hardware the paper assumes (Intel SGX's
// multiplier). On amd64 PolyHash runs on the CPU's carry-less multiplier
// (PCLMULQDQ), the closest software gets to that; Table is the portable
// fallback where the instruction is missing, and the bit-serial Mul and
// MulWide are the constant-time reference both are held to.
package gf64

// Poly is the low 64 bits of the reduction polynomial x^64 + x^4 + x^3 + x + 1.
// The x^64 term is implicit.
const Poly uint64 = 0x1B

// Add returns a + b in GF(2^64). Addition is XOR; it is its own inverse.
func Add(a, b uint64) uint64 { return a ^ b }

// Mul returns a * b in GF(2^64), reducing by Poly.
//
// The implementation is a branch-free shift-and-add ("Russian peasant")
// carry-less multiply. It runs in constant time with respect to the values
// of a and b, which matters because one operand is a secret MAC key.
func Mul(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 64; i++ {
		// Conditionally add a when the low bit of b is set.
		r ^= a & -(b & 1)
		b >>= 1
		// Multiply a by x, reducing modulo p(x) when the x^63 term
		// shifts out.
		hi := a >> 63
		a = (a << 1) ^ (Poly & -hi)
	}
	return r
}

// MulWide returns the 128-bit carry-less product of a and b without
// reduction, as (hi, lo). It is used by tests to cross-check Mul against an
// independent reduce step, and by callers that need raw CLMUL semantics.
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

// Pow returns a^n in GF(2^64) by square-and-multiply.
func Pow(a uint64, n uint64) uint64 {
	var r uint64 = 1
	for n > 0 {
		if n&1 == 1 {
			r = Mul(r, a)
		}
		a = Mul(a, a)
		n >>= 1
	}
	return r
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
