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
// The package underpins the Carter-Wegman MAC in internal/crypto: a
// polynomial hash over GF(2^64) is a one-cycle operation in the hardware the
// paper assumes (Intel SGX's multiplier). On amd64 PolyHash runs on the
// CPU's carry-less multiplier (PCLMULQDQ), the closest software gets to
// that; Table is the portable fallback where the instruction is missing,
// and the bit-serial Mul is the constant-time reference both are held to.
// The second field implementation the tests check Mul against (MulWide and
// Reduce) and the helpers only tests call (Add, Inv, Horner) live in
// reference_test.go.
package gf64

// Poly is the low 64 bits of the reduction polynomial x^64 + x^4 + x^3 + x + 1.
// The x^64 term is implicit.
const Poly uint64 = 0x1B

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
