//go:build !amd64

package crypto

// aesni reports whether the pads and the PRF run on the CPU's AES
// instructions. The assembly kernel exists for amd64 only; elsewhere
// crypto/aes does the work.
const aesni = false

// The kernels are never called when aesni is false; they keep Stream and
// MAC one body on every target.

func expandKey(xk *roundKeys, key *[16]byte) { panic("crypto: no AES-NI kernel") }

func xorPads(xk *roundKeys, dst, src *byte, n int, addr, counter uint64) {
	panic("crypto: no AES-NI kernel")
}

func prfBlock(xk *roundKeys, addr, counter uint64) uint64 { panic("crypto: no AES-NI kernel") }
