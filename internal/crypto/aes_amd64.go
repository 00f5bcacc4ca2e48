package crypto

// aesni reports whether the pads and the PRF run on the CPU's AES
// instructions (AES-NI, CPUID.1:ECX bit 25). It is read once, at package
// init.
var aesni = hasAESNI()

// hasAESNI executes CPUID leaf 1 and returns ECX bit 25.
func hasAESNI() bool

// expandKey writes the AES-128 schedule of key into xk, built with
// AESKEYGENASSIST. The caller checks aesni.
//
//go:noescape
func expandKey(xk *roundKeys, key *[16]byte)

// xorPads XORs the pads of n ≥ 1 contiguous blocks (block i at addr + 64·i,
// all at counter) into the n·64 bytes at src and stores them at dst, which
// may alias src exactly. The caller checks aesni.
//
//go:noescape
func xorPads(xk *roundKeys, dst, src *byte, n int, addr, counter uint64)

// prfBlock is one AES block over LE64(addr) ‖ LE64(counter), low 64 bits.
// The caller checks aesni.
//
//go:noescape
func prfBlock(xk *roundKeys, addr, counter uint64) uint64
