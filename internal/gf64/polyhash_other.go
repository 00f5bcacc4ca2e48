//go:build !amd64

package gf64

// CLMUL reports whether PolyHash runs on the CPU's carry-less multiplier.
// The assembly kernel exists for amd64 only.
const CLMUL = false

// polyHashCLMUL is never called when CLMUL is false; it keeps PolyHash
// one body on every target.
func polyHashCLMUL(pow *[8]uint64, block *[64]byte) uint64 {
	return polyHashGeneric(pow, block)
}
