package gf64

// CLMUL reports whether PolyHash runs on the CPU's carry-less multiplier
// (PCLMULQDQ, CPUID.1:ECX bit 1). It is read once, at package init.
var CLMUL = hasCLMUL()

// hasCLMUL executes CPUID leaf 1 and returns ECX bit 1.
func hasCLMUL() bool

// polyHashCLMUL is PolyHash on PCLMULQDQ. The caller checks CLMUL.
//
//go:noescape
func polyHashCLMUL(pow *[8]uint64, block *[64]byte) uint64
