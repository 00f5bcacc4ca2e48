//go:build amd64 && !race

#include "textflag.h"

// func publishLine(e *blockCacheEntry, gen, tag, epoch uint64, pt *[64]byte)
//
// blockCacheEntry is gen at 0, tag at 8, epoch at 16 and pt at 24..87
// (TestBlockCacheEntryLayout). Every store is a plain aligned MOVQ: x86-64
// commits stores in program order (Intel SDM vol. 3 §8.2.2), so a probe
// that sees a new word has already been able to see the odd generation.
TEXT ·publishLine(SB), NOSPLIT, $0-40
	MOVQ e+0(FP), DI
	MOVQ gen+8(FP), AX
	MOVQ tag+16(FP), BX
	MOVQ epoch+24(FP), CX
	MOVQ pt+32(FP), SI

	LEAQ 1(AX), DX
	MOVQ DX, 0(DI)
	MOVQ BX, 8(DI)
	MOVQ CX, 16(DI)

	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ R8, 24(DI)
	MOVQ R9, 32(DI)
	MOVQ R10, 40(DI)
	MOVQ R11, 48(DI)
	MOVQ 32(SI), R8
	MOVQ 40(SI), R9
	MOVQ 48(SI), R10
	MOVQ 56(SI), R11
	MOVQ R8, 56(DI)
	MOVQ R9, 64(DI)
	MOVQ R10, 72(DI)
	MOVQ R11, 80(DI)

	LEAQ 2(AX), DX
	MOVQ DX, 0(DI)
	RET
