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

// func probeSpan(c *blockCache, blk uint64, dst []byte) (served int, retries uint64)
//
// blockCache is the entries slice at 0 (base pointer first), mask at 24 and
// epoch at 32; an entry is 88 bytes (TestBlockCacheEntryLayout). For each
// block of dst, in order: load the cache epoch, then at most
// seqlockMaxRetries+1 = 5 attempts of { load gen, retry if odd; miss unless
// tag == blk+1 and the entry's epoch is the cache's; load the payload into
// X0-X3; re-load gen, retry if it moved }, and on a validated snapshot store
// X0-X3 into dst. x86-64 does not reorder loads with other loads (Intel SDM
// vol. 3 §8.2.2), so the re-load is ordered after the payload loads, as the
// store order publishLine relies on is. The span stops at the first miss.
//
// Registers: SI c, R8 entries, R9 mask, BX the wanted tag (blk+1), DI dst,
// CX len(dst) rounded down to whole blocks, AX bytes served, DX retries,
// R10 the entry, R11 the epoch, R12 gen, R13 attempts left.
TEXT ·probeSpan(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), SI
	MOVQ blk+8(FP), BX
	MOVQ dst_base+16(FP), DI
	MOVQ dst_len+24(FP), CX
	ANDQ $-64, CX // whole blocks only: a partial tail is never written
	MOVQ 0(SI), R8
	MOVQ 24(SI), R9
	INCQ BX
	XORQ AX, AX
	XORQ DX, DX

block:
	CMPQ AX, CX
	JAE  done
	LEAQ -1(BX), R10
	ANDQ R9, R10
	IMUL3Q $88, R10, R10
	ADDQ R8, R10
	MOVQ 32(SI), R11
	MOVQ $5, R13

attempt:
	MOVQ 0(R10), R12
	TESTQ $1, R12
	JNZ  retry
	CMPQ 8(R10), BX
	JNE  done
	CMPQ 16(R10), R11
	JNE  done
	MOVOU 24(R10), X0
	MOVOU 40(R10), X1
	MOVOU 56(R10), X2
	MOVOU 72(R10), X3
	CMPQ 0(R10), R12
	JNE  retry
	MOVOU X0, 0(DI)(AX*1)
	MOVOU X1, 16(DI)(AX*1)
	MOVOU X2, 32(DI)(AX*1)
	MOVOU X3, 48(DI)(AX*1)
	ADDQ $64, AX
	INCQ BX
	JMP  block

retry:
	INCQ DX
	DECQ R13
	JNZ  attempt

done:
	MOVQ AX, served+40(FP)
	MOVQ DX, retries+48(FP)
	RET
