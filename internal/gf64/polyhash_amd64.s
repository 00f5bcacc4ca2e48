#include "textflag.h"

// func hasCLMUL() bool
TEXT ·hasCLMUL(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $1, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func polyHashCLMUL(pow *[8]uint64, block *[64]byte) uint64
//
// Word i of the block is multiplied by pow[i]; each 16-byte load holds two
// words, and PCLMULQDQ's immediate picks the low (0x00) or high (0x11)
// qword of both operands. The eight 128-bit products are XORed into X0,
// then the high half is folded twice by x^64 ≡ x^4+x^3+x+1 (0x1B): hi·0x1B
// is at most 68 bits, and its top 4 bits times 0x1B fit below x^8.
TEXT ·polyHashCLMUL(SB), NOSPLIT, $0-24
	MOVQ pow+0(FP), AX
	MOVQ block+8(FP), BX

	MOVOU 0(AX), X0
	MOVOU 0(BX), X1
	MOVOU X0, X2
	PCLMULQDQ $0x00, X1, X0
	PCLMULQDQ $0x11, X1, X2

	MOVOU 16(AX), X3
	MOVOU 16(BX), X4
	MOVOU X3, X5
	PCLMULQDQ $0x00, X4, X3
	PCLMULQDQ $0x11, X4, X5

	MOVOU 32(AX), X6
	MOVOU 32(BX), X7
	MOVOU X6, X8
	PCLMULQDQ $0x00, X7, X6
	PCLMULQDQ $0x11, X7, X8

	MOVOU 48(AX), X9
	MOVOU 48(BX), X10
	MOVOU X9, X11
	PCLMULQDQ $0x00, X10, X9
	PCLMULQDQ $0x11, X10, X11

	PXOR X2, X0
	PXOR X5, X3
	PXOR X8, X6
	PXOR X11, X9
	PXOR X3, X0
	PXOR X9, X6
	PXOR X6, X0

	// X0 = (hi, lo). X1 = hi·0x1B = (t_hi, t_lo); X2 = t_hi·0x1B.
	MOVQ $0x1B, CX
	MOVQ CX, X12
	MOVOU X0, X1
	PCLMULQDQ $0x01, X12, X1
	MOVOU X1, X2
	PCLMULQDQ $0x01, X12, X2
	PXOR X1, X0
	PXOR X2, X0
	MOVQ X0, ret+16(FP)
	RET
