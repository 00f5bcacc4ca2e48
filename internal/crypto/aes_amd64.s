#include "textflag.h"

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND writes round key X0 ← next(X0) to off(BX). AESKEYGENASSIST puts
// RotWord(SubWord(w3)) ⊕ rcon in dword 3 of X1; PSHUFD broadcasts it, and
// the three shifted copies of the old key in X2 make w0, w0⊕w1, w0⊕w1⊕w2,
// w0⊕…⊕w3 — FIPS-197's recurrence w[i] = w[i-4] ⊕ w[i-1], four words at a
// time. No table is read, so the schedule's timing does not depend on the
// key.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVOU           X0, X2; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVOU           X0, off(BX)

// func expandKey(xk *roundKeys, key *[16]byte)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ  xk+0(FP), BX
	MOVQ  key+8(FP), AX
	MOVOU (AX), X0
	MOVOU X0, 0(BX)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// ROUND runs one AES round with key k on the four lanes X0–X3.
#define ROUND(k) \
	AESENC k, X0; \
	AESENC k, X1; \
	AESENC k, X2; \
	AESENC k, X3

// LANE sets the high qword of x to counter (R8) ORed with the lane tag in
// R9, zeroes its low qword, then XORs round key 0 (X15) into it.
#define LANE(x) \
	ORQ   R8, R9; \
	MOVQ  R9, x; \
	PSLLO $8, x; \
	PXOR  X15, x

// func xorPads(xk *roundKeys, dst, src *byte, n int, addr, counter uint64)
//
// Block i's four nonces are LE64(addr + 64·i) ‖ LE64(counter | lane<<56),
// lane 0…3. X4–X7 hold each lane's counter half already XORed with round
// key 0, so a block's nonces (and AES's initial AddRoundKey) are one MOVQ
// of the address and four PXORs. The four lanes run their ten rounds
// interleaved, so four AESENC chains are in flight at once. Round keys 1–7
// stay in X8–X14; 8–10 are reloaded through X15 per block. Each 16 bytes of
// src are loaded before the same 16 bytes of dst are stored, so dst may
// alias src exactly. n ≥ 1; the address wraps mod 2^64.
TEXT ·xorPads(SB), NOSPLIT, $0-48
	MOVQ xk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ addr+32(FP), DX
	MOVQ counter+40(FP), R8

	MOVOU 0(AX), X15
	XORQ  R9, R9
	LANE(X4)
	MOVQ  $0x0100000000000000, R9
	LANE(X5)
	MOVQ  $0x0200000000000000, R9
	LANE(X6)
	MOVQ  $0x0300000000000000, R9
	LANE(X7)

	MOVOU 16(AX), X8
	MOVOU 32(AX), X9
	MOVOU 48(AX), X10
	MOVOU 64(AX), X11
	MOVOU 80(AX), X12
	MOVOU 96(AX), X13
	MOVOU 112(AX), X14

loop:
	MOVQ  DX, X0
	MOVOU X0, X1
	MOVOU X0, X2
	MOVOU X0, X3
	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3

	ROUND(X8)
	ROUND(X9)
	ROUND(X10)
	ROUND(X11)
	ROUND(X12)
	ROUND(X13)
	ROUND(X14)
	MOVOU 128(AX), X15
	ROUND(X15)
	MOVOU 144(AX), X15
	ROUND(X15)
	MOVOU 160(AX), X15
	AESENCLAST X15, X0
	AESENCLAST X15, X1
	AESENCLAST X15, X2
	AESENCLAST X15, X3

	MOVOU 0(SI), X15
	PXOR  X15, X0
	MOVOU X0, 0(DI)
	MOVOU 16(SI), X15
	PXOR  X15, X1
	MOVOU X1, 16(DI)
	MOVOU 32(SI), X15
	PXOR  X15, X2
	MOVOU X2, 32(DI)
	MOVOU 48(SI), X15
	PXOR  X15, X3
	MOVOU X3, 48(DI)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ CX
	JNZ  loop
	RET

// func prfBlock(xk *roundKeys, addr, counter uint64) uint64
//
// One AES block over LE64(addr) ‖ LE64(counter); the low 64 bits of the
// output.
TEXT ·prfBlock(SB), NOSPLIT, $0-32
	MOVQ       xk+0(FP), AX
	MOVQ       addr+8(FP), X0
	MOVQ       counter+16(FP), X1
	PUNPCKLQDQ X1, X0
	MOVOU      0(AX), X1
	PXOR       X1, X0
	MOVOU      16(AX), X1
	AESENC     X1, X0
	MOVOU      32(AX), X1
	AESENC     X1, X0
	MOVOU      48(AX), X1
	AESENC     X1, X0
	MOVOU      64(AX), X1
	AESENC     X1, X0
	MOVOU      80(AX), X1
	AESENC     X1, X0
	MOVOU      96(AX), X1
	AESENC     X1, X0
	MOVOU      112(AX), X1
	AESENC     X1, X0
	MOVOU      128(AX), X1
	AESENC     X1, X0
	MOVOU      144(AX), X1
	AESENC     X1, X0
	MOVOU      160(AX), X1
	AESENCLAST X1, X0
	MOVQ       X0, ret+24(FP)
	RET
