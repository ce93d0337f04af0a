#include "textflag.h"

// The AVX2 lane kernels of lanes.go. Every YMM lane is one output element's
// own accumulator chain: a term is VMULPS (one rounding) then VADDPS onto the
// accumulator (one rounding), exactly the scalar body's MULSS + ADDSS, and
// terms arrive in the scalar body's order. Never FMA: it rounds once and
// would change every digest.

// func hasAVX2() bool
//
// CPUID leaf 7 reports AVX2; CPUID leaf 1 reports AVX and OSXSAVE, and XGETBV
// then says whether the OS saves the XMM and YMM state across switches.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET

// One term into two accumulators: broadcast bc, times the vector operand in
// Y8 (and Y9), added onto acc0 (and acc1).
#define MAC2(bc, acc0, acc1) \
	VBROADCASTSS bc, Y10;        \
	VMULPS       Y10, Y8, Y11;   \
	VADDPS       Y11, acc0, acc0; \
	VMULPS       Y10, Y9, Y12;   \
	VADDPS       Y12, acc1, acc1

#define MAC1(bc, acc) \
	VBROADCASTSS bc, Y10;      \
	VMULPS       Y10, Y8, Y11; \
	VADDPS       Y11, acc, acc

// func lanes4x16(a, b, out, seed *float32, aj, oj, n0, n1, n2, a0, a1, a2, b0, b1, b2 int)
//
// Four rows of 16 lanes: row j, lane l accumulates a[p+j·aj]·b[q+l] over the
// three-level nest n0 × n1 × n2, p and q advancing by a2, b2 per inner term,
// by a1, b1 after each middle loop and by a0, b0 after each outer loop.
// Accumulators start at seed[j] (broadcast) or, with seed nil, at
// out[j·oj+l]; they end in out[j·oj+l]. Strides are in elements; every count
// is at least 1.
TEXT ·lanes4x16(SB), NOSPLIT, $0-120
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ aj+32(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	MOVQ seed+24(FP), BX
	TESTQ BX, BX
	JZ   load16
	VBROADCASTSS (BX), Y0
	VMOVUPS      Y0, Y1
	VBROADCASTSS 4(BX), Y2
	VMOVUPS      Y2, Y3
	VBROADCASTSS 8(BX), Y4
	VMOVUPS      Y4, Y5
	VBROADCASTSS 12(BX), Y6
	VMOVUPS      Y6, Y7
	JMP  nest16

load16:
	MOVQ    out+16(FP), BX
	MOVQ    oj+40(FP), DX
	SHLQ    $2, DX
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	ADDQ    DX, BX
	VMOVUPS (BX), Y2
	VMOVUPS 32(BX), Y3
	ADDQ    DX, BX
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	ADDQ    DX, BX
	VMOVUPS (BX), Y6
	VMOVUPS 32(BX), Y7

nest16:
	MOVQ a2+88(FP), R10
	SHLQ $2, R10
	MOVQ b2+112(FP), R11
	SHLQ $2, R11
	MOVQ a1+80(FP), R12
	SHLQ $2, R12
	MOVQ b1+104(FP), R13
	SHLQ $2, R13
	MOVQ n0+48(FP), BX

outer16:
	MOVQ n1+56(FP), AX

middle16:
	MOVQ n2+64(FP), CX

inner16:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	MAC2((SI), Y0, Y1)
	MAC2((SI)(R8*1), Y2, Y3)
	MAC2((SI)(R8*2), Y4, Y5)
	MAC2((SI)(R9*1), Y6, Y7)
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  inner16
	ADDQ R12, SI
	ADDQ R13, DI
	DECQ AX
	JNZ  middle16
	MOVQ a0+72(FP), DX
	LEAQ (SI)(DX*4), SI
	MOVQ b0+96(FP), DX
	LEAQ (DI)(DX*4), DI
	DECQ BX
	JNZ  outer16

	MOVQ    out+16(FP), BX
	MOVQ    oj+40(FP), DX
	SHLQ    $2, DX
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	ADDQ    DX, BX
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, 32(BX)
	ADDQ    DX, BX
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	ADDQ    DX, BX
	VMOVUPS Y6, (BX)
	VMOVUPS Y7, 32(BX)
	VZEROUPPER
	RET

// func lanes4x8(a, b, out, seed *float32, aj, oj, n0, n1, n2, a0, a1, a2, b0, b1, b2 int)
//
// lanes4x16 with rows of 8 lanes.
TEXT ·lanes4x8(SB), NOSPLIT, $0-120
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ aj+32(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	MOVQ seed+24(FP), BX
	TESTQ BX, BX
	JZ   load8
	VBROADCASTSS (BX), Y0
	VBROADCASTSS 4(BX), Y1
	VBROADCASTSS 8(BX), Y2
	VBROADCASTSS 12(BX), Y3
	JMP  nest8

load8:
	MOVQ    out+16(FP), BX
	MOVQ    oj+40(FP), DX
	SHLQ    $2, DX
	VMOVUPS (BX), Y0
	ADDQ    DX, BX
	VMOVUPS (BX), Y1
	ADDQ    DX, BX
	VMOVUPS (BX), Y2
	ADDQ    DX, BX
	VMOVUPS (BX), Y3

nest8:
	MOVQ a2+88(FP), R10
	SHLQ $2, R10
	MOVQ b2+112(FP), R11
	SHLQ $2, R11
	MOVQ a1+80(FP), R12
	SHLQ $2, R12
	MOVQ b1+104(FP), R13
	SHLQ $2, R13
	MOVQ n0+48(FP), BX

outer8:
	MOVQ n1+56(FP), AX

middle8:
	MOVQ n2+64(FP), CX

inner8:
	VMOVUPS (DI), Y8
	MAC1((SI), Y0)
	MAC1((SI)(R8*1), Y1)
	MAC1((SI)(R8*2), Y2)
	MAC1((SI)(R9*1), Y3)
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  inner8
	ADDQ R12, SI
	ADDQ R13, DI
	DECQ AX
	JNZ  middle8
	MOVQ a0+72(FP), DX
	LEAQ (SI)(DX*4), SI
	MOVQ b0+96(FP), DX
	LEAQ (DI)(DX*4), DI
	DECQ BX
	JNZ  outer8

	MOVQ    out+16(FP), BX
	MOVQ    oj+40(FP), DX
	SHLQ    $2, DX
	VMOVUPS Y0, (BX)
	ADDQ    DX, BX
	VMOVUPS Y1, (BX)
	ADDQ    DX, BX
	VMOVUPS Y2, (BX)
	ADDQ    DX, BX
	VMOVUPS Y3, (BX)
	VZEROUPPER
	RET

// func laneRows(a, b, out *float32, rows, n, ra, rb, ro, ta, tb int)
//
// rows runs of 32 lanes: run r, lane l accumulates a[r·ra+t·ta]·b[r·rb+t·tb+l]
// over t = 0..n-1 onto out[r·ro+l], seeded from there. Strides are in
// elements; rows and n are at least 1.
TEXT ·laneRows(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ out+16(FP), AX
	MOVQ rows+24(FP), BX
	MOVQ ra+40(FP), R8
	SHLQ $2, R8
	MOVQ rb+48(FP), R9
	SHLQ $2, R9
	MOVQ ro+56(FP), R10
	SHLQ $2, R10
	MOVQ ta+64(FP), R11
	SHLQ $2, R11
	MOVQ tb+72(FP), R12
	SHLQ $2, R12

row:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS 64(AX), Y2
	VMOVUPS 96(AX), Y3
	MOVQ    SI, R13
	MOVQ    DI, DX
	MOVQ    n+32(FP), CX

tap:
	VBROADCASTSS (R13), Y10
	VMULPS       (DX), Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       32(DX), Y10, Y12
	VADDPS       Y12, Y1, Y1
	VMULPS       64(DX), Y10, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(DX), Y10, Y12
	VADDPS       Y12, Y3, Y3
	ADDQ         R11, R13
	ADDQ         R12, DX
	DECQ         CX
	JNZ          tap

	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	ADDQ    R8, SI
	ADDQ    R9, DI
	ADDQ    R10, AX
	DECQ    BX
	JNZ     row
	VZEROUPPER
	RET
