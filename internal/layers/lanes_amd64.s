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

// The sweep kernels below run the BN and ReLU bodies of batchnorm.go,
// relu.go and window.go. Every lane is one element: the scalar body's
// VSUBPS / VMULPS / VADDPS in the scalar body's order, never FMA, and the
// last n mod 8 elements of a run through the same operations on one lane
// (VSUBSS / VMULSS / VADDSS). A rectify is VCMPPS GT_OQ against +0 then
// VANDPS: the compare is false for −0 and every NaN, exactly positive.
//
// The per-channel kernels take a sample of c channel rows of hw elements,
// row ic from offset ic·hw, with row ic's scalars at element ic of the
// per-channel vectors. Counts may be zero.

// Advances the three row pointers past one row of R12 elements and the
// per-channel pointers R8-R11 to the next channel; loops while BX counts down.
#define NEXT_ROW(p0, p1, p2, label) \
	LEAQ (p0)(R12*4), p0; \
	LEAQ (p1)(R12*4), p1; \
	LEAQ (p2)(R12*4), p2; \
	ADDQ $4, R8;          \
	ADDQ $4, R9;          \
	ADDQ $4, R10;         \
	ADDQ $4, R11;         \
	DECQ BX;              \
	JNZ  label

// func normLanes(x, xh, y, mean, inv, gamma, beta *float32, c, hw int)
//
// Normalize's body: v = (x − μ)·is into xh, then y = γ·v + β.
TEXT ·normLanes(SB), NOSPLIT, $0-72
	MOVQ  x+0(FP), SI
	MOVQ  xh+8(FP), DI
	MOVQ  y+16(FP), DX
	MOVQ  mean+24(FP), R8
	MOVQ  inv+32(FP), R9
	MOVQ  gamma+40(FP), R10
	MOVQ  beta+48(FP), R11
	MOVQ  c+56(FP), BX
	MOVQ  hw+64(FP), R12
	MOVQ  R12, R13
	ANDQ  $-8, R13
	TESTQ BX, BX
	JZ    normDone

normRow:
	VBROADCASTSS (R8), Y4
	VBROADCASTSS (R9), Y5
	VBROADCASTSS (R10), Y6
	VBROADCASTSS (R11), Y7
	XORQ         AX, AX
	CMPQ         AX, R13
	JGE          normTail

normVec:
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS  Y4, Y0, Y0
	VMULPS  Y5, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	VMULPS  Y0, Y6, Y0
	VADDPS  Y7, Y0, Y0
	VMOVUPS Y0, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     normVec

normTail:
	CMPQ   AX, R12
	JGE    normNext
	VMOVSS (SI)(AX*4), X0
	VSUBSS X4, X0, X0
	VMULSS X5, X0, X0
	VMOVSS X0, (DI)(AX*4)
	VMULSS X0, X6, X0
	VADDSS X7, X0, X0
	VMOVSS X0, (DX)(AX*4)
	INCQ   AX
	JMP    normTail

normNext:
	NEXT_ROW(SI, DI, DX, normRow)

normDone:
	VZEROUPPER
	RET

// func normRectifyLanes(x, xh, t, mean, inv, gamma, beta *float32, c, hw int)
//
// The BNFF forward tile: v = (x − μ)·is into xh, then t = rectify(γ·v + β).
TEXT ·normRectifyLanes(SB), NOSPLIT, $0-72
	MOVQ   x+0(FP), SI
	MOVQ   xh+8(FP), DI
	MOVQ   t+16(FP), DX
	MOVQ   mean+24(FP), R8
	MOVQ   inv+32(FP), R9
	MOVQ   gamma+40(FP), R10
	MOVQ   beta+48(FP), R11
	MOVQ   c+56(FP), BX
	MOVQ   hw+64(FP), R12
	MOVQ   R12, R13
	ANDQ   $-8, R13
	VXORPS Y15, Y15, Y15
	TESTQ  BX, BX
	JZ     nrDone

nrRow:
	VBROADCASTSS (R8), Y4
	VBROADCASTSS (R9), Y5
	VBROADCASTSS (R10), Y6
	VBROADCASTSS (R11), Y7
	XORQ         AX, AX
	CMPQ         AX, R13
	JGE          nrTail

nrVec:
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS  Y4, Y0, Y0
	VMULPS  Y5, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	VMULPS  Y0, Y6, Y0
	VADDPS  Y7, Y0, Y0
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     nrVec

nrTail:
	CMPQ   AX, R12
	JGE    nrNext
	VMOVSS (SI)(AX*4), X0
	VSUBSS X4, X0, X0
	VMULSS X5, X0, X0
	VMOVSS X0, (DI)(AX*4)
	VMULSS X0, X6, X0
	VADDSS X7, X0, X0
	VCMPSS $0x1e, X15, X0, X1
	VANDPS X1, X0, X0
	VMOVSS X0, (DX)(AX*4)
	INCQ   AX
	JMP    nrTail

nrNext:
	NEXT_ROW(SI, DI, DX, nrRow)

nrDone:
	VZEROUPPER
	RET

// func scaleRectifyLanes(x, t, gamma, beta *float32, c, hw int)
//
// The backward's regenerated tile from x̂: t = rectify(γ·x + β).
TEXT ·scaleRectifyLanes(SB), NOSPLIT, $0-48
	MOVQ   x+0(FP), SI
	MOVQ   t+8(FP), DX
	MOVQ   gamma+16(FP), R10
	MOVQ   beta+24(FP), R11
	MOVQ   c+32(FP), BX
	MOVQ   hw+40(FP), R12
	MOVQ   R12, R13
	ANDQ   $-8, R13
	VXORPS Y15, Y15, Y15
	TESTQ  BX, BX
	JZ     srDone

srRow:
	VBROADCASTSS (R10), Y6
	VBROADCASTSS (R11), Y7
	XORQ         AX, AX
	CMPQ         AX, R13
	JGE          srTail

srVec:
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  Y0, Y6, Y0
	VADDPS  Y7, Y0, Y0
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     srVec

srTail:
	CMPQ   AX, R12
	JGE    srNext
	VMOVSS (SI)(AX*4), X0
	VMULSS X0, X6, X0
	VADDSS X7, X0, X0
	VCMPSS $0x1e, X15, X0, X1
	VANDPS X1, X0, X0
	VMOVSS X0, (DX)(AX*4)
	INCQ   AX
	JMP    srTail

srNext:
	LEAQ (SI)(R12*4), SI
	LEAQ (DX)(R12*4), DX
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ BX
	JNZ  srRow

srDone:
	VZEROUPPER
	RET

// func gradLanes(dy, xh, dx, gamma, inv, dgamma, dbeta *float32, m float32, c, hw int)
//
// BackwardInput's body: coef = γ·is/m per channel, then
// dx = coef·((m·dy − dβ) − x̂·dγ).
TEXT ·gradLanes(SB), NOSPLIT, $0-80
	MOVQ         dy+0(FP), SI
	MOVQ         xh+8(FP), DI
	MOVQ         dx+16(FP), DX
	MOVQ         gamma+24(FP), R8
	MOVQ         inv+32(FP), R9
	MOVQ         dgamma+40(FP), R10
	MOVQ         dbeta+48(FP), R11
	VBROADCASTSS m+56(FP), Y8
	MOVQ         c+64(FP), BX
	MOVQ         hw+72(FP), R12
	MOVQ         R12, R13
	ANDQ         $-8, R13
	TESTQ        BX, BX
	JZ           gradDone

gradRow:
	VMOVSS       (R8), X4
	VMULSS       (R9), X4, X4
	VDIVSS       X8, X4, X4
	VBROADCASTSS X4, Y4
	VBROADCASTSS (R11), Y5
	VBROADCASTSS (R10), Y6
	XORQ         AX, AX
	CMPQ         AX, R13
	JGE          gradTail

gradVec:
	VMULPS  (SI)(AX*4), Y8, Y0
	VSUBPS  Y5, Y0, Y0
	VMULPS  (DI)(AX*4), Y6, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y0, Y4, Y0
	VMOVUPS Y0, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     gradVec

gradTail:
	CMPQ   AX, R12
	JGE    gradNext
	VMOVSS (SI)(AX*4), X0
	VMULSS X0, X8, X0
	VSUBSS X5, X0, X0
	VMOVSS (DI)(AX*4), X1
	VMULSS X1, X6, X1
	VSUBSS X1, X0, X0
	VMULSS X0, X4, X0
	VMOVSS X0, (DX)(AX*4)
	INCQ   AX
	JMP    gradTail

gradNext:
	NEXT_ROW(SI, DI, DX, gradRow)

gradDone:
	VZEROUPPER
	RET

// func gradRegenLanes(dy, x, dx, gamma, inv, mean, dgamma, dbeta *float32, m float32, c, hw int)
//
// gradLanes with x̂ regenerated from the BN input x as normLanes computes it,
// v = (x − μ)·is, then dx = coef·((m·dy − dβ) − v·dγ).
TEXT ·gradRegenLanes(SB), NOSPLIT, $0-88
	MOVQ         dy+0(FP), SI
	MOVQ         x+8(FP), DI
	MOVQ         dx+16(FP), DX
	MOVQ         gamma+24(FP), R8
	MOVQ         inv+32(FP), R9
	MOVQ         mean+40(FP), CX
	MOVQ         dgamma+48(FP), R10
	MOVQ         dbeta+56(FP), R11
	VBROADCASTSS m+64(FP), Y8
	MOVQ         c+72(FP), BX
	MOVQ         hw+80(FP), R12
	MOVQ         R12, R13
	ANDQ         $-8, R13
	TESTQ        BX, BX
	JZ           grDone

grRow:
	VMOVSS       (R8), X4
	VMULSS       (R9), X4, X4
	VDIVSS       X8, X4, X4
	VBROADCASTSS X4, Y4
	VBROADCASTSS (R11), Y5
	VBROADCASTSS (R10), Y6
	VBROADCASTSS (CX), Y9
	VBROADCASTSS (R9), Y10
	XORQ         AX, AX
	CMPQ         AX, R13
	JGE          grTail

grVec:
	VMULPS  (SI)(AX*4), Y8, Y0
	VSUBPS  Y5, Y0, Y0
	VMOVUPS (DI)(AX*4), Y1
	VSUBPS  Y9, Y1, Y1
	VMULPS  Y10, Y1, Y1
	VMULPS  Y1, Y6, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y0, Y4, Y0
	VMOVUPS Y0, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     grVec

grTail:
	CMPQ   AX, R12
	JGE    grNext
	VMOVSS (SI)(AX*4), X0
	VMULSS X0, X8, X0
	VSUBSS X5, X0, X0
	VMOVSS (DI)(AX*4), X1
	VSUBSS X9, X1, X1
	VMULSS X10, X1, X1
	VMULSS X1, X6, X1
	VSUBSS X1, X0, X0
	VMULSS X0, X4, X0
	VMOVSS X0, (DX)(AX*4)
	INCQ   AX
	JMP    grTail

grNext:
	ADDQ $4, CX
	NEXT_ROW(SI, DI, DX, grRow)

grDone:
	VZEROUPPER
	RET

// func maskLanes(dst, v, z *float32, n int)
//
// dst = v where z > 0, +0 elsewhere: passIf over a run, and rectify with
// v = z. dst may be v.
TEXT ·maskLanes(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DX
	MOVQ   v+8(FP), SI
	MOVQ   z+16(FP), DI
	MOVQ   n+24(FP), R12
	MOVQ   R12, R13
	ANDQ   $-8, R13
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	CMPQ   AX, R13
	JGE    maskTail

maskVec:
	VMOVUPS (DI)(AX*4), Y1
	VCMPPS  $0x1e, Y15, Y1, Y1
	VANDPS  (SI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JLT     maskVec

maskTail:
	CMPQ   AX, R12
	JGE    maskDone
	VMOVSS (DI)(AX*4), X1
	VCMPSS $0x1e, X15, X1, X1
	VMOVSS (SI)(AX*4), X0
	VANDPS X0, X1, X1
	VMOVSS X1, (DX)(AX*4)
	INCQ   AX
	JMP    maskTail

maskDone:
	VZEROUPPER
	RET

// The reduction kernels below put the lanes across chains: lane k is one
// channel's accumulator over its own row, and the rows of eight channels are
// transposed in registers four elements at a time, so each vector add takes
// the next element of every chain, in ascending order, as the scalar loop
// does. Lanes 0-3 take rows 0-3 and lanes 4-7 rows hi..hi+3, hi in [0, 4]:
// 4 for eight channels, less to cover four to seven channels, lanes that
// share a row computing the same bits. Rows are R8 bytes apart; SI holds row
// 0 and R10 row hi (DI and R11 for a second map); n is the elements per row,
// a multiple of four.

// Rows 0-3 into the low lanes and rows hi..hi+3 into the high lanes of a..d,
// four elements each, from p (row 0) and p4 (row hi).
#define LOAD8x4(p, p4, xa, a, xb, b, xc, c, xd, d) \
	VMOVUPS     (p), xa;                \
	VINSERTF128 $1, (p4), a, a;         \
	VMOVUPS     (p)(R8*1), xb;          \
	VINSERTF128 $1, (p4)(R8*1), b, b;   \
	VMOVUPS     (p)(R8*2), xc;          \
	VINSERTF128 $1, (p4)(R8*2), c, c;   \
	VMOVUPS     (p)(R9*1), xd;          \
	VINSERTF128 $1, (p4)(R9*1), d, d

// In-lane 4×4 transpose: afterwards a..d hold elements 0..3, lane k of each
// from row k.
#define TRANSPOSE4(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPS b, a, t0;        \
	VUNPCKHPS b, a, t1;        \
	VUNPCKLPS d, c, t2;        \
	VUNPCKHPS d, c, t3;        \
	VSHUFPS   $0x44, t2, t0, a; \
	VSHUFPS   $0xee, t2, t0, b; \
	VSHUFPS   $0x44, t3, t1, c; \
	VSHUFPS   $0xee, t3, t1, d

// Sets up SI, R10, R8, R9 and CX = n/4 for rows of x, stride hw.
#define ROWS8(x, hw, hi, n) \
	MOVQ  x, SI;          \
	MOVQ  hw, R8;         \
	SHLQ  $2, R8;         \
	LEAQ  (R8)(R8*2), R9; \
	MOVQ  hi, R10;        \
	IMULQ R8, R10;        \
	ADDQ  SI, R10;        \
	MOVQ  n, CX;          \
	SHRQ  $2, CX

// func transposeLanes(dst *float32, ds int, src *float32, ss, hi, n int)
//
// dst[c·ds+k] = src[k·ss+c] for columns c < n and rows k < 4 and
// hi ≤ k < hi+4.
TEXT ·transposeLanes(SB), NOSPLIT, $0-48
	ROWS8(src+16(FP), ss+24(FP), hi+32(FP), n+40(FP))
	MOVQ  dst+0(FP), DI
	MOVQ  ds+8(FP), DX
	SHLQ  $2, DX
	LEAQ  (DX)(DX*2), R11
	MOVQ  hi+32(FP), R12
	SHLQ  $2, R12
	TESTQ CX, CX
	JZ    trDone

trLoop:
	LOAD8x4(SI, R10, X0, Y0, X1, Y1, X2, Y2, X3, Y3)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	MOVQ         DI, AX
	VMOVUPS      X0, (AX)
	VEXTRACTF128 $1, Y0, (AX)(R12*1)
	ADDQ         DX, AX
	VMOVUPS      X1, (AX)
	VEXTRACTF128 $1, Y1, (AX)(R12*1)
	ADDQ         DX, AX
	VMOVUPS      X2, (AX)
	VEXTRACTF128 $1, Y2, (AX)(R12*1)
	ADDQ         DX, AX
	VMOVUPS      X3, (AX)
	VEXTRACTF128 $1, Y3, (AX)(R12*1)
	ADDQ    $16, SI
	ADDQ    $16, R10
	LEAQ    (DI)(DX*4), DI
	DECQ    CX
	JNZ     trLoop

trDone:
	VZEROUPPER
	RET

#define MOMENT(v) \
	VADDPS v, Y12, Y12; \
	VMULPS v, v, Y4;    \
	VADDPS Y4, Y13, Y13

// func momentLanes(x *float32, hw, hi, n int, s, sq *float32)
//
// momentPartials' chains for eight lanes: s[k] += x, sq[k] += x·x over the
// first n elements of lane k's row, from s and sq as they are.
TEXT ·momentLanes(SB), NOSPLIT, $0-48
	ROWS8(x+0(FP), hw+8(FP), hi+16(FP), n+24(FP))
	MOVQ    s+32(FP), AX
	MOVQ    sq+40(FP), BX
	VMOVUPS (AX), Y12
	VMOVUPS (BX), Y13
	TESTQ   CX, CX
	JZ      momDone

momLoop:
	LOAD8x4(SI, R10, X0, Y0, X1, Y1, X2, Y2, X3, Y3)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	MOMENT(Y0)
	MOMENT(Y1)
	MOMENT(Y2)
	MOMENT(Y3)
	ADDQ $16, SI
	ADDQ $16, R10
	DECQ CX
	JNZ  momLoop

momDone:
	VMOVUPS Y12, (AX)
	VMOVUPS Y13, (BX)
	VZEROUPPER
	RET

// Widens element v (xv its low half) to float64 in Y4 (rows 0-3) and Y5
// (rows 4-7).
#define WIDEN(v, xv) \
	VCVTPS2PD    xv, Y4;   \
	VEXTRACTF128 $1, v, X5; \
	VCVTPS2PD    X5, Y5

#define MEAN(v, xv) \
	WIDEN(v, xv);       \
	VADDPD Y4, Y12, Y12; \
	VADDPD Y5, Y13, Y13

// func meanLanes(x *float32, hw, hi, n int, s *float64)
//
// ComputeStats' mean chains for eight lanes: s[k] += float64(x) over the
// first n elements of lane k's row, from s as it is.
TEXT ·meanLanes(SB), NOSPLIT, $0-40
	ROWS8(x+0(FP), hw+8(FP), hi+16(FP), n+24(FP))
	MOVQ    s+32(FP), AX
	VMOVUPD (AX), Y12
	VMOVUPD 32(AX), Y13
	TESTQ   CX, CX
	JZ      meanDone

meanLoop:
	LOAD8x4(SI, R10, X0, Y0, X1, Y1, X2, Y2, X3, Y3)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	MEAN(Y0, X0)
	MEAN(Y1, X1)
	MEAN(Y2, X2)
	MEAN(Y3, X3)
	ADDQ $16, SI
	ADDQ $16, R10
	DECQ CX
	JNZ  meanLoop

meanDone:
	VMOVUPD Y12, (AX)
	VMOVUPD Y13, 32(AX)
	VZEROUPPER
	RET

#define VARIANCE(v, xv) \
	WIDEN(v, xv);       \
	VSUBPD Y14, Y4, Y4;  \
	VMULPD Y4, Y4, Y4;   \
	VADDPD Y4, Y12, Y12; \
	VSUBPD Y15, Y5, Y5;  \
	VMULPD Y5, Y5, Y5;   \
	VADDPD Y5, Y13, Y13

// func varLanes(x *float32, hw, hi, n int, mu, s *float64)
//
// ComputeStats' variance chains for eight lanes: d = float64(x) − mu[k],
// then s[k] += d·d over the first n elements of lane k's row, from s as it
// is.
TEXT ·varLanes(SB), NOSPLIT, $0-48
	ROWS8(x+0(FP), hw+8(FP), hi+16(FP), n+24(FP))
	MOVQ    mu+32(FP), BX
	VMOVUPD (BX), Y14
	VMOVUPD 32(BX), Y15
	MOVQ    s+40(FP), AX
	VMOVUPD (AX), Y12
	VMOVUPD 32(AX), Y13
	TESTQ   CX, CX
	JZ      varDone

varLoop:
	LOAD8x4(SI, R10, X0, Y0, X1, Y1, X2, Y2, X3, Y3)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	VARIANCE(Y0, X0)
	VARIANCE(Y1, X1)
	VARIANCE(Y2, X2)
	VARIANCE(Y3, X3)
	ADDQ $16, SI
	ADDQ $16, R10
	DECQ CX
	JNZ  varLoop

varDone:
	VMOVUPD Y12, (AX)
	VMOVUPD Y13, 32(AX)
	VZEROUPPER
	RET

// One element of dy (d, xd its low half) and x̂ (h, xh): e = float64(dy),
// g += e·float64(x̂) in Y12/Y13, b += e in Y14/Y15.
#define GAMMABETA(d, xd, h, xh) \
	VCVTPS2PD    xd, Y8;       \
	VCVTPS2PD    xh, Y9;       \
	VMULPD       Y9, Y8, Y9;   \
	VADDPD       Y9, Y12, Y12; \
	VADDPD       Y8, Y14, Y14; \
	VEXTRACTF128 $1, d, X10;   \
	VCVTPS2PD    X10, Y10;     \
	VEXTRACTF128 $1, h, X11;   \
	VCVTPS2PD    X11, Y11;     \
	VMULPD       Y11, Y10, Y11; \
	VADDPD       Y11, Y13, Y13; \
	VADDPD       Y10, Y15, Y15

// func gammaBetaLanes(dy, xh *float32, hw, hi, n int, sg, sb *float64)
//
// gammaBetaPartials' chains for eight lanes of dy and x̂: e = float64(dy),
// sg[k] += e·float64(x̂) and sb[k] += e over the first n elements of lane
// k's rows, from sg and sb as they are.
TEXT ·gammaBetaLanes(SB), NOSPLIT, $0-56
	ROWS8(dy+0(FP), hw+16(FP), hi+24(FP), n+32(FP))
	MOVQ    xh+8(FP), DI
	MOVQ    R10, R11
	SUBQ    SI, R11
	ADDQ    DI, R11
	MOVQ    sg+40(FP), AX
	MOVQ    sb+48(FP), BX
	VMOVUPD (AX), Y12
	VMOVUPD 32(AX), Y13
	VMOVUPD (BX), Y14
	VMOVUPD 32(BX), Y15
	TESTQ   CX, CX
	JZ      gbDone

gbLoop:
	LOAD8x4(SI, R10, X0, Y0, X1, Y1, X2, Y2, X3, Y3)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	LOAD8x4(DI, R11, X4, Y4, X5, Y5, X6, Y6, X7, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	GAMMABETA(Y0, X0, Y4, X4)
	GAMMABETA(Y1, X1, Y5, X5)
	GAMMABETA(Y2, X2, Y6, X6)
	GAMMABETA(Y3, X3, Y7, X7)
	ADDQ $16, SI
	ADDQ $16, R10
	ADDQ $16, DI
	ADDQ $16, R11
	DECQ CX
	JNZ  gbLoop

gbDone:
	VMOVUPD Y12, (AX)
	VMOVUPD Y13, 32(AX)
	VMOVUPD Y14, (BX)
	VMOVUPD Y15, 32(BX)
	VZEROUPPER
	RET
