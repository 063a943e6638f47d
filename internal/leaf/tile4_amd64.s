#include "textflag.h"

// func tile4x4(s []float64, so, ss int, x []float64, xo, xs, xr int, y []float64, yo, yr, nt, nr int)
//
// Four planes by four cells at a time, nt/4 tiles along the row: X0–X7
// hold s[so+p*ss+c], two cells per register (X2p cells 0–1, X2p+1 cells
// 2–3 of plane p). Per reduction step the two halves of y's row load once
// (X8, X9), plane p's x broadcasts to both lanes of X10+p, and each half
// product is a MULPD into a copy of y followed by an ADDPD into the
// accumulator: the rounded product, then the addition, as Tile's
// s += float64(x*y) does per cell. SSE2 only (the amd64 baseline), and
// never a fused multiply-add. When useAVX is set, the entry jumps to the
// AVX twin, tile4x4AVX (vex_amd64.s).
TEXT ·tile4x4(SB), NOSPLIT, $0-144
	CMPB ·useAVX(SB), $0
	JNE  avx
	MOVQ s_base+0(FP), BX
	MOVQ so+24(FP), AX
	LEAQ (BX)(AX*8), BX
	MOVQ ss+32(FP), R10
	SHLQ $3, R10
	MOVQ x_base+40(FP), AX
	MOVQ xo+64(FP), CX
	LEAQ (AX)(CX*8), AX
	MOVQ xs+72(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ xr+80(FP), R12
	SHLQ $3, R12
	MOVQ y_base+88(FP), DX
	MOVQ yo+112(FP), CX
	LEAQ (DX)(CX*8), DX
	MOVQ yr+120(FP), R13
	SHLQ $3, R13
	MOVQ nt+128(FP), R11

tiles:
	LEAQ (BX)(R10*2), CX
	MOVUPD (BX), X0
	MOVUPD 16(BX), X1
	MOVUPD (BX)(R10*1), X2
	MOVUPD 16(BX)(R10*1), X3
	MOVUPD (CX), X4
	MOVUPD 16(CX), X5
	MOVUPD (CX)(R10*1), X6
	MOVUPD 16(CX)(R10*1), X7
	MOVQ AX, SI
	MOVQ DX, DI
	MOVQ nr+136(FP), CX

	PCALIGN $32
loop:
	MOVUPD (DI), X8
	MOVUPD 16(DI), X9
	MOVSD (SI), X10
	UNPCKLPD X10, X10
	MOVSD (SI)(R8*1), X11
	UNPCKLPD X11, X11
	MOVSD (SI)(R8*2), X12
	UNPCKLPD X12, X12
	MOVSD (SI)(R9*1), X13
	UNPCKLPD X13, X13

	MOVAPD X8, X14
	MULPD X10, X14
	ADDPD X14, X0
	MOVAPD X9, X14
	MULPD X10, X14
	ADDPD X14, X1
	MOVAPD X8, X14
	MULPD X11, X14
	ADDPD X14, X2
	MOVAPD X9, X14
	MULPD X11, X14
	ADDPD X14, X3
	MOVAPD X8, X14
	MULPD X12, X14
	ADDPD X14, X4
	MOVAPD X9, X14
	MULPD X12, X14
	ADDPD X14, X5
	MOVAPD X8, X14
	MULPD X13, X14
	ADDPD X14, X6
	MOVAPD X9, X14
	MULPD X13, X14
	ADDPD X14, X7

	ADDQ R12, SI
	ADDQ R13, DI
	DECQ CX
	JNZ loop

	LEAQ (BX)(R10*2), CX
	MOVUPD X0, (BX)
	MOVUPD X1, 16(BX)
	MOVUPD X2, (BX)(R10*1)
	MOVUPD X3, 16(BX)(R10*1)
	MOVUPD X4, (CX)
	MOVUPD X5, 16(CX)
	MOVUPD X6, (CX)(R10*1)
	MOVUPD X7, 16(CX)(R10*1)

	ADDQ $32, BX
	ADDQ $32, DX
	SUBQ $4, R11
	JNZ tiles
	RET

avx:
	JMP ·tile4x4AVX(SB)
