#include "textflag.h"

// The AVX twins of tile4x4 and heldRow8, which jump here when useAVX is set.
// Each is its SSE2 twin with 256-bit registers: the same loop structure, and
// every product a VMULPD, rounded, and its addition a separate VADDPD, never
// a fused multiply-add. Each instruction keeps its SSE2 twin's operand
// order — the first source is the y or b side of a product and the
// accumulator of an addition — so where two NaNs meet the same payload
// survives, and the twins return identical bits. Every instruction is AVX1,
// so hasAVX asks nothing of AVX2 or FMA. Each kernel ends in VZEROUPPER, so
// the SSE code that runs after it pays no state transition.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	// ECX bit 27: OSXSAVE (XGETBV is usable); bit 28: AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	ANDL $6, AX
	CMPL AX, $6
	SETEQ ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func tile4x4AVX(s []float64, so, ss int, x []float64, xo, xs, xr int, y []float64, yo, yr, nt, nr int)
//
// Four planes by four cells at a time, nt/4 tiles along the row: Yp holds
// s[so+p*ss .. so+p*ss+3], plane p's row of the tile. Per reduction step y's
// row loads once (Y4), plane p's x broadcasts to Y5+p, and each product is a
// VMULPD of y by x followed by a VADDPD into the accumulator.
TEXT ·tile4x4AVX(SB), NOSPLIT, $0-144
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
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R10*1), Y1
	VMOVUPD (CX), Y2
	VMOVUPD (CX)(R10*1), Y3
	MOVQ AX, SI
	MOVQ DX, DI
	MOVQ nr+136(FP), CX

	PCALIGN $32
loop:
	VMOVUPD (DI), Y4
	VBROADCASTSD (SI), Y5
	VBROADCASTSD (SI)(R8*1), Y6
	VBROADCASTSD (SI)(R8*2), Y7
	VBROADCASTSD (SI)(R9*1), Y8
	VMULPD Y5, Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD Y6, Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD Y7, Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD Y8, Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R12, SI
	ADDQ R13, DI
	DECQ CX
	JNZ loop

	LEAQ (BX)(R10*2), CX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R10*1)
	VMOVUPD Y2, (CX)
	VMOVUPD Y3, (CX)(R10*1)

	ADDQ $32, BX
	ADDQ $32, DX
	SUBQ $4, R11
	JNZ tiles
	VZEROUPPER
	RET

// func heldRow8AVX(s []float64, so int, p []float64, po, ps int, b []float64, bo, bs int, c []float64, co, cs int, nv, nu int)
//
// Eight cells of the store row at a time, nv/8 groups: Y0 and Y1 hold
// s[so+t .. so+t+7] across all nu rows. Per row, p's element broadcasts to
// Y2, and each half of the group is a VMULPD of b's four cells by p, a
// VMULPD of that product by c's four cells, then a VADDPD into the
// accumulator.
TEXT ·heldRow8AVX(SB), NOSPLIT, $0-168
	MOVQ s_base+0(FP), BX
	MOVQ so+24(FP), AX
	LEAQ (BX)(AX*8), BX
	MOVQ p_base+32(FP), AX
	MOVQ po+56(FP), CX
	LEAQ (AX)(CX*8), AX
	MOVQ ps+64(FP), R8
	SHLQ $3, R8
	MOVQ b_base+72(FP), R12
	MOVQ bo+96(FP), CX
	LEAQ (R12)(CX*8), R12
	MOVQ bs+104(FP), R9
	SHLQ $3, R9
	MOVQ c_base+112(FP), R13
	MOVQ co+136(FP), CX
	LEAQ (R13)(CX*8), R13
	MOVQ cs+144(FP), R10
	SHLQ $3, R10
	MOVQ nv+152(FP), R11

groups:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	MOVQ AX, SI
	MOVQ R12, DX
	MOVQ R13, DI
	MOVQ nu+160(FP), CX

	PCALIGN $32
rows:
	VBROADCASTSD (SI), Y2
	VMOVUPD (DX), Y3
	VMOVUPD 32(DX), Y4
	VMULPD Y2, Y3, Y3
	VMULPD Y2, Y4, Y4
	VMULPD (DI), Y3, Y3
	VMULPD 32(DI), Y4, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ R8, SI
	ADDQ R9, DX
	ADDQ R10, DI
	DECQ CX
	JNZ rows

	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ $64, BX
	ADDQ $64, R12
	ADDQ $64, R13
	SUBQ $8, R11
	JNZ groups
	VZEROUPPER
	RET
