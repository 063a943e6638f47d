#include "textflag.h"

// func heldRow8(s []float64, so int, p []float64, po, ps int, b []float64, bo, bs int, c []float64, co, cs int, nv, nu int)
//
// Eight cells of the store row at a time, nv/8 groups: X0–X3 hold
// s[so+t .. so+t+7], two cells per register, across all nu rows. Per row,
// p's element broadcasts to both lanes of X4, and each pair of cells is a
// MULPD of b's pair by p, a MULPD of that product by c's pair, then an
// ADDPD into the accumulator: two rounded products and the addition, as
// Axpy's s[v] += float64(float64(p*b[v])*c[v]) does per cell. SSE2 only
// (the amd64 baseline), and never a fused multiply-add. Legacy SSE memory
// operands must be 16-byte aligned, so every vector load is a MOVUPD.
TEXT ·heldRow8(SB), NOSPLIT, $0-168
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
	MOVUPD (BX), X0
	MOVUPD 16(BX), X1
	MOVUPD 32(BX), X2
	MOVUPD 48(BX), X3
	MOVQ AX, SI
	MOVQ R12, DX
	MOVQ R13, DI
	MOVQ nu+160(FP), CX

	PCALIGN $32
rows:
	MOVSD (SI), X4
	UNPCKLPD X4, X4
	MOVUPD (DX), X5
	MOVUPD 16(DX), X6
	MOVUPD 32(DX), X7
	MOVUPD 48(DX), X8
	MULPD X4, X5
	MULPD X4, X6
	MULPD X4, X7
	MULPD X4, X8
	MOVUPD (DI), X9
	MOVUPD 16(DI), X10
	MOVUPD 32(DI), X11
	MOVUPD 48(DI), X12
	MULPD X9, X5
	MULPD X10, X6
	MULPD X11, X7
	MULPD X12, X8
	ADDPD X5, X0
	ADDPD X6, X1
	ADDPD X7, X2
	ADDPD X8, X3
	ADDQ R8, SI
	ADDQ R9, DX
	ADDQ R10, DI
	DECQ CX
	JNZ rows

	MOVUPD X0, (BX)
	MOVUPD X1, 16(BX)
	MOVUPD X2, 32(BX)
	MOVUPD X3, 48(BX)
	ADDQ $64, BX
	ADDQ $64, R12
	ADDQ $64, R13
	SUBQ $8, R11
	JNZ groups
	RET
