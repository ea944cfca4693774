//go:build amd64

#include "textflag.h"

// Operand order, as in run_amd64.s: a product is VMULPD x, v, p (p = v·x,
// the value of A the first source) and an accumulation VADDPD row, p, row
// (the product the first source, as the Go loops compile r[i] += v·x);
// b − r is VSUBPD r, b. When both sources of an operation are NaN the
// first one's payload is the result's, so the order is part of the bits.

// func residualRunAVX2(r, d []float64, ptr, ind []int, val, x []float64, j int) int
//
// For each column j, j+1, … < len(ptr)-1 whose eight x lanes are all
// nonzero: for q in [ptr[j], ptr[j+1]) and i = ind[q], row i of r becomes
// val[q]·x + r and row i of d becomes |val[q]|·|x| + d, lanes 0-3 in the
// low register of each pair and 4-7 in the high one. Returns the first
// column not applied.
TEXT ·residualRunAVX2(SB), NOSPLIT, $0-160
	MOVQ         r_base+0(FP), DI
	MOVQ         d_base+24(FP), SI
	MOVQ         ptr_base+48(FP), R8
	MOVQ         ptr_len+56(FP), R9
	DECQ         R9
	MOVQ         ind_base+72(FP), R10
	MOVQ         val_base+96(FP), R11
	MOVQ         x_base+120(FP), R12
	MOVQ         j+144(FP), BX
	MOVQ         $0x7fffffffffffffff, AX
	VMOVQ        AX, X15
	VBROADCASTSD X15, Y15
	VXORPD       Y14, Y14, Y14

col:
	CMPQ    BX, R9
	JGE     done
	MOVQ    BX, AX
	SHLQ    $6, AX
	VMOVUPD (R12)(AX*1), Y0
	VMOVUPD 32(R12)(AX*1), Y1
	VCMPPD  $0, Y14, Y0, Y2
	VCMPPD  $0, Y14, Y1, Y3
	VORPD   Y3, Y2, Y2
	VPTEST  Y2, Y2
	JNE     done
	VANDPD  Y15, Y0, Y2
	VANDPD  Y15, Y1, Y3
	MOVQ    (R8)(BX*8), CX
	MOVQ    8(R8)(BX*8), DX
	CMPQ    CX, DX
	JGE     next

entry:
	MOVQ         (R10)(CX*8), AX
	SHLQ         $6, AX
	VBROADCASTSD (R11)(CX*8), Y4
	VANDPD       Y15, Y4, Y5
	VMULPD       Y0, Y4, Y6
	VMULPD       Y1, Y4, Y7
	VMULPD       Y2, Y5, Y8
	VMULPD       Y3, Y5, Y9
	VADDPD       (DI)(AX*1), Y6, Y6
	VADDPD       32(DI)(AX*1), Y7, Y7
	VADDPD       (SI)(AX*1), Y8, Y8
	VADDPD       32(SI)(AX*1), Y9, Y9
	VMOVUPD      Y6, (DI)(AX*1)
	VMOVUPD      Y7, 32(DI)(AX*1)
	VMOVUPD      Y8, (SI)(AX*1)
	VMOVUPD      Y9, 32(SI)(AX*1)
	INCQ         CX
	CMPQ         CX, DX
	JLT          entry

next:
	INCQ BX
	JMP  col

done:
	MOVQ BX, ret+152(FP)
	VZEROUPPER
	RET

// BERR4 is one half-row (four lanes at byte offset off) of the berr pass:
// r = b − r stored back, then with ri = |r| and dd = |b| + d it ORs the
// lanes where either is NaN into NAN, those where ri = +Inf or ri > 0
// over a dd that is not positive into INF, and takes ri/dd, zeroed where
// dd is not positive, into the maximum MAX.
#define BERR4(off, NAN, INF, MAX) \
	VMOVUPD off(DX), Y6          \
	VMOVUPD off(DI), Y7          \
	VSUBPD  Y7, Y6, Y7           \
	VMOVUPD Y7, off(DI)          \
	VANDPD  Y13, Y7, Y7          \
	VANDPD  Y13, Y6, Y6          \
	VADDPD  off(SI), Y6, Y8      \
	VCMPPD  $3, Y7, Y8, Y9       \
	VORPD   Y9, NAN, NAN         \
	VCMPPD  $0, Y14, Y7, Y9      \
	VORPD   Y9, INF, INF         \
	VCMPPD  $0x1e, Y15, Y8, Y10  \
	VCMPPD  $0x1e, Y15, Y7, Y11  \
	VANDNPD Y11, Y10, Y11        \
	VORPD   Y11, INF, INF        \
	VDIVPD  Y8, Y7, Y12          \
	VANDPD  Y10, Y12, Y12        \
	VMAXPD  Y12, MAX, MAX

// func residualBerrAVX2(r, d, b []float64, berr *[8]float64) (nan, inf uint8)
TEXT ·residualBerrAVX2(SB), NOSPLIT, $0-82
	MOVQ         r_base+0(FP), DI
	MOVQ         d_base+24(FP), SI
	MOVQ         b_base+48(FP), DX
	MOVQ         b_len+56(FP), CX
	MOVQ         berr+72(FP), BX
	SHRQ         $3, CX
	MOVQ         $0x7fffffffffffffff, AX
	VMOVQ        AX, X13
	VBROADCASTSD X13, Y13
	MOVQ         $0x7ff0000000000000, AX
	VMOVQ        AX, X14
	VBROADCASTSD X14, Y14
	VXORPD       Y15, Y15, Y15
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	TESTQ        CX, CX
	JZ           out

row:
	BERR4(0, Y0, Y2, Y4)
	BERR4(32, Y1, Y3, Y5)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  row

out:
	VMOVUPD   Y4, (BX)
	VMOVUPD   Y5, 32(BX)
	VMOVMSKPD Y0, AX
	VMOVMSKPD Y1, CX
	SHLQ      $4, CX
	ORQ       CX, AX
	MOVB      AX, nan+80(FP)
	VMOVMSKPD Y2, AX
	VMOVMSKPD Y3, CX
	SHLQ      $4, CX
	ORQ       CX, AX
	MOVB      AX, inf+81(FP)
	VZEROUPPER
	RET
