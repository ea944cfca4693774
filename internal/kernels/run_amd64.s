//go:build amd64

#include "textflag.h"

// Operand order, everywhere below: a product is VMULPD u, v, p (p = v·u,
// the column value v the first source, as the Go loops compile it) and a
// subtraction VSUBPD p, w, w (w the first source). When both sources of
// an operation are NaN the first one's payload is the result's, so the
// order is part of the bits.

// GATHER4 loads rows ind[q+off/8 .. q+off/8+3] of w (SI at ind[q], DI
// at w) into the four lanes of Y, through its low half X and XT.
#define GATHER4(off, Y, X, XT) \
	MOVQ        off(SI), R8        \
	MOVQ        off+8(SI), R9      \
	VMOVSD      (DI)(R8*8), X      \
	VMOVHPD     (DI)(R9*8), X, X   \
	MOVQ        off+16(SI), R8     \
	MOVQ        off+24(SI), R9     \
	VMOVSD      (DI)(R8*8), XT     \
	VMOVHPD     (DI)(R9*8), XT, XT \
	VINSERTF128 $1, XT, Y, Y

// SCATTER4 stores the four lanes of Y back to the rows GATHER4 read.
#define SCATTER4(off, Y, X, XT) \
	VEXTRACTF128 $1, Y, XT         \
	MOVQ         off(SI), R8       \
	MOVQ         off+8(SI), R9     \
	VMOVSD       X, (DI)(R8*8)     \
	VMOVHPD      X, (DI)(R9*8)     \
	MOVQ         off+16(SI), R8    \
	MOVQ         off+24(SI), R9    \
	VMOVSD       XT, (DI)(R8*8)    \
	VMOVHPD      XT, (DI)(R9*8)

// func spAxpyRunAVX2(w []float64, ind []int, val []float64, end []int, u []float64)
//
// For each row q in [0, len(ind)) and each k in [0, len(u)), ascending:
// w[ind[q]] -= val[end[k]-len(ind)+q] * u[k]. DX walks val by row from
// val - len(ind) (the column values of row q sit at DX + end[k]*8), SI
// walks ind. A turn holds sixteen rows in Y0-Y3: four chains of
// subtractions, one per register, so that each waits on its own previous
// result only (four chains measured 7-10 % faster than two on the fill
// and circuit factorizations); then a step of eight rows, one of four,
// and single rows take the tail.
TEXT ·spAxpyRunAVX2(SB), NOSPLIT, $0-120
	MOVQ  w_base+0(FP), DI
	MOVQ  ind_base+24(FP), SI
	MOVQ  ind_len+32(FP), CX
	MOVQ  val_base+48(FP), DX
	MOVQ  end_base+72(FP), R10
	MOVQ  u_base+96(FP), R11
	MOVQ  u_len+104(FP), R12
	TESTQ R12, R12
	JZ    done
	MOVQ  CX, R8
	SHLQ  $3, R8
	SUBQ  R8, DX
	CMPQ  CX, $16
	JLT   eight

turn16:
	GATHER4(0, Y0, X0, X9)
	GATHER4(32, Y1, X1, X9)
	GATHER4(64, Y2, X2, X9)
	GATHER4(96, Y3, X3, X9)
	XORQ BX, BX

col16:
	MOVQ         (R10)(BX*8), R8
	VBROADCASTSD (R11)(BX*8), Y4
	VMOVUPD      (DX)(R8*8), Y5
	VMOVUPD      32(DX)(R8*8), Y6
	VMOVUPD      64(DX)(R8*8), Y7
	VMOVUPD      96(DX)(R8*8), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	INCQ         BX
	CMPQ         BX, R12
	JLT          col16

	SCATTER4(0, Y0, X0, X9)
	SCATTER4(32, Y1, X1, X9)
	SCATTER4(64, Y2, X2, X9)
	SCATTER4(96, Y3, X3, X9)
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  turn16

eight:
	CMPQ CX, $8
	JLT  four
	GATHER4(0, Y0, X0, X9)
	GATHER4(32, Y1, X1, X9)
	XORQ BX, BX

col8:
	MOVQ         (R10)(BX*8), R8
	VBROADCASTSD (R11)(BX*8), Y4
	VMOVUPD      (DX)(R8*8), Y5
	VMOVUPD      32(DX)(R8*8), Y6
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	INCQ         BX
	CMPQ         BX, R12
	JLT          col8

	SCATTER4(0, Y0, X0, X9)
	SCATTER4(32, Y1, X1, X9)
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, CX

four:
	CMPQ CX, $4
	JLT  one
	GATHER4(0, Y0, X0, X9)
	XORQ BX, BX

col4:
	MOVQ         (R10)(BX*8), R8
	VBROADCASTSD (R11)(BX*8), Y4
	VMOVUPD      (DX)(R8*8), Y5
	VMULPD       Y4, Y5, Y5
	VSUBPD       Y5, Y0, Y0
	INCQ         BX
	CMPQ         BX, R12
	JLT          col4

	SCATTER4(0, Y0, X0, X9)
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, CX

one:
	TESTQ CX, CX
	JZ    done

row1:
	MOVQ   (SI), R9
	VMOVSD (DI)(R9*8), X0
	XORQ   BX, BX

col1:
	MOVQ   (R10)(BX*8), R8
	VMOVSD (DX)(R8*8), X5
	VMULSD (R11)(BX*8), X5, X5
	VSUBSD X5, X0, X0
	INCQ   BX
	CMPQ   BX, R12
	JLT    col1

	VMOVSD X0, (DI)(R9*8)
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    row1

done:
	VZEROUPPER
	RET

// func axpyAVX2(y, x []float64, a float64)
//
// y[t] -= x[t] * a for t in [0, len(y)); x holds at least len(y) values.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	CMPQ         CX, $4
	JLT          tail

quad:
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VMULPD  Y0, Y1, Y1
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     quad

tail:
	TESTQ CX, CX
	JZ    end

single:
	VMOVSD (SI), X1
	VMOVSD (DI), X2
	VMULSD X0, X1, X1
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    single

end:
	VZEROUPPER
	RET
