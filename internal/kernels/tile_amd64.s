//go:build amd64

#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	// Leaf 1, ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0: SSE (bit 1) and AVX (bit 2) state saved by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// Leaf 7 subleaf 0, EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func tileAxpyAVX2(t []float64, ind []int, val []float64, x *[8]float64)
//
// For q in [0, len(ind)): row r = t[ind[q]*8 : ind[q]*8+8] becomes
// r - val[q]*x, lanes 0-3 in Y0 and 4-7 in Y1. Two entries per turn of
// the loop; their rows are distinct (a column's indices ascend), so the
// order of their loads and stores does not matter.
TEXT ·tileAxpyAVX2(SB), NOSPLIT, $0-80
	MOVQ    t_base+0(FP), DI
	MOVQ    ind_base+24(FP), SI
	MOVQ    ind_len+32(FP), CX
	MOVQ    val_base+48(FP), DX
	MOVQ    x+72(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	CMPQ    CX, $2
	JLT     tail

pair:
	MOVQ         (SI), R8
	MOVQ         8(SI), R9
	SHLQ         $6, R8
	SHLQ         $6, R9
	VBROADCASTSD (DX), Y2
	VBROADCASTSD 8(DX), Y3
	VMULPD       Y0, Y2, Y4
	VMULPD       Y1, Y2, Y5
	VMULPD       Y0, Y3, Y6
	VMULPD       Y1, Y3, Y7
	VMOVUPD      (DI)(R8*1), Y8
	VMOVUPD      32(DI)(R8*1), Y9
	VMOVUPD      (DI)(R9*1), Y10
	VMOVUPD      32(DI)(R9*1), Y11
	VSUBPD       Y4, Y8, Y8
	VSUBPD       Y5, Y9, Y9
	VSUBPD       Y6, Y10, Y10
	VSUBPD       Y7, Y11, Y11
	VMOVUPD      Y8, (DI)(R8*1)
	VMOVUPD      Y9, 32(DI)(R8*1)
	VMOVUPD      Y10, (DI)(R9*1)
	VMOVUPD      Y11, 32(DI)(R9*1)
	ADDQ         $16, SI
	ADDQ         $16, DX
	SUBQ         $2, CX
	CMPQ         CX, $2
	JGE          pair

tail:
	TESTQ        CX, CX
	JZ           done
	MOVQ         (SI), R8
	SHLQ         $6, R8
	VBROADCASTSD (DX), Y2
	VMULPD       Y0, Y2, Y4
	VMULPD       Y1, Y2, Y5
	VMOVUPD      (DI)(R8*1), Y8
	VMOVUPD      32(DI)(R8*1), Y9
	VSUBPD       Y4, Y8, Y8
	VSUBPD       Y5, Y9, Y9
	VMOVUPD      Y8, (DI)(R8*1)
	VMOVUPD      Y9, 32(DI)(R8*1)

done:
	VZEROUPPER
	RET

// func tileDivAVX2(x *[8]float64, d float64)
//
// x = x / d, lanes 0-3 in Y0 and 4-7 in Y1 (the row the first source).
TEXT ·tileDivAVX2(SB), NOSPLIT, $0-16
	MOVQ         x+0(FP), AX
	VBROADCASTSD d+8(FP), Y2
	VMOVUPD      (AX), Y0
	VMOVUPD      32(AX), Y1
	VDIVPD       Y2, Y0, Y0
	VDIVPD       Y2, Y1, Y1
	VMOVUPD      Y0, (AX)
	VMOVUPD      Y1, 32(AX)
	VZEROUPPER
	RET
