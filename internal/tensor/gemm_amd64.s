#include "textflag.h"

// AVX2 inner bodies of the range kernels in gemm.go. The contract of that file
// holds lane by lane: a SIMD lane is always one output element, and each lane
// runs the scalar loop's sequence — multiply, round, add, in ascending inner
// index — so a body here produces the bits of the Go loop it replaces. There
// is no FMA anywhere in this file: a fused multiply-add rounds once where the
// Go loops round twice.

// func cpuHasAVX2() bool
//
// CPUID leaf 1: OSXSAVE (ECX bit 27) and AVX (bit 28); XCR0 bits 1-2: the OS
// saves XMM and YMM state; CPUID leaf 7 sub-leaf 0: AVX2 (EBX bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func axpyPanel(o, a *float64, sa int, b *float64, n, groups int)
//
// The axpy form. For g = 0 .. groups-1 and every j < n:
//
//	o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// where a_t = a[(4g+t)·sa] and b_t = b[(4g+t)·n ..], row 4g+t of a row-major
// matrix with n columns. Eight j per iteration, then four, then a scalar tail.
TEXT ·axpyPanel(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ sa+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ groups+40(FP), R10
	SHLQ $3, R8              // a's stride and the row length in bytes
	SHLQ $3, CX
	MOVQ CX, BX
	ANDQ $-64, BX            // end of the eight-wide part

axpy_group:
	TESTQ R10, R10
	JZ    axpy_done
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(R8*1), Y13
	LEAQ         (SI)(R8*2), R11
	VBROADCASTSD (R11), Y14
	VBROADCASTSD (R11)(R8*1), Y15
	LEAQ         (R11)(R8*2), SI
	LEAQ (DX)(CX*1), R11     // b1
	LEAQ (DX)(CX*2), R12     // b2
	LEAQ (R11)(CX*2), R13    // b3
	XORQ AX, AX

axpy_8:
	CMPQ AX, BX
	JGE  axpy_4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMULPD  (DX)(AX*1), Y12, Y2
	VMULPD  32(DX)(AX*1), Y12, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R11)(AX*1), Y13, Y4
	VMULPD  32(R11)(AX*1), Y13, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMULPD  (R12)(AX*1), Y14, Y6
	VMULPD  32(R12)(AX*1), Y14, Y7
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMULPD  (R13)(AX*1), Y15, Y8
	VMULPD  32(R13)(AX*1), Y15, Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	JMP     axpy_8

axpy_4:
	TESTQ $32, CX            // four more elements left?
	JZ    axpy_1
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (DX)(AX*1), Y12, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11)(AX*1), Y13, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (R12)(AX*1), Y14, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  (R13)(AX*1), Y15, Y8
	VADDPD  Y8, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX

axpy_1:
	CMPQ AX, CX
	JGE  axpy_next
	VMOVSD (DI)(AX*1), X0
	VMULSD (DX)(AX*1), X12, X2
	VADDSD X2, X0, X0
	VMULSD (R11)(AX*1), X13, X4
	VADDSD X4, X0, X0
	VMULSD (R12)(AX*1), X14, X6
	VADDSD X6, X0, X0
	VMULSD (R13)(AX*1), X15, X8
	VADDSD X8, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    axpy_1

axpy_next:
	LEAQ (DX)(CX*4), DX
	DECQ R10
	JMP  axpy_group

axpy_done:
	VZEROUPPER
	RET

// func dotTiles(out *float64, n int, a, b *float64, k, tiles int)
//
// The dot form, on row-major a and b with k columns and out with n. For
// t = 0 .. tiles-1, i < 4 and j < 4:
//
//	out[i·n + 4t+j] = Σ_{p < k} a[i·k + p] · b[(4t+j)·k + p]
//
// summed from +0 in ascending p. One tile keeps four accumulators, one per row
// of a, whose four lanes are the tile's four rows of b. Four p at a time: four
// rows of b are loaded and transposed in registers so that each register holds
// one p across the four rows,
//
//	Y4 = b0[p..p+3]      VUNPCKLPD/VUNPCKHPD       VPERM2F128
//	Y5 = b1[p..p+3]  →   b0[p]   b1[p]   b0[p+2] b1[p+2]   →  Y4 = b0..b3[p]
//	Y6 = b2[p..p+3]      b0[p+1] b1[p+1] b0[p+3] b1[p+3]      Y5 = b0..b3[p+1]
//	Y7 = b3[p..p+3]      b2[p]   b3[p]   b2[p+2] b3[p+2]      Y6 = b0..b3[p+2]
//	                     b2[p+1] b3[p+1] b2[p+3] b3[p+3]      Y7 = b0..b3[p+3]
//
// and every row of a then takes its four terms in order: broadcast a_i[p],
// multiply, add. The last k mod 4 terms gather their one p from the four rows
// with scalar loads instead.
TEXT ·dotTiles(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), BX
	SHLQ $3, BX              // k in bytes: the row stride of a and b
	MOVQ BX, CX
	ANDQ $-32, CX            // end of the four-at-a-time part
	LEAQ (SI)(BX*1), R8      // a1
	LEAQ (SI)(BX*2), R9      // a2
	LEAQ (R8)(BX*2), R10     // a3

dot_tile:
	CMPQ tiles+40(FP), $0
	JLE  dot_done
	LEAQ  (DX)(BX*1), R11    // b1
	LEAQ  (DX)(BX*2), R12    // b2
	LEAQ  (R11)(BX*2), R13   // b3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    dot_1

dot_p:
	VMOVUPD (DX)(AX*1), Y4
	VMOVUPD (R11)(AX*1), Y5
	VMOVUPD (R12)(AX*1), Y6
	VMOVUPD (R13)(AX*1), Y7
	VUNPCKLPD Y5, Y4, Y8
	VUNPCKHPD Y5, Y4, Y9
	VUNPCKLPD Y7, Y6, Y10
	VUNPCKHPD Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	VBROADCASTSD (SI)(AX*1), Y8
	VBROADCASTSD (R8)(AX*1), Y9
	VBROADCASTSD (R9)(AX*1), Y10
	VBROADCASTSD (R10)(AX*1), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y10, Y10
	VMULPD Y4, Y11, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	VBROADCASTSD 8(SI)(AX*1), Y12
	VBROADCASTSD 8(R8)(AX*1), Y13
	VBROADCASTSD 8(R9)(AX*1), Y14
	VBROADCASTSD 8(R10)(AX*1), Y15
	VMULPD Y5, Y12, Y12
	VMULPD Y5, Y13, Y13
	VMULPD Y5, Y14, Y14
	VMULPD Y5, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD 16(SI)(AX*1), Y8
	VBROADCASTSD 16(R8)(AX*1), Y9
	VBROADCASTSD 16(R9)(AX*1), Y10
	VBROADCASTSD 16(R10)(AX*1), Y11
	VMULPD Y6, Y8, Y8
	VMULPD Y6, Y9, Y9
	VMULPD Y6, Y10, Y10
	VMULPD Y6, Y11, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	VBROADCASTSD 24(SI)(AX*1), Y12
	VBROADCASTSD 24(R8)(AX*1), Y13
	VBROADCASTSD 24(R9)(AX*1), Y14
	VBROADCASTSD 24(R10)(AX*1), Y15
	VMULPD Y7, Y12, Y12
	VMULPD Y7, Y13, Y13
	VMULPD Y7, Y14, Y14
	VMULPD Y7, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  dot_p

dot_1:
	CMPQ AX, BX
	JGE  dot_store
	VMOVSD  (DX)(AX*1), X4
	VMOVHPD (R11)(AX*1), X4, X4
	VMOVSD  (R12)(AX*1), X5
	VMOVHPD (R13)(AX*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VBROADCASTSD (SI)(AX*1), Y8
	VBROADCASTSD (R8)(AX*1), Y9
	VBROADCASTSD (R9)(AX*1), Y10
	VBROADCASTSD (R10)(AX*1), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y10, Y10
	VMULPD Y4, Y11, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	ADDQ $8, AX
	JMP  dot_1

dot_store:
	MOVQ n+8(FP), AX
	SHLQ $3, AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, (DI)(AX*2)
	LEAQ    (AX)(AX*2), AX
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ $32, DI
	LEAQ (DX)(BX*4), DX      // four rows of b on
	DECQ tiles+40(FP)
	JMP  dot_tile

dot_done:
	VZEROUPPER
	RET
