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

// func axpyPanel(o, a *float64, sa int, b *float64, n, terms int, fromZero bool)
//
// The axpy form. The terms are taken four at a time, for every j < n
//
//	o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// where a_t = a[t·sa] and b_t = b[t·n ..], row t of a row-major matrix with n
// columns, and the last terms mod 4 one at a time, o[j] = o[j] + a_t·b_t[j].
// Eight j per iteration, then four, then a scalar tail. With fromZero (terms
// must then be at least 4) the first group does not read o: its sums start
// from a cleared register, +0 + a0·b0[j] — the value a zeroed o would have
// given, a −0 product included.
//
// AXPY4_n is one group's arithmetic on n-wide registers, the running sums
// starting from S0 (and S1) and ending in Y0 (and Y1).
#define AXPY4_8(S0, S1) \
	VMULPD  (DX)(AX*1), Y12, Y2; \
	VMULPD  32(DX)(AX*1), Y12, Y3; \
	VADDPD  Y2, S0, Y0; \
	VADDPD  Y3, S1, Y1; \
	VMULPD  (R11)(AX*1), Y13, Y4; \
	VMULPD  32(R11)(AX*1), Y13, Y5; \
	VADDPD  Y4, Y0, Y0; \
	VADDPD  Y5, Y1, Y1; \
	VMULPD  (R12)(AX*1), Y14, Y6; \
	VMULPD  32(R12)(AX*1), Y14, Y7; \
	VADDPD  Y6, Y0, Y0; \
	VADDPD  Y7, Y1, Y1; \
	VMULPD  (R13)(AX*1), Y15, Y8; \
	VMULPD  32(R13)(AX*1), Y15, Y9; \
	VADDPD  Y8, Y0, Y0; \
	VADDPD  Y9, Y1, Y1; \
	VMOVUPD Y0, (DI)(AX*1); \
	VMOVUPD Y1, 32(DI)(AX*1); \
	ADDQ    $64, AX

#define AXPY4_4(S0) \
	VMULPD  (DX)(AX*1), Y12, Y2; \
	VADDPD  Y2, S0, Y0; \
	VMULPD  (R11)(AX*1), Y13, Y4; \
	VADDPD  Y4, Y0, Y0; \
	VMULPD  (R12)(AX*1), Y14, Y6; \
	VADDPD  Y6, Y0, Y0; \
	VMULPD  (R13)(AX*1), Y15, Y8; \
	VADDPD  Y8, Y0, Y0; \
	VMOVUPD Y0, (DI)(AX*1); \
	ADDQ    $32, AX

#define AXPY4_1(S0) \
	VMULSD (DX)(AX*1), X12, X2; \
	VADDSD X2, S0, X0; \
	VMULSD (R11)(AX*1), X13, X4; \
	VADDSD X4, X0, X0; \
	VMULSD (R12)(AX*1), X14, X6; \
	VADDSD X6, X0, X0; \
	VMULSD (R13)(AX*1), X15, X8; \
	VADDSD X8, X0, X0; \
	VMOVSD X0, (DI)(AX*1); \
	ADDQ   $8, AX

TEXT ·axpyPanel(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ sa+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ terms+40(FP), R10
	MOVBQZX fromZero+48(FP), R14
	SHLQ $3, R8              // a's stride and the row length in bytes
	SHLQ $3, CX
	MOVQ CX, BX
	ANDQ $-64, BX            // end of the eight-wide part
	VXORPD Y11, Y11, Y11     // the +0 a from-zero group starts its sums from

axpy_group:
	CMPQ R10, $4
	JLT  axpy_term
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
	TESTQ R14, R14
	JNZ   axpyz_8

axpy_8:
	CMPQ AX, BX
	JGE  axpy_4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	AXPY4_8(Y0, Y1)
	JMP  axpy_8

axpy_4:
	TESTQ $32, CX            // four more elements left?
	JZ    axpy_1
	VMOVUPD (DI)(AX*1), Y0
	AXPY4_4(Y0)

axpy_1:
	CMPQ AX, CX
	JGE  axpy_next
	VMOVSD (DI)(AX*1), X0
	AXPY4_1(X0)
	JMP  axpy_1

axpyz_8:
	CMPQ AX, BX
	JGE  axpyz_4
	AXPY4_8(Y11, Y11)
	JMP  axpyz_8

axpyz_4:
	TESTQ $32, CX
	JZ    axpyz_1
	AXPY4_4(Y11)

axpyz_1:
	CMPQ AX, CX
	JGE  axpy_next
	AXPY4_1(X11)
	JMP  axpyz_1

axpy_next:
	LEAQ (DX)(CX*4), DX
	SUBQ $4, R10
	XORQ R14, R14            // only the first group starts from zero
	JMP  axpy_group

axpy_term:
	TESTQ R10, R10
	JLE   axpy_done
	VBROADCASTSD (SI), Y12
	ADDQ R8, SI
	XORQ AX, AX

axpyt_4:
	LEAQ 32(AX), R11
	CMPQ R11, CX
	JGT  axpyt_1
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (DX)(AX*1), Y12, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	MOVQ    R11, AX
	JMP     axpyt_4

axpyt_1:
	CMPQ AX, CX
	JGE  axpyt_next
	VMOVSD (DI)(AX*1), X0
	VMULSD (DX)(AX*1), X12, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    axpyt_1

axpyt_next:
	ADDQ CX, DX
	DECQ R10
	JMP  axpy_term

axpy_done:
	VZEROUPPER
	RET

// func dotTiles(out *float64, n int, a, b *float64, k, tiles int, seeded bool)
//
// The dot form, on row-major a and b with k columns and out with n. For
// t = 0 .. tiles-1, i < 4 and j < 4:
//
//	out[i·n + 4t+j] = seed + Σ_{p < k} a[i·k + p] · b[(4t+j)·k + p]
//
// summed in ascending p from seed = +0, or, when seeded, from the element's
// prior value — the chain a fold over several calls continues. One tile keeps
// four accumulators, one per row of a, whose four lanes are the tile's four
// rows of b. Four p at a time: four
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
TEXT ·dotTiles(SB), NOSPLIT, $0-49
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
	CMPB  seeded+48(FP), $0
	JNE   dot_seed
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP   dot_terms

dot_seed:
	MOVQ n+8(FP), AX         // the tile as dot_store lays it out
	SHLQ $3, AX
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (DI)(AX*2), Y2
	LEAQ    (AX)(AX*2), AX
	VMOVUPD (DI)(AX*1), Y3

dot_terms:
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

// func copyRowsVec(dst *float64, ds int, src *float64, ss int, rows, n int)
//
// The strided row copy of the channel-major conv lowering: for r < rows and
// j < n, dst[r·ds + j] = src[r·ss + j]. Four elements per vector move, then
// one at a time through an integer register — either way the bits are moved,
// never interpreted.
TEXT ·copyRowsVec(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ n+40(FP), CX
	SHLQ $3, R8              // both strides and the run length in bytes
	SHLQ $3, R9
	SHLQ $3, CX
	MOVQ CX, BX
	ANDQ $-32, BX            // end of the four-wide part

copy_row:
	TESTQ R10, R10
	JLE   copy_done
	XORQ  AX, AX
	TESTQ BX, BX
	JZ    copy_1

copy_4:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     copy_4

copy_1:
	CMPQ AX, CX
	JGE  copy_next
	MOVQ (SI)(AX*1), DX
	MOVQ DX, (DI)(AX*1)
	ADDQ $8, AX
	JMP  copy_1

copy_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JMP  copy_row

copy_done:
	VZEROUPPER
	RET

// func addRowsVec(dst *float64, ds int, src *float64, ss int, rows, n int)
//
// The strided row scatter-add: for r < rows and j < n,
// dst[r·ds + j] = dst[r·ds + j] + src[r·ss + j] — one addition per element,
// the destination first, as in the Go loop.
TEXT ·addRowsVec(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ n+40(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, CX
	MOVQ CX, BX
	ANDQ $-32, BX

add_row:
	TESTQ R10, R10
	JLE   add_done
	XORQ  AX, AX
	TESTQ BX, BX
	JZ    add_1

add_4:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     add_4

add_1:
	CMPQ AX, CX
	JGE  add_next
	VMOVSD (DI)(AX*1), X0
	VADDSD (SI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    add_1

add_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JMP  add_row

add_done:
	VZEROUPPER
	RET

// reluKeep maps the four sign-test bits VMOVMSKPD collects to four bool bytes:
// entry i holds byte j = bit j of i.
DATA reluKeep<>+0(SB)/4, $0x00000000
DATA reluKeep<>+4(SB)/4, $0x00000001
DATA reluKeep<>+8(SB)/4, $0x00000100
DATA reluKeep<>+12(SB)/4, $0x00000101
DATA reluKeep<>+16(SB)/4, $0x00010000
DATA reluKeep<>+20(SB)/4, $0x00010001
DATA reluKeep<>+24(SB)/4, $0x00010100
DATA reluKeep<>+28(SB)/4, $0x00010101
DATA reluKeep<>+32(SB)/4, $0x01000000
DATA reluKeep<>+36(SB)/4, $0x01000001
DATA reluKeep<>+40(SB)/4, $0x01000100
DATA reluKeep<>+44(SB)/4, $0x01000101
DATA reluKeep<>+48(SB)/4, $0x01010000
DATA reluKeep<>+52(SB)/4, $0x01010001
DATA reluKeep<>+56(SB)/4, $0x01010100
DATA reluKeep<>+60(SB)/4, $0x01010101
GLOBL reluKeep<>(SB), RODATA|NOPTR, $64

// func reluVec(out *float64, keep *bool, x *float64, n int)
//
// For i < n: keep[i] = x[i] > 0, out[i] = x[i] where kept and +0 elsewhere.
// The compare is GT_OQ against +0 — false for −0 and for a NaN of either sign,
// like the Go loop's v > 0 — and its all-ones-or-zero lanes are ANDed with the
// value, so a kept value keeps its bits; VMOVMSKPD gathers the lanes' sign
// bits and reluKeep spells them as bool bytes, exactly 0 or 1.
TEXT ·reluVec(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ keep+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	LEAQ reluKeep<>(SB), R8
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX             // end of the four-wide part
	JZ   relu_1

relu_4:
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x1e, Y15, Y0, Y1
	VANDPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVMSKPD Y1, R9
	MOVL      (R8)(R9*4), R9
	MOVL      R9, (DX)(AX*1)
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       relu_4

relu_1:
	CMPQ AX, CX
	JGE  relu_done
	VMOVSD    (SI)(AX*8), X0
	VCMPSD    $0x1e, X15, X0, X1
	VANDPD    X1, X0, X0
	VMOVSD    X0, (DI)(AX*8)
	VMOVMSKPD X1, R9
	ANDL      $1, R9
	MOVB      R9, (DX)(AX*1)
	INCQ      AX
	JMP       relu_1

relu_done:
	VZEROUPPER
	RET

// func reluMaskVec(keep *bool, x *float64, n int)
//
// reluVec's mask alone: for i < n, keep[i] = x[i] > 0, the same GT_OQ compare,
// VMOVMSKPD and reluKeep bytes, with no rectified value stored. It rebuilds
// a dropped mask from the rectifier's output, whose elements are > 0 exactly
// where the input's were.
TEXT ·reluMaskVec(SB), NOSPLIT, $0-24
	MOVQ keep+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ reluKeep<>(SB), R8
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   relumask_1

relumask_4:
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x1e, Y15, Y0, Y1
	VMOVMSKPD Y1, R9
	MOVL      (R8)(R9*4), R9
	MOVL      R9, (DX)(AX*1)
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       relumask_4

relumask_1:
	CMPQ AX, CX
	JGE  relumask_done
	VMOVSD    (SI)(AX*8), X0
	VCMPSD    $0x1e, X15, X0, X1
	VMOVMSKPD X1, R9
	ANDL      $1, R9
	MOVB      R9, (DX)(AX*1)
	INCQ      AX
	JMP       relumask_1

relumask_done:
	VZEROUPPER
	RET

// func reluGradVec(gin, gradOut *float64, keep *bool, n int)
//
// For i < n: gin[i] = gradOut[i] where keep[i], +0 elsewhere. Four bool bytes
// widen to four quadwords of 0 or 1; 0 − them is the all-ones-or-zero mask the
// gradient is ANDed with, so a kept gradient keeps its bits.
TEXT ·reluGradVec(SB), NOSPLIT, $0-32
	MOVQ gin+0(FP), DI
	MOVQ gradOut+8(FP), SI
	MOVQ keep+16(FP), DX
	MOVQ n+24(FP), CX
	VPXOR Y15, Y15, Y15
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   relugrad_1

relugrad_4:
	VPMOVZXBQ (DX)(AX*1), Y1
	VPSUBQ    Y1, Y15, Y1
	VANDPD    (SI)(AX*8), Y1, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       relugrad_4

relugrad_1:
	CMPQ AX, CX
	JGE  relugrad_done
	MOVBQZX (DX)(AX*1), R9
	NEGQ    R9
	ANDQ    (SI)(AX*8), R9
	MOVQ    R9, (DI)(AX*8)
	INCQ    AX
	JMP     relugrad_1

relugrad_done:
	VZEROUPPER
	RET

// poolCols holds the window offsets of four adjacent outputs in their input
// row pair: output ox's window starts two columns after output ox−1's.
DATA poolCols<>+0(SB)/8, $0
DATA poolCols<>+8(SB)/8, $2
DATA poolCols<>+16(SB)/8, $4
DATA poolCols<>+24(SB)/8, $6
GLOBL poolCols<>(SB), RODATA|NOPTR, $32

// POOL_PICK runs one output group's window compares, lane by lane, in the
// scalar loop's order: B starts as the (0,0) candidate and OFF as its offset
// 0; then (0,1), (1,0) and (1,1) — P01, P10, P11, at offsets ONE, W0 and W1 —
// each replace both where the candidate is strictly greater than B. M is
// scratch. The compare is GT_OQ, false when either side is a NaN, like Go's >.
#define POOL_PICK(B, P01, P10, P11, OFF, M, ONE, W0, W1) \
	VCMPPD    $0x1e, B, P01, M; \
	VBLENDVPD M, P01, B, B; \
	VANDPD    M, ONE, OFF; \
	VCMPPD    $0x1e, B, P10, M; \
	VBLENDVPD M, P10, B, B; \
	VBLENDVPD M, W0, OFF, OFF; \
	VCMPPD    $0x1e, B, P11, M; \
	VBLENDVPD M, P11, B, B; \
	VBLENDVPD M, W1, OFF, OFF

// func maxPool2Vec(out *float64, arg *int, x *float64, rows, w int)
//
// The 2×2, stride-2 max pool of maxPool2 (conv.go) over rows row pairs of
// width w (even) laid end to end in x: row pair r pools into the w/2 outputs
// out[r·w/2 ..] (skipped when out is nil) and arg[r·w/2 ..], and
// arg = 2r·w + 2·ox + the winner's offset in the window (0, 1, w or w+1) —
// its index in x. Four outputs per step, from columns j..j+7 of each input
// row: two registers of two 128-bit loads each, the second inserted as the
// upper half, hold columns j..j+1 and j+4..j+5, and j+2..j+3 and j+6..j+7, so
// VUNPCKLPD and VUNPCKHPD, which work within each half, leave each window
// position of the four outputs in one register in output order. Then two outputs at a time the same way on 128-bit registers,
// then one. Candidates and offsets are chosen by blend on the compare mask,
// never by a jump, so the winner is the scalar loop's: a tie keeps the earlier
// position and a NaN never displaces an earlier candidate. Offsets are
// integers moved by bitwise selects and added with VPADDQ, never rounded.
TEXT ·maxPool2Vec(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), BX
	MOVQ BX, R10
	SHLQ $3, R10             // w in bytes: the second row of a pair
	MOVQ BX, CX
	SHRQ $1, CX              // ow, outputs per row pair
	XORQ  R9, R9             // out's advance per row pair: 0 when nil
	TESTQ DI, DI
	JZ    pool_consts
	MOVQ  CX, R9
	SHLQ  $3, R9

pool_consts:
	MOVQ         $1, AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11    // offset of (0,1)
	VMOVQ        BX, X12
	VPBROADCASTQ X12, Y12    // offset of (1,0)
	LEAQ         1(BX), AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13    // offset of (1,1)
	VMOVDQU      poolCols<>(SB), Y14
	XORQ         R11, R11    // top: the index in x of the pair's first element

pool_row:
	TESTQ R8, R8
	JLE   pool_done
	XORQ  AX, AX             // ox
	MOVQ  SI, R12            // the window of output ox in the top row

pool_4:
	LEAQ 4(AX), R13
	CMPQ R13, CX
	JGT  pool_2
	VMOVUPD     (R12), X0
	VINSERTF128 $1, 32(R12), Y0, Y0
	VMOVUPD     16(R12), X1
	VINSERTF128 $1, 48(R12), Y1, Y1
	VMOVUPD     (R12)(R10*1), X2
	VINSERTF128 $1, 32(R12)(R10*1), Y2, Y2
	VMOVUPD     16(R12)(R10*1), X3
	VINSERTF128 $1, 48(R12)(R10*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4   // (0,0) of outputs ox..ox+3
	VUNPCKHPD   Y1, Y0, Y5   // (0,1)
	VUNPCKLPD   Y3, Y2, Y6   // (1,0)
	VUNPCKHPD   Y3, Y2, Y7   // (1,1)
	POOL_PICK(Y4, Y5, Y6, Y7, Y8, Y9, Y11, Y12, Y13)
	LEAQ         (R11)(AX*2), R14
	VMOVQ        R14, X10
	VPBROADCASTQ X10, Y10
	VPADDQ       Y14, Y10, Y10
	VPADDQ       Y10, Y8, Y8
	VMOVDQU      Y8, (DX)(AX*8)
	TESTQ        DI, DI
	JZ           pool_4_next
	VMOVUPD      Y4, (DI)(AX*8)

pool_4_next:
	ADDQ $64, R12
	MOVQ R13, AX
	JMP  pool_4

pool_2:
	LEAQ 2(AX), R13
	CMPQ R13, CX
	JGT  pool_1
	VMOVUPD   (R12), X0
	VMOVUPD   16(R12), X1
	VMOVUPD   (R12)(R10*1), X2
	VMOVUPD   16(R12)(R10*1), X3
	VUNPCKLPD X1, X0, X4
	VUNPCKHPD X1, X0, X5
	VUNPCKLPD X3, X2, X6
	VUNPCKHPD X3, X2, X7
	POOL_PICK(X4, X5, X6, X7, X8, X9, X11, X12, X13)
	LEAQ         (R11)(AX*2), R14
	VMOVQ        R14, X10
	VPBROADCASTQ X10, X10
	VPADDQ       X14, X10, X10
	VPADDQ       X10, X8, X8
	VMOVDQU      X8, (DX)(AX*8)
	TESTQ        DI, DI
	JZ           pool_2_next
	VMOVUPD      X4, (DI)(AX*8)

pool_2_next:
	ADDQ $32, R12
	MOVQ R13, AX

pool_1:
	CMPQ AX, CX
	JGE  pool_next
	VMOVSD (R12), X4
	VMOVSD 8(R12), X5
	VMOVSD (R12)(R10*1), X6
	VMOVSD 8(R12)(R10*1), X7
	POOL_PICK(X4, X5, X6, X7, X8, X9, X11, X12, X13)
	LEAQ   (R11)(AX*2), R14
	VMOVQ  R14, X10
	VPADDQ X10, X8, X8
	VMOVQ  X8, (DX)(AX*8)
	TESTQ  DI, DI
	JZ     pool_next
	VMOVSD X4, (DI)(AX*8)

pool_next:
	ADDQ R9, DI
	LEAQ (DX)(CX*8), DX
	LEAQ (SI)(R10*2), SI
	LEAQ (R11)(BX*2), R11
	DECQ R8
	JMP  pool_row

pool_done:
	VZEROUPPER
	RET

// The elementwise family (elem.go): one pass over a span, four elements per
// vector step and then one at a time, one rounded operation per element and
// pass with the destination's value as the first operand, as the Go loops
// write it.
// Its adds run on addRowsVec above.

// func subScaledVec(dst, src *float64, s float64, n int)
//
// For i < n: dst[i] = dst[i] − s·src[i]. The product is rounded before the
// subtraction — a multiply, then a subtract, never a fused step.
TEXT ·subScaledVec(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD s+16(FP), Y15
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX         // end of the four-wide part
	JZ           subsc_1

subsc_4:
	VMULPD  (SI)(AX*8), Y15, Y1
	VMOVUPD (DI)(AX*8), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     subsc_4

subsc_1:
	CMPQ AX, CX
	JGE  subsc_done
	VMULSD (SI)(AX*8), X15, X1
	VMOVSD (DI)(AX*8), X0
	VSUBSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    subsc_1

subsc_done:
	VZEROUPPER
	RET

// func scaleVec(dst *float64, s float64, n int)
//
// For i < n: dst[i] = dst[i]·s.
TEXT ·scaleVec(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSD s+8(FP), Y15
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           scale_1

scale_4:
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     scale_4

scale_1:
	CMPQ AX, CX
	JGE  scale_done
	VMOVSD (DI)(AX*8), X0
	VMULSD X15, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    scale_1

scale_done:
	VZEROUPPER
	RET
