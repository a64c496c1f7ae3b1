#include "textflag.h"

// AVX2 inner bodies of the range kernels in gemm.go. The contract of that file
// holds lane by lane: a SIMD lane is always one output element, and each lane
// runs the scalar loop's sequence — one fused multiply-add per term, in
// ascending inner index, as math.FMA computes it — so a body here produces the
// bits of the Go loop it replaces. The five GEMM bodies (axpyPanel, axpyTile,
// axpyEdge, dotTiles, dotTiles8) are the only place a VFMADD appears; every other body
// rounds each operation on its own, as its Go loop does.

// func cpuHasAVX2FMA() bool
//
// CPUID leaf 1: FMA3 (ECX bit 12), OSXSAVE (bit 27) and AVX (bit 28); XCR0
// bits 1-2: the OS saves XMM and YMM state; CPUID leaf 7 sub-leaf 0: AVX2
// (EBX bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
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

// func axpyPanel(o, a *float64, sa int, b *float64, bs, n, terms int, fromZero bool)
//
// The axpy form. The terms are taken four at a time, for every j < n
//
//	o[j] = fma(a3, b3[j], fma(a2, b2[j], fma(a1, b1[j], fma(a0, b0[j], o[j]))))
//
// where a_t = a[t·sa] and b_t = b[t·bs ..], row t of a row-major matrix with
// bs columns, and the last terms mod 4 one at a time, o[j] = fma(a_t, b_t[j],
// o[j]). Eight j per iteration, then four, then a scalar tail. With fromZero
// (terms must then be at least 4) the first group does not read o: its sums
// start from cleared registers — the +0 a zeroed o would have held.
//
// AXPY4_n is one group's arithmetic on n-wide registers, the running sums in
// Y0 (and Y1), stored back to o.
#define AXPY4_8 \
	VFMADD231PD (DX)(AX*1), Y12, Y0; \
	VFMADD231PD 32(DX)(AX*1), Y12, Y1; \
	VFMADD231PD (R11)(AX*1), Y13, Y0; \
	VFMADD231PD 32(R11)(AX*1), Y13, Y1; \
	VFMADD231PD (R12)(AX*1), Y14, Y0; \
	VFMADD231PD 32(R12)(AX*1), Y14, Y1; \
	VFMADD231PD (R13)(AX*1), Y15, Y0; \
	VFMADD231PD 32(R13)(AX*1), Y15, Y1; \
	VMOVUPD     Y0, (DI)(AX*1); \
	VMOVUPD     Y1, 32(DI)(AX*1); \
	ADDQ        $64, AX

#define AXPY4_4 \
	VFMADD231PD (DX)(AX*1), Y12, Y0; \
	VFMADD231PD (R11)(AX*1), Y13, Y0; \
	VFMADD231PD (R12)(AX*1), Y14, Y0; \
	VFMADD231PD (R13)(AX*1), Y15, Y0; \
	VMOVUPD     Y0, (DI)(AX*1); \
	ADDQ        $32, AX

#define AXPY4_1 \
	VFMADD231SD (DX)(AX*1), X12, X0; \
	VFMADD231SD (R11)(AX*1), X13, X0; \
	VFMADD231SD (R12)(AX*1), X14, X0; \
	VFMADD231SD (R13)(AX*1), X15, X0; \
	VMOVSD      X0, (DI)(AX*1); \
	ADDQ        $8, AX

TEXT ·axpyPanel(SB), NOSPLIT, $0-57
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ sa+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ bs+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ terms+48(FP), R10
	MOVBQZX fromZero+56(FP), R14
	SHLQ $3, R8              // a's stride, b's stride and the row length in bytes
	SHLQ $3, R9
	SHLQ $3, CX
	MOVQ CX, BX
	ANDQ $-64, BX            // end of the eight-wide part

axpy_group:
	CMPQ R10, $4
	JLT  axpy_term
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(R8*1), Y13
	LEAQ         (SI)(R8*2), R11
	VBROADCASTSD (R11), Y14
	VBROADCASTSD (R11)(R8*1), Y15
	LEAQ         (R11)(R8*2), SI
	LEAQ (DX)(R9*1), R11     // b1
	LEAQ (DX)(R9*2), R12     // b2
	LEAQ (R11)(R9*2), R13    // b3
	XORQ AX, AX
	TESTQ R14, R14
	JNZ   axpyz_8

axpy_8:
	CMPQ AX, BX
	JGE  axpy_4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	AXPY4_8
	JMP  axpy_8

axpy_4:
	TESTQ $32, CX            // four more elements left?
	JZ    axpy_1
	VMOVUPD (DI)(AX*1), Y0
	AXPY4_4

axpy_1:
	CMPQ AX, CX
	JGE  axpy_next
	VMOVSD (DI)(AX*1), X0
	AXPY4_1
	JMP  axpy_1

axpyz_8:
	CMPQ AX, BX
	JGE  axpyz_4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	AXPY4_8
	JMP  axpyz_8

axpyz_4:
	TESTQ $32, CX
	JZ    axpyz_1
	VXORPD Y0, Y0, Y0
	AXPY4_4

axpyz_1:
	CMPQ AX, CX
	JGE  axpy_next
	VXORPD X0, X0, X0
	AXPY4_1
	JMP  axpyz_1

axpy_next:
	LEAQ (DX)(R9*4), DX
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
	VMOVUPD     (DI)(AX*1), Y0
	VFMADD231PD (DX)(AX*1), Y12, Y0
	VMOVUPD     Y0, (DI)(AX*1)
	MOVQ        R11, AX
	JMP         axpyt_4

axpyt_1:
	CMPQ AX, CX
	JGE  axpyt_next
	VMOVSD      (DI)(AX*1), X0
	VFMADD231SD (DX)(AX*1), X12, X0
	VMOVSD      X0, (DI)(AX*1)
	ADDQ        $8, AX
	JMP         axpyt_1

axpyt_next:
	ADDQ R9, DX
	DECQ R10
	JMP  axpy_term

axpy_done:
	VZEROUPPER
	RET

// func axpyTile(o *float64, n int, a *float64, rs, ts int, b *float64, terms, groups, blocks int, fromZero bool)
//
// The axpy form on groups×blocks blocks of 4 rows × 12 columns of o, whose
// rows are n elements apart: for r < 4·groups and j < 12·blocks
//
//	o[r·n + j] = fma(a_r,terms−1, b_terms−1[j], … fma(a_r1, b1[j], fma(a_r0, b0[j], o[r·n + j])))
//
// where a_rt = a[r·rs + t·ts] and b_t = b[t·n ..], row t of a row-major
// matrix with n columns. A block stays in Y0–Y11 (three registers a row) over
// every term, loaded once and stored once; with fromZero it starts from
// cleared registers instead of o — the +0 a zeroed o would have held. Per
// term, its twelve b_t[j] are loaded into Y12, Y13 and Y15; per row, a_rt is
// broadcast into Y14 and fused into the row's three accumulators — all
// sixteen registers, seven loads and twelve fused multiply-adds a term. Two
// terms a loop. A lane is one element taking its terms in ascending t, the
// order of axpyPanel and of the Go loops. The groups of a column block run
// one after the other, so they reuse its columns of b while those are in L1.
#define TILE_ROW(A, S0, S1, S2) \
	VBROADCASTSD A, Y14; \
	VFMADD231PD  Y12, Y14, S0; \
	VFMADD231PD  Y13, Y14, S1; \
	VFMADD231PD  Y15, Y14, S2

#define TILE_TERM \
	VMOVUPD (DX), Y12; \
	VMOVUPD 32(DX), Y13; \
	VMOVUPD 64(DX), Y15; \
	TILE_ROW((SI), Y0, Y1, Y2); \
	TILE_ROW((SI)(R8*1), Y3, Y4, Y5); \
	TILE_ROW((SI)(R8*2), Y6, Y7, Y8); \
	TILE_ROW((SI)(R10*1), Y9, Y10, Y11); \
	ADDQ R9, SI; \
	ADDQ CX, DX

TEXT ·axpyTile(SB), NOSPLIT, $0-73
	MOVQ o+0(FP), R14        // the column block's first row of o
	MOVQ n+8(FP), CX
	MOVQ rs+24(FP), R8
	MOVQ ts+32(FP), R9
	MOVQ b+40(FP), AX        // the column block's first row of b
	MOVQ blocks+64(FP), R13
	SHLQ $3, CX              // the row stride of o and b in bytes
	SHLQ $3, R8              // a's strides in bytes
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R10     // a's row 3 of a group
	LEAQ (CX)(CX*2), R11     // o's row 3 of a group

tile_block:
	TESTQ R13, R13
	JLE   tile_done
	MOVQ  R14, DI
	MOVQ  a+16(FP), R15      // the group's coefficients
	MOVQ  groups+56(FP), R12

tile_group:
	TESTQ R12, R12
	JLE   tile_next_block
	MOVQ  R15, SI
	MOVQ  AX, DX
	MOVQ  terms+48(FP), BX
	CMPB  fromZero+72(FP), $0
	JNE   tile_zero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD (DI)(CX*1), Y3
	VMOVUPD 32(DI)(CX*1), Y4
	VMOVUPD 64(DI)(CX*1), Y5
	VMOVUPD (DI)(CX*2), Y6
	VMOVUPD 32(DI)(CX*2), Y7
	VMOVUPD 64(DI)(CX*2), Y8
	VMOVUPD (DI)(R11*1), Y9
	VMOVUPD 32(DI)(R11*1), Y10
	VMOVUPD 64(DI)(R11*1), Y11
	JMP     tile_term

tile_zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

tile_term:
	CMPQ BX, $2
	JLT  tile_last
	TILE_TERM
	TILE_TERM
	SUBQ $2, BX
	JMP  tile_term

tile_last:
	TESTQ BX, BX
	JLE   tile_store
	TILE_TERM

tile_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, (DI)(CX*1)
	VMOVUPD Y4, 32(DI)(CX*1)
	VMOVUPD Y5, 64(DI)(CX*1)
	VMOVUPD Y6, (DI)(CX*2)
	VMOVUPD Y7, 32(DI)(CX*2)
	VMOVUPD Y8, 64(DI)(CX*2)
	VMOVUPD Y9, (DI)(R11*1)
	VMOVUPD Y10, 32(DI)(R11*1)
	VMOVUPD Y11, 64(DI)(R11*1)
	LEAQ (DI)(CX*4), DI      // the next group
	LEAQ (R15)(R8*4), R15
	DECQ R12
	JMP  tile_group

tile_next_block:
	ADDQ $96, R14
	ADDQ $96, AX
	DECQ R13
	JMP  tile_block

tile_done:
	VZEROUPPER
	RET

// gemmMask is twelve quadwords with every bit set, then twelve clear ones. The
// 32 bytes at gemmMask+8·(12−c) are the mask of a register's first c lanes
// (c ≤ 4), and the 96 at gemmMask+8·(12−w) the masks of the first w columns
// of three registers side by side; gemmMask+96 is a mask of no lane.
// VMASKMOVPD reads and writes only the lanes whose mask is set: the others
// load as +0 and never touch memory, so a masked edge reads and writes nothing
// past its columns.
DATA gemmMask<>+0(SB)/8, $-1
DATA gemmMask<>+8(SB)/8, $-1
DATA gemmMask<>+16(SB)/8, $-1
DATA gemmMask<>+24(SB)/8, $-1
DATA gemmMask<>+32(SB)/8, $-1
DATA gemmMask<>+40(SB)/8, $-1
DATA gemmMask<>+48(SB)/8, $-1
DATA gemmMask<>+56(SB)/8, $-1
DATA gemmMask<>+64(SB)/8, $-1
DATA gemmMask<>+72(SB)/8, $-1
DATA gemmMask<>+80(SB)/8, $-1
DATA gemmMask<>+88(SB)/8, $-1
DATA gemmMask<>+96(SB)/8, $0
DATA gemmMask<>+104(SB)/8, $0
DATA gemmMask<>+112(SB)/8, $0
DATA gemmMask<>+120(SB)/8, $0
DATA gemmMask<>+128(SB)/8, $0
DATA gemmMask<>+136(SB)/8, $0
DATA gemmMask<>+144(SB)/8, $0
DATA gemmMask<>+152(SB)/8, $0
DATA gemmMask<>+160(SB)/8, $0
DATA gemmMask<>+168(SB)/8, $0
DATA gemmMask<>+176(SB)/8, $0
DATA gemmMask<>+184(SB)/8, $0
GLOBL gemmMask<>(SB), RODATA|NOPTR, $192

// func axpyEdge(o *float64, n int, a *float64, rs, ts int, b *float64, terms, groups, w int, fromZero bool)
//
// axpyTile's sum on the last w < 12 columns of a row, the columns its blocks
// leave: groups blocks of 4 rows × 12 columns whose lanes past column w are
// masked. o (unless fromZero) and b_t are loaded, and o stored, through
// gemmMask's masks of w columns (R13), so a lane past w holds +0, is never
// stored, and reads or writes no memory. Per term, only the ⌈w/4⌉ registers
// a row that hold a column take it — one, two or three — each as in
// axpyTile: the mask loaded into the register that then takes b_t's masked
// load (Y12, Y13, Y15), a_rt broadcast into Y14 per row.
#define EDGE_B(OFF, B) \
	VMOVUPD    OFF(R13), B; \
	VMASKMOVPD OFF(DX), B, B

#define EDGE_ROW2(A, S0, S1) \
	VBROADCASTSD A, Y14; \
	VFMADD231PD  Y12, Y14, S0; \
	VFMADD231PD  Y13, Y14, S1

#define EDGE_ROW1(A, S0) \
	VBROADCASTSD A, Y14; \
	VFMADD231PD  Y12, Y14, S0

#define EDGE_MASKS \
	VMOVUPD (R13), Y12; \
	VMOVUPD 32(R13), Y13; \
	VMOVUPD 64(R13), Y15

TEXT ·axpyEdge(SB), NOSPLIT, $0-73
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), R15       // the group's coefficients
	MOVQ rs+24(FP), R8
	MOVQ ts+32(FP), R9
	MOVQ b+40(FP), AX        // the edge's first row of b
	MOVQ groups+56(FP), R12
	MOVQ w+64(FP), R14
	SHLQ $3, CX              // the row stride of o and b in bytes
	SHLQ $3, R8              // a's strides in bytes
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R10     // a's row 3 of a group
	LEAQ (CX)(CX*2), R11     // o's row 3 of a group
	MOVQ R14, BX
	NEGQ BX
	LEAQ gemmMask<>+96(SB), R13
	LEAQ (R13)(BX*8), R13    // the masks of w columns
	ADDQ $3, R14
	SHRQ $2, R14             // the registers a row that hold a column

edge_group:
	TESTQ R12, R12
	JLE   edge_done
	MOVQ  R15, SI
	MOVQ  AX, DX
	MOVQ  terms+48(FP), BX
	CMPB  fromZero+72(FP), $0
	JNE   edge_zero
	EDGE_MASKS
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	VMASKMOVPD 64(DI), Y15, Y2
	VMASKMOVPD (DI)(CX*1), Y12, Y3
	VMASKMOVPD 32(DI)(CX*1), Y13, Y4
	VMASKMOVPD 64(DI)(CX*1), Y15, Y5
	VMASKMOVPD (DI)(CX*2), Y12, Y6
	VMASKMOVPD 32(DI)(CX*2), Y13, Y7
	VMASKMOVPD 64(DI)(CX*2), Y15, Y8
	VMASKMOVPD (DI)(R11*1), Y12, Y9
	VMASKMOVPD 32(DI)(R11*1), Y13, Y10
	VMASKMOVPD 64(DI)(R11*1), Y15, Y11
	JMP        edge_terms

edge_zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

edge_terms:
	CMPQ R14, $2
	JLT  edge_term1
	JEQ  edge_term2

edge_term3:
	TESTQ BX, BX
	JLE   edge_store
	EDGE_B(0, Y12)
	EDGE_B(32, Y13)
	EDGE_B(64, Y15)
	TILE_ROW((SI), Y0, Y1, Y2)
	TILE_ROW((SI)(R8*1), Y3, Y4, Y5)
	TILE_ROW((SI)(R8*2), Y6, Y7, Y8)
	TILE_ROW((SI)(R10*1), Y9, Y10, Y11)
	ADDQ R9, SI
	ADDQ CX, DX
	DECQ BX
	JMP  edge_term3

edge_term2:
	TESTQ BX, BX
	JLE   edge_store
	EDGE_B(0, Y12)
	EDGE_B(32, Y13)
	EDGE_ROW2((SI), Y0, Y1)
	EDGE_ROW2((SI)(R8*1), Y3, Y4)
	EDGE_ROW2((SI)(R8*2), Y6, Y7)
	EDGE_ROW2((SI)(R10*1), Y9, Y10)
	ADDQ R9, SI
	ADDQ CX, DX
	DECQ BX
	JMP  edge_term2

edge_term1:
	TESTQ BX, BX
	JLE   edge_store
	EDGE_B(0, Y12)
	EDGE_ROW1((SI), Y0)
	EDGE_ROW1((SI)(R8*1), Y3)
	EDGE_ROW1((SI)(R8*2), Y6)
	EDGE_ROW1((SI)(R10*1), Y9)
	ADDQ R9, SI
	ADDQ CX, DX
	DECQ BX
	JMP  edge_term1

edge_store:
	EDGE_MASKS
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y15, 64(DI)
	VMASKMOVPD Y3, Y12, (DI)(CX*1)
	VMASKMOVPD Y4, Y13, 32(DI)(CX*1)
	VMASKMOVPD Y5, Y15, 64(DI)(CX*1)
	VMASKMOVPD Y6, Y12, (DI)(CX*2)
	VMASKMOVPD Y7, Y13, 32(DI)(CX*2)
	VMASKMOVPD Y8, Y15, 64(DI)(CX*2)
	VMASKMOVPD Y9, Y12, (DI)(R11*1)
	VMASKMOVPD Y10, Y13, 32(DI)(R11*1)
	VMASKMOVPD Y11, Y15, 64(DI)(R11*1)
	LEAQ (DI)(CX*4), DI      // the next group
	LEAQ (R15)(R8*4), R15
	DECQ R12
	JMP  edge_group

edge_done:
	VZEROUPPER
	RET

// The dot form, on row-major a and b with k columns and out with rows ldo
// apart: for the rows i of a tile body and j < cols,
//
//	out[i·ldo + j] = fma(a[i·k + k−1], b[j·k + k−1], … fma(a[i·k], b[j·k], seed))
//
// one fused multiply-add per p, ascending, from seed = +0, or, when seeded,
// from the element's prior value — the chain a fold over several calls
// continues. Both bodies walk the columns in tiles of four rows of b and keep
// one accumulator a row of a, whose four lanes are the tile's four rows of b.
// Four p at a time: the four rows of b are loaded and transposed in registers
// (TRANSPOSE4) so that each register holds one p across the four rows, and
// every row of a then takes its four terms in order: broadcast a_i[p], one
// fused multiply-add. The last k mod 4 terms gather their one p from the four
// rows with scalar loads instead (DOT_GATHER). A last tile of c = cols mod 4
// columns reads the tile's first row of b in place of its missing ones and
// loads and stores out through the mask of its first c lanes, so its other
// lanes are computed and never stored.
//
// TRANSPOSE4 turns the rows R0–R3 of four rows of b into its columns in
// place, through T0–T3:
//
//	R0 = b0[p..p+3]      VUNPCKLPD/VUNPCKHPD       VPERM2F128
//	R1 = b1[p..p+3]  →   b0[p]   b1[p]   b0[p+2] b1[p+2]   →  R0 = b0..b3[p]
//	R2 = b2[p..p+3]      b0[p+1] b1[p+1] b0[p+3] b1[p+3]      R1 = b0..b3[p+1]
//	R3 = b3[p..p+3]      b2[p]   b3[p]   b2[p+2] b3[p+2]      R2 = b0..b3[p+2]
//	                     b2[p+1] b3[p+1] b2[p+3] b3[p+3]      R3 = b0..b3[p+3]
#define TRANSPOSE4(R0, R1, R2, R3, T0, T1, T2, T3) \
	VUNPCKLPD  R1, R0, T0; \
	VUNPCKHPD  R1, R0, T1; \
	VUNPCKLPD  R3, R2, T2; \
	VUNPCKHPD  R3, R2, T3; \
	VPERM2F128 $0x20, T2, T0, R0; \
	VPERM2F128 $0x20, T3, T1, R1; \
	VPERM2F128 $0x31, T2, T0, R2; \
	VPERM2F128 $0x31, T3, T1, R3

// DOT_LOAD4 loads the four rows of b at p into R0–R3; DOT_GATHER gathers the
// four rows' one p into Y through its halves X and XT.
#define DOT_LOAD4(R0, R1, R2, R3) \
	VMOVUPD (DX)(AX*1), R0; \
	VMOVUPD (R11)(AX*1), R1; \
	VMOVUPD (R12)(AX*1), R2; \
	VMOVUPD (R13)(AX*1), R3

#define DOT_GATHER(Y, X, XT) \
	VMOVSD      (DX)(AX*1), X; \
	VMOVHPD     (R11)(AX*1), X, X; \
	VMOVSD      (R12)(AX*1), XT; \
	VMOVHPD     (R13)(AX*1), XT, XT; \
	VINSERTF128 $1, XT, Y, Y

// DOT_TILE_B points R11–R13 at the tile's rows of b after DX's and jumps to
// WHOLE when R15, the columns left, makes a whole tile; for a last tile of
// fewer it points the missing rows back at DX's and falls through.
#define DOT_TILE_B(WHOLE) \
	LEAQ    (DX)(BX*1), R11; \
	LEAQ    (DX)(BX*2), R12; \
	LEAQ    (R11)(BX*2), R13; \
	CMPQ    R15, $4; \
	JGE     WHOLE; \
	CMPQ    R15, $2; \
	CMOVQLT DX, R11; \
	CMPQ    R15, $3; \
	CMOVQLT DX, R12; \
	MOVQ    DX, R13

// func dotTiles(out *float64, ldo int, a, b *float64, k, rows, cols int, seeded bool)
//
// The dot form on 1 ≤ rows ≤ 4 rows of a: accumulators Y0–Y3, the tile's b in
// Y4–Y7, the transpose's temporaries and the broadcasts in Y8–Y11, and in
// Y12–Y15 one mask a row — every lane for a row below rows, none above, the
// column mask ANDed in for a last tile — through which out is loaded and
// stored. A row of a past rows reads row 0, and its sums are never stored.
#define DOT_TERM(OFF, B) \
	VBROADCASTSD OFF(SI)(AX*1), Y8; \
	VBROADCASTSD OFF(R8)(AX*1), Y9; \
	VBROADCASTSD OFF(R9)(AX*1), Y10; \
	VBROADCASTSD OFF(R10)(AX*1), Y11; \
	VFMADD231PD  B, Y8, Y0; \
	VFMADD231PD  B, Y9, Y1; \
	VFMADD231PD  B, Y10, Y2; \
	VFMADD231PD  B, Y11, Y3

TEXT ·dotTiles(SB), NOSPLIT, $0-57
	MOVQ out+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), BX
	MOVQ rows+40(FP), AX
	MOVQ cols+48(FP), R15
	SHLQ $3, BX              // k in bytes: the row stride of a and b
	MOVQ BX, CX
	ANDQ $-32, CX            // end of the four-at-a-time part
	LEAQ (SI)(BX*1), R8      // a1
	LEAQ (SI)(BX*2), R9      // a2
	LEAQ (R8)(BX*2), R10     // a3
	LEAQ gemmMask<>(SB), R13 // every lane
	LEAQ 96(R13), R12        // no lane
	VMOVUPD (R13), Y12
	MOVQ    R13, R14
	CMPQ    AX, $2
	CMOVQLT R12, R14
	CMOVQLT SI, R8
	VMOVUPD (R14), Y13
	MOVQ    R13, R14
	CMPQ    AX, $3
	CMOVQLT R12, R14
	CMOVQLT SI, R9
	VMOVUPD (R14), Y14
	MOVQ    R13, R14
	CMPQ    AX, $4
	CMOVQLT R12, R14
	CMOVQLT SI, R10
	VMOVUPD (R14), Y15

dot_tile:
	TESTQ R15, R15
	JLE   dot_done
	DOT_TILE_B(dot_seed)
	MOVQ    R15, AX          // the last tile's column mask
	NEGQ    AX
	LEAQ    gemmMask<>+96(SB), R14
	VMOVUPD (R14)(AX*8), Y8
	VANDPD  Y8, Y12, Y12
	VANDPD  Y8, Y13, Y13
	VANDPD  Y8, Y14, Y14
	VANDPD  Y8, Y15, Y15

dot_seed:
	MOVQ ldo+8(FP), R14
	SHLQ $3, R14             // out's row stride in bytes
	LEAQ (R14)(R14*2), AX
	CMPB seeded+56(FP), $0
	JNE  dot_load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP    dot_terms

dot_load:
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD (DI)(R14*1), Y13, Y1
	VMASKMOVPD (DI)(R14*2), Y14, Y2
	VMASKMOVPD (DI)(AX*1), Y15, Y3

dot_terms:
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    dot_1

dot_p:
	DOT_LOAD4(Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	DOT_TERM(0, Y4)
	DOT_TERM(8, Y5)
	DOT_TERM(16, Y6)
	DOT_TERM(24, Y7)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  dot_p

dot_1:
	CMPQ AX, BX
	JGE  dot_store
	DOT_GATHER(Y4, X4, X5)
	DOT_TERM(0, Y4)
	ADDQ $8, AX
	JMP  dot_1

dot_store:
	MOVQ ldo+8(FP), R14
	SHLQ $3, R14
	LEAQ (R14)(R14*2), AX
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, (DI)(R14*1)
	VMASKMOVPD Y2, Y14, (DI)(R14*2)
	VMASKMOVPD Y3, Y15, (DI)(AX*1)
	ADDQ $32, DI
	LEAQ (DX)(BX*4), DX      // four rows of b on
	SUBQ $4, R15
	JMP  dot_tile

dot_done:
	VZEROUPPER
	RET

// func dotTiles8(out *float64, ldo int, a, b *float64, k, cols int, seeded bool)
//
// The dot form on eight rows of a: accumulators Y0–Y7, the tile's b in
// Y8–Y11, the transpose's temporaries and the broadcasts in Y12–Y15. Every
// transpose of b feeds 32 fused multiply-adds in eight independent chains,
// twice dotTiles' four, as many as two FMA ports with a latency of four keep
// busy. Rows 0–3 of a are addressed from SI and rows 4–7 from R8, at k and 3k
// (BX, R14) past them, both advancing with p. Out is loaded and stored whole
// for a whole tile, and through the mask of its columns (Y8) for a last one.
#define DOT8_TERM(OFF, B) \
	VBROADCASTSD OFF(SI), Y12; \
	VFMADD231PD  B, Y12, Y0; \
	VBROADCASTSD OFF(SI)(BX*1), Y13; \
	VFMADD231PD  B, Y13, Y1; \
	VBROADCASTSD OFF(SI)(BX*2), Y14; \
	VFMADD231PD  B, Y14, Y2; \
	VBROADCASTSD OFF(SI)(R14*1), Y15; \
	VFMADD231PD  B, Y15, Y3; \
	VBROADCASTSD OFF(R8), Y12; \
	VFMADD231PD  B, Y12, Y4; \
	VBROADCASTSD OFF(R8)(BX*1), Y13; \
	VFMADD231PD  B, Y13, Y5; \
	VBROADCASTSD OFF(R8)(BX*2), Y14; \
	VFMADD231PD  B, Y14, Y6; \
	VBROADCASTSD OFF(R8)(R14*1), Y15; \
	VFMADD231PD  B, Y15, Y7

TEXT ·dotTiles8(SB), NOSPLIT, $0-49
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R10
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), BX
	MOVQ cols+40(FP), R15
	SHLQ $3, R10             // out's row stride in bytes
	SHLQ $3, BX              // k in bytes: the row stride of a and b
	MOVQ BX, CX
	ANDQ $-32, CX            // end of the four-at-a-time part
	LEAQ (BX)(BX*2), R14     // 3k

dot8_tile:
	TESTQ R15, R15
	JLE   dot8_done
	DOT_TILE_B(dot8_seed)
	MOVQ R15, AX             // the last tile's column mask
	NEGQ AX
	LEAQ gemmMask<>+96(SB), R9
	LEAQ (R9)(AX*8), R9

dot8_seed:
	CMPB seeded+48(FP), $0
	JNE  dot8_load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    dot8_terms

dot8_load:
	LEAQ (R10)(R10*2), AX    // out's rows 0–3 from DI, 4–7 from SI
	LEAQ (DI)(R10*4), SI
	CMPQ R15, $4
	JLT  dot8_mload
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R10*1), Y1
	VMOVUPD (DI)(R10*2), Y2
	VMOVUPD (DI)(AX*1), Y3
	VMOVUPD (SI), Y4
	VMOVUPD (SI)(R10*1), Y5
	VMOVUPD (SI)(R10*2), Y6
	VMOVUPD (SI)(AX*1), Y7
	JMP     dot8_terms

dot8_mload:
	VMOVUPD    (R9), Y8
	VMASKMOVPD (DI), Y8, Y0
	VMASKMOVPD (DI)(R10*1), Y8, Y1
	VMASKMOVPD (DI)(R10*2), Y8, Y2
	VMASKMOVPD (DI)(AX*1), Y8, Y3
	VMASKMOVPD (SI), Y8, Y4
	VMASKMOVPD (SI)(R10*1), Y8, Y5
	VMASKMOVPD (SI)(R10*2), Y8, Y6
	VMASKMOVPD (SI)(AX*1), Y8, Y7

dot8_terms:
	MOVQ  a+16(FP), SI       // a0
	LEAQ  (SI)(BX*4), R8     // a4
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    dot8_1

dot8_p:
	DOT_LOAD4(Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	DOT8_TERM(0, Y8)
	DOT8_TERM(8, Y9)
	DOT8_TERM(16, Y10)
	DOT8_TERM(24, Y11)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  dot8_p

dot8_1:
	CMPQ AX, BX
	JGE  dot8_store
	DOT_GATHER(Y8, X8, X9)
	DOT8_TERM(0, Y8)
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, AX
	JMP  dot8_1

dot8_store:
	LEAQ (R10)(R10*2), AX
	LEAQ (DI)(R10*4), SI
	CMPQ R15, $4
	JLT  dot8_mstore
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R10*1)
	VMOVUPD Y2, (DI)(R10*2)
	VMOVUPD Y3, (DI)(AX*1)
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, (SI)(R10*1)
	VMOVUPD Y6, (SI)(R10*2)
	VMOVUPD Y7, (SI)(AX*1)
	ADDQ $32, DI
	LEAQ (DX)(BX*4), DX      // four rows of b on
	SUBQ $4, R15
	JMP  dot8_tile

dot8_mstore:
	VMOVUPD    (R9), Y8
	VMASKMOVPD Y0, Y8, (DI)
	VMASKMOVPD Y1, Y8, (DI)(R10*1)
	VMASKMOVPD Y2, Y8, (DI)(R10*2)
	VMASKMOVPD Y3, Y8, (DI)(AX*1)
	VMASKMOVPD Y4, Y8, (SI)
	VMASKMOVPD Y5, Y8, (SI)(R10*1)
	VMASKMOVPD Y6, Y8, (SI)(R10*2)
	VMASKMOVPD Y7, Y8, (SI)(AX*1)

dot8_done:
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

// func maxPool2GradVec(dst, grad *float64, arg *int, rows, w int) bool
//
// The backward of maxPool2Vec over the same rows row pairs of width w (even):
// window ox of pair r takes grad[r·w/2 + ox] at its argmax and +0 at its
// other three positions, each element of dst written once. With T = 2r·w +
// 2·ox the window's first index and d = arg[r·w/2 + ox] − T, dst[T + j] =
// +0 + grad where d = j and +0 elsewhere, for j in {0, 1, w, w+1}. Two
// windows a step: d duplicated across the lanes of a column pair, compared
// with (0, 1) for the top row and (w, w+1) for the bottom one, the masks
// ANDed with +0 + grad; then the last window alone. A window whose d matches
// none of the four returns false at once, dst written up to it; true
// otherwise.
TEXT ·maxPool2GradVec(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ arg+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), BX
	MOVQ BX, R10
	SHLQ $3, R10             // w in bytes: the bottom row of a pair
	MOVQ BX, CX
	SHRQ $1, CX              // ow, windows per row pair
	MOVQ         $1, AX
	VMOVQ        AX, X14
	VPSLLDQ      $8, X14, X14
	VINSERTI128  $1, X14, Y14, Y14 // (0, 1, 0, 1): the top row's offsets
	VMOVQ        BX, X13
	VPBROADCASTQ X13, Y13
	VPADDQ       Y14, Y13, Y13     // (w, w+1, w, w+1): the bottom row's
	VPADDQ       X14, X14, X12     // (0, 2): the first indices of two windows
	VXORPD       Y15, Y15, Y15     // +0
	XORQ         R11, R11          // T of the pair's first window

grad_row:
	TESTQ R8, R8
	JLE   grad_ok
	XORQ  AX, AX             // ox
	MOVQ  DI, R12            // the window of ox in the top row
	MOVQ  R11, R14

grad_2:
	LEAQ 2(AX), R9
	CMPQ R9, CX
	JGT  grad_1
	VMOVQ        R14, X10
	VPBROADCASTQ X10, X10
	VPADDQ       X12, X10, X10
	VMOVDQU      (DX)(AX*8), X0
	VPSUBQ       X10, X0, X0
	VPERMQ       $0x50, Y0, Y0     // (d0, d0, d1, d1)
	VPCMPEQQ     Y14, Y0, Y1
	VPCMPEQQ     Y13, Y0, Y2
	VPOR         Y1, Y2, Y3
	VMOVMSKPD    Y3, R13
	MOVQ         R13, R15
	SHRQ         $1, R15
	ORQ          R15, R13
	ANDQ         $5, R13
	CMPQ         R13, $5           // a match in each window's column pair?
	JNE          grad_bad
	VMOVUPD      (SI)(AX*8), X4
	VADDPD       X4, X15, X4       // +0 + g
	VPERMPD      $0x50, Y4, Y4
	VANDPD       Y1, Y4, Y5
	VANDPD       Y2, Y4, Y6
	VMOVUPD      Y5, (R12)
	VMOVUPD      Y6, (R12)(R10*1)
	ADDQ         $32, R12
	ADDQ         $4, R14
	MOVQ         R9, AX
	JMP          grad_2

grad_1:
	CMPQ AX, CX
	JGE  grad_next
	VMOVQ        R14, X10
	VMOVQ        (DX)(AX*8), X0
	VPSUBQ       X10, X0, X0
	VPBROADCASTQ X0, X0
	VPCMPEQQ     X14, X0, X1
	VPCMPEQQ     X13, X0, X2
	VPOR         X1, X2, X3
	VMOVMSKPD    X3, R13
	TESTQ        R13, R13
	JZ           grad_bad
	VMOVSD       (SI)(AX*8), X4
	VADDSD       X4, X15, X4
	VMOVDDUP     X4, X4
	VANDPD       X1, X4, X5
	VANDPD       X2, X4, X6
	VMOVUPD      X5, (R12)
	VMOVUPD      X6, (R12)(R10*1)

grad_next:
	LEAQ (DI)(R10*2), DI
	LEAQ (SI)(CX*8), SI
	LEAQ (DX)(CX*8), DX
	LEAQ (R11)(BX*2), R11
	DECQ R8
	JMP  grad_row

grad_ok:
	VZEROUPPER
	MOVB $1, ret+40(FP)
	RET

grad_bad:
	VZEROUPPER
	MOVB $0, ret+40(FP)
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
