package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Fused-transpose GEMM kernels. The backward pass of every GEMM-shaped layer
// needs products against a transposed operand (δO_i = g·Wᵀ, δW_i = xᵀ·g,
// attention scores = Q·Kᵀ, ...). The naive lowering materializes an explicit
// Transpose copy before calling MatMul — pure data movement the paper's §4.1
// identifies as the redundant cost of the gradient kernels. MatMulT and
// TMatMul read the untransposed operand in its original row-major layout
// instead, so no transposed copy ever exists.
//
// Determinism contract: every kernel in this file accumulates each output
// element in exactly the same order as the reference ikj MatMul — for
// out[i][j], one fused multiply-add per term, ascending, starting from +0:
// acc = math.FMA(a[i][p], b[p][j], acc), a single rounding per term. Cache
// blocking only reorders work *across* independent output elements, never
// within one element's accumulation chain, so all variants (serial, parallel,
// blocked, fused) are bitwise identical to the naive kernels. This
// is what keeps the executor's bit-identical-gradients differential suite
// meaningful: reordered schedules, pooled buffers and fused kernels must all
// produce the same bits as the plain serial walk.
//
// Each range kernel has two bodies behind one entry point: the Go loops below
// (…Go), which are the portable path and the oracle the vector path is tested
// against, and an AVX2 path (…Vec, over the axpy and dot bodies of
// gemm_amd64.s) taken when useVector says the CPU has it. A SIMD lane is
// always one output element running the scalar loop's own sequence — one
// fused multiply-add per term, ascending, VFMADD231 where the Go loop calls
// math.FMA — so both paths produce the same bits on every architecture and the
// contract above reads the same for either.
const (
	// gemmRowBlock tiles rows of the output (and of A) so an output tile and
	// the B panel it consumes stay cache-resident.
	gemmRowBlock = 64
	// gemmKBlock tiles the shared inner dimension: a panel of gemmKBlock B
	// rows is reused by every row of the current A tile before moving on.
	gemmKBlock = 240
	// gemmJBlock tiles B rows in MatMulT so a block of them is reused across
	// many A rows (each B row is a whole dot-product operand there).
	gemmJBlock = 120
	// gemmPanelBytes is what the vector path lets a panel of the streamed
	// operand occupy: a third of a 48 KB L1, so the panel, the output rows it
	// updates and the rows of the other operand stay resident together.
	gemmPanelBytes = 16 << 10
)

// panelRows sizes the vector path's panel of the streamed operand from its
// row length: as many rows as fit gemmPanelBytes, in whole groups of four (the
// bodies consume four rows per step), at least one group. The three fixed
// blocks above were tuned for one shape each; this follows the shape, which is
// what keeps a conv lowering's 83 KB image from being re-streamed once per
// filter row.
func panelRows(rowLen int) int {
	return max(4, gemmPanelBytes/(8*rowLen)&^3)
}

// serialRows reports whether a row-partitioned kernel should run on the
// calling goroutine: a single processor, a degenerate row count, or too
// little work to amortize goroutine spawning. Callers must branch on it
// BEFORE constructing the closure they pass to parallelRows — the closure
// leaks into the spawned goroutines, so building it unconditionally would
// heap-allocate even on the serial path and break the zero-alloc warm step.
func serialRows(m, work, threshold int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || m < 2 || work < threshold
}

// parallelRows splits the row range [0, m) into one contiguous chunk per
// worker with the same deterministic w·m/workers partition MatMul has always
// used, and runs f on each chunk, handing it the worker's index w <
// min(GOMAXPROCS, m) too (for per-worker scratch). Chunks are disjoint and each
// output row is produced by exactly one worker in the serial element order, so
// results are bitwise identical at any GOMAXPROCS.
func parallelRows(m int, f func(w, lo, hi int)) {
	fanOuts.Add(1)
	defer fanOuts.Add(-1)
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * m / workers
		hi := (w + 1) * m / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, lo, hi)
		}()
	}
	wg.Wait()
}

// fanOuts counts the parallelRows calls in flight.
var fanOuts atomic.Int32

// FanOutActive reports whether some kernel is fanned out over goroutines right
// now — chunks that want every processor they can get. A goroutine that is only
// polling for its next message (train's hand-off poll) gives its processor up
// when it sees this, so a spinning waiter never keeps a chunk from being run.
func FanOutActive() bool { return fanOuts.Load() > 0 }

func checkGEMM(op string, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2D operands, got %v · %v", op, a.Shape, b.Shape))
	}
}

func checkInto(op string, dst *Tensor, m, n int) {
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// MatMulInto computes dst = a[m×k] · b[k×n], overwriting dst (which must be
// shaped [m×n]; prior contents are ignored). Bitwise identical to MatMul.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	checkGEMM("MatMulInto", a, b)
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulInto %v · %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkInto("MatMulInto", dst, m, n)
	if serialRows(m, 2*m*k*n, matmulParallelThreshold) {
		matMulRange(dst.Data, a.Data, b.Data, k, n, 0, m, true)
	} else {
		parallelRows(m, func(_, lo, hi int) {
			matMulRange(dst.Data, a.Data, b.Data, k, n, lo, hi, true)
		})
	}
	return dst
}

// matMulRange computes output rows [lo, hi) of a·b. It accumulates into out —
// or, with fromZero, into +0 whatever the rows hold: the vector path then
// starts each element's chain in a cleared register instead of reading a
// zeroed row (fma(a, b, +0) either way, so the same bits), the Go loops clear
// the rows first.
func matMulRange(out, a, b []float64, k, n, lo, hi int, fromZero bool) {
	if useVector && n > 0 {
		// Row i's coefficient for term p is a[i·k + p].
		axpyRangeVec(out, a, b, k, n, k, 1, lo, hi, fromZero)
		return
	}
	if fromZero {
		clear(out[lo*n : hi*n])
	}
	matMulRangeGo(out, a, b, k, n, lo, hi)
}

// axpyRangeVec is the vector path of both axpy-form kernels: for output rows
// r in [lo, hi), out_r += Σ_t a[r·rs + t·ts]·b_t over the terms t < terms, b_t
// being row t of b, one fused multiply-add per term (fromZero: the chain
// starts from +0). Whole groups of four rows take whole blocks of twelve
// columns in the tile body, then the last n mod 12 columns in the edge body,
// a block masked past them; both keep a block's sums in registers across a
// pass of tileTerms(n) terms — every term, on the shapes of the repository's
// nets. The range's last rows mod 4 go to the axpy body one row at a time, in
// panels of terms. Ascending t for every element either way, as in the Go
// loops.
func axpyRangeVec(out, a, b []float64, terms, n, rs, ts, lo, hi int, fromZero bool) {
	if fromZero && terms < 4 {
		// Too few terms for a panel group that starts from a cleared register.
		clear(out[lo*n : hi*n])
		fromZero = false
	}
	if terms == 0 {
		return
	}
	groups, blocks, w, pass := (hi-lo)/4, n/12, n%12, tileTerms(n)
	for tt := 0; tt < terms && groups > 0; tt += pass {
		o, ap, bp, tn, z := lo*n, lo*rs+tt*ts, tt*n, min(pass, terms-tt), fromZero && tt == 0
		if blocks > 0 {
			axpyTile(&out[o], n, &a[ap], rs, ts, &b[bp], tn, groups, blocks, z)
		}
		if w > 0 {
			axpyEdge(&out[o+12*blocks], n, &a[ap], rs, ts, &b[bp+12*blocks], tn, groups, w, z)
		}
	}
	axpyPanels(out, a, b, terms, n, rs, ts, lo+4*groups, hi, panelRows(n), fromZero)
}

// axpyPanels is the axpy body's walk over output rows [lo, hi): panels of the
// given number of b rows, each taken by every output row before the next,
// four terms at a time and a panel's terms mod 4 singly.
func axpyPanels(out, a, b []float64, terms, n, rs, ts, lo, hi, panel int, fromZero bool) {
	for tt := 0; tt < terms; tt += panel {
		for r := lo; r < hi; r++ {
			axpyPanel(&out[r*n], &a[r*rs+tt*ts], ts, &b[tt*n], n, n, min(panel, terms-tt), fromZero && tt == 0)
		}
	}
}

// tileTerms is how many terms a pass over a column block of b rows n elements
// apart may take so the block's strip of b stays in L1 for the next group of
// rows. A line's L1 set is its address's bits 6–11, so rows n apart fall on
// 4096/gcd(8n, 4096) distinct offsets in a page; eight rows per offset keep
// every set of the 12-way L1 within its ways, and 128 rows of two or three
// lines are a third of it.
func tileTerms(n int) int {
	return min(128, 8<<max(0, 9-bits.TrailingZeros(uint(n))))
}

// matMulRangeGo computes output rows [lo, hi) of a·b with cache-blocked ikj
// loops: row tiles of A against k-panels of B, so a panel of B rows is reused
// by the whole A tile while it is cache-hot. Within one (i, j) the p order is
// ascending — the blocked walk is bitwise identical to the flat ikj loop.
func matMulRangeGo(out, a, b []float64, k, n, lo, hi int) {
	for it := lo; it < hi; it += gemmRowBlock {
		ihi := min(it+gemmRowBlock, hi)
		for pt := 0; pt < k; pt += gemmKBlock {
			phi := min(pt+gemmKBlock, k)
			for i := it; i < ihi; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n : (i+1)*n]
				// Four p terms per pass over the output row: one
				// load/store of orow[j] carries four fused multiply-adds,
				// applied in ascending p order — the exact chain the
				// one-term-at-a-time loop produces.
				p := pt
				for ; p+4 <= phi; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					b0 := b[p*n : (p+1)*n]
					// Reslice the other operands to len(b0) so the range
					// over b0 proves every index in bounds (no per-element
					// bounds checks in the hot loop).
					b1 := b[(p+1)*n : (p+2)*n][:len(b0)]
					b2 := b[(p+2)*n : (p+3)*n][:len(b0)]
					b3 := b[(p+3)*n : (p+4)*n][:len(b0)]
					o := orow[:len(b0)]
					for j, bv := range b0 {
						o[j] = math.FMA(a3, b3[j], math.FMA(a2, b2[j], math.FMA(a1, b1[j], math.FMA(a0, bv, o[j]))))
					}
				}
				for ; p < phi; p++ {
					av := arow[p]
					brow := b[p*n : (p+1)*n]
					for j, bv := range brow {
						orow[j] = math.FMA(av, bv, orow[j])
					}
				}
			}
		}
	}
}

// MatMulT computes a[m×k] · bᵀ for b[n×k] without materializing the
// transpose: row i of a against row j of b is a contiguous-contiguous dot
// product. Bitwise identical to MatMul(a, Transpose(b)).
func MatMulT(a, b *Tensor) *Tensor {
	checkGEMM("MatMulT", a, b)
	return MatMulTInto(New(a.Shape[0], b.Shape[0]), a, b)
}

// MatMulTInto is MatMulT into a caller-owned dst [m×n] (n = rows of b).
// Every element is assigned, so dst's prior contents are ignored.
func MatMulTInto(dst, a, b *Tensor) *Tensor {
	checkGEMM("MatMulTInto", a, b)
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTInto %v · %vᵀ", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	checkInto("MatMulTInto", dst, m, n)
	if serialRows(m, 2*m*k*n, matmulParallelThreshold) {
		matMulTRange(dst.Data, a.Data, b.Data, k, n, n, 0, m, false)
	} else {
		parallelRows(m, func(_, lo, hi int) {
			matMulTRange(dst.Data, a.Data, b.Data, k, n, n, lo, hi, false)
		})
	}
	return dst
}

// matMulTRange computes output rows [lo, hi) of a·bᵀ, row i of the n-column
// product starting at out[i·ldo] (ldo ≥ n: the product may be a column window
// of a wider matrix). Unseeded it assigns every element its ascending-p dot
// product from +0. Seeded, each element's chain starts from the value out
// already holds — out += a·bᵀ as a single fold, the form the conv δW continues
// image after image and chunk after chunk, one window of dw per worker.
func matMulTRange(out, a, b []float64, k, n, ldo, lo, hi int, seeded bool) {
	if useVector {
		matMulTRangeVec(out, a, b, k, n, ldo, lo, hi, seeded)
	} else {
		matMulTRangeGo(out, a, b, k, n, ldo, lo, hi, seeded)
	}
}

// matMulTRangeVec walks b in panels of rows sized to stay in L1 across the
// whole row range. Eight rows of a against a panel are a strip of 8×4 tiles
// in the eight-row dot body, the range's last rows mod 8 strips of 4×4 tiles
// — as many rows as are left, up to four — in the four-row one; either masks
// the last tile of a panel of n mod 4 columns. Ascending p from the seed for
// every element, as in matMulTRangeGo.
func matMulTRangeVec(out, a, b []float64, k, n, ldo, lo, hi int, seeded bool) {
	if lo == hi || n == 0 {
		return
	}
	if k == 0 {
		if !seeded {
			for i := lo; i < hi; i++ {
				clear(out[i*ldo : i*ldo+n])
			}
		}
		return
	}
	// The last element of each operand the bodies touch: a short slice panics
	// here, not in — or past — them.
	_, _, _ = out[(hi-1)*ldo+n-1], a[hi*k-1], b[n*k-1]
	panel := panelRows(k)
	for jt := 0; jt < n; jt += panel {
		cols := min(panel, n-jt)
		i := lo
		for ; i+8 <= hi; i += 8 {
			dotTiles8(&out[i*ldo+jt], ldo, &a[i*k], &b[jt*k], k, cols, seeded)
		}
		for ; i < hi; i += 4 {
			dotTiles(&out[i*ldo+jt], ldo, &a[i*k], &b[jt*k], k, min(4, hi-i), cols, seeded)
		}
	}
}

// dot continues s with the ascending-p dot product of two equally long rows.
func dot(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	for p, v := range x {
		s = math.FMA(v, y[p], s)
	}
	return s
}

// matMulTRangeGo computes output rows [lo, hi) of a·bᵀ. B rows are consumed in
// tiles of gemmJBlock so a tile stays cache-resident across the whole row
// range, and four output elements are produced per inner loop — four
// independent accumulation chains for instruction-level parallelism (a single
// dot product is latency-bound on its loop-carried add). Each chain sums in
// ascending p order from its seed, so every element matches the ikj reference
// bitwise.
func matMulTRangeGo(out, a, b []float64, k, n, ldo, lo, hi int, seeded bool) {
	for jt := 0; jt < n; jt += gemmJBlock {
		jhi := min(jt+gemmJBlock, n)
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*ldo : i*ldo+n]
			j := jt
			for ; j+4 <= jhi; j += 4 {
				// Resliced to len(arow) so the range over arow proves
				// every b index in bounds.
				b0 := b[j*k : (j+1)*k][:len(arow)]
				b1 := b[(j+1)*k : (j+2)*k][:len(arow)]
				b2 := b[(j+2)*k : (j+3)*k][:len(arow)]
				b3 := b[(j+3)*k : (j+4)*k][:len(arow)]
				var s0, s1, s2, s3 float64
				if seeded {
					s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
				}
				for p, av := range arow {
					s0 = math.FMA(av, b0[p], s0)
					s1 = math.FMA(av, b1[p], s1)
					s2 = math.FMA(av, b2[p], s2)
					s3 = math.FMA(av, b3[p], s3)
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < jhi; j++ {
				var s float64
				if seeded {
					s = orow[j]
				}
				orow[j] = dot(s, arow, b[j*k:(j+1)*k])
			}
		}
	}
}

// TMatMul computes aᵀ · b for a[m×k], b[m×n] without materializing the
// transpose: the product is accumulated as a sum of outer products of
// corresponding (contiguous) rows of a and b. Bitwise identical to
// MatMul(Transpose(a), b).
func TMatMul(a, b *Tensor) *Tensor {
	checkGEMM("TMatMul", a, b)
	return TMatMulInto(New(a.Shape[1], b.Shape[1]), a, b)
}

// TMatMulInto is TMatMul into a caller-owned dst [k×n], overwriting it
// (prior contents are ignored).
func TMatMulInto(dst, a, b *Tensor) *Tensor {
	checkGEMM("TMatMulInto", a, b)
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: TMatMulInto %vᵀ · %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkInto("TMatMulInto", dst, k, n)
	if serialRows(k, 2*m*k*n, matmulParallelThreshold) {
		tMatMulRange(dst.Data, a.Data, b.Data, m, k, n, 0, k, true)
	} else {
		parallelRows(k, func(_, lo, hi int) {
			tMatMulRange(dst.Data, a.Data, b.Data, m, k, n, lo, hi, true)
		})
	}
	return dst
}

// tMatMulRange computes output rows [lo, hi) (columns of a) of aᵀ·b,
// accumulating into out or, with fromZero, into +0 (see matMulRange).
func tMatMulRange(out, a, b []float64, m, k, n, lo, hi int, fromZero bool) {
	if useVector && n > 0 {
		// Row p's coefficient for term i is a[i·k + p].
		axpyRangeVec(out, a, b, m, n, 1, k, lo, hi, fromZero)
		return
	}
	if fromZero {
		clear(out[lo*n : hi*n])
	}
	tMatMulRangeGo(out, a, b, m, k, n, lo, hi)
}

// tMatMulRangeGo computes output rows [lo, hi) (columns of a) of aᵀ·b. The
// output row range is tiled so the tile stays cache-hot across the full sweep
// of input rows; for a fixed output element, input rows are consumed in
// ascending order — the same chain the ikj reference on the materialized
// transpose would produce.
func tMatMulRangeGo(out, a, b []float64, m, k, n, lo, hi int) {
	for pt := lo; pt < hi; pt += gemmRowBlock {
		phi := min(pt+gemmRowBlock, hi)
		// Four input rows per sweep: each output element receives its four
		// rank-1 terms in one load/store, fused in ascending i order — the
		// same chain as four one-row sweeps.
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			a2 := a[(i+2)*k : (i+3)*k]
			a3 := a[(i+3)*k : (i+4)*k]
			b0 := b[i*n : (i+1)*n]
			b1 := b[(i+1)*n : (i+2)*n]
			b2 := b[(i+2)*n : (i+3)*n]
			b3 := b[(i+3)*n : (i+4)*n]
			// Reslice to len(b0) once so the per-p inner loops carry no
			// bounds checks (range over b0 proves every index in bounds).
			b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
			for p := pt; p < phi; p++ {
				av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
				orow := out[p*n : (p+1)*n][:len(b0)]
				for j, bv := range b0 {
					orow[j] = math.FMA(av3, b3[j], math.FMA(av2, b2[j], math.FMA(av1, b1[j], math.FMA(av0, bv, orow[j]))))
				}
			}
		}
		for ; i < m; i++ {
			arow := a[i*k : (i+1)*k]
			brow := b[i*n : (i+1)*n]
			for p := pt; p < phi; p++ {
				av := arow[p]
				orow := out[p*n : (p+1)*n]
				for j, bv := range brow {
					orow[j] = math.FMA(av, bv, orow[j])
				}
			}
		}
	}
}

// AddFlatTo accumulates src into dst elementwise by flat index, for
// same-sized tensors whose shapes differ only by reshaping (e.g. a [F,C·KH·KW]
// GEMM result into a [F,C,KH,KW] parameter gradient). Same accumulation as
// AddTo on the reshaped view, without allocating the view.
func AddFlatTo(dst, src *Tensor) {
	if dst.Len() != len(src.Data) || len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: AddFlatTo size mismatch %v vs %v", dst.Shape, src.Shape))
	}
	AddSpan(dst.Data, src.Data)
}

// Ensure returns t if its backing array can hold shape (reslicing the header
// in place, contents unspecified), or a freshly allocated tensor otherwise.
// Layers use it for retained output buffers: after the first pass at a given
// shape, Ensure never allocates.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Panic with the scalar only: formatting the shape slice would
			// make it escape and heap-allocate the variadic on every call.
			panic(fmt.Sprintf("tensor: Ensure non-positive dim %d", d))
		}
		n *= d
	}
	if t == nil || cap(t.Data) < n {
		return &Tensor{Shape: append(make([]int, 0, 4), shape...), Data: make([]float64, n)}
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}
