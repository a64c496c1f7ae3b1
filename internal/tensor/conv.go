package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
)

// convParallelThreshold is the element-move count above which the im2col /
// col2im loops fan out across goroutines. The partitions below are
// all over disjoint output regions with an unchanged per-element order, so
// parallel runs are bitwise identical to serial ones.
const convParallelThreshold = 1 << 16

// Conv2D computes a same-stride-1 valid convolution of x [N,C,H,W] with
// weights w [F,C,KH,KW], producing [N,F,H−KH+1,W−KW+1]. The implementation
// is im2col + GEMM, mirroring how real frameworks lower convolutions (and
// why the paper's §4.1 notes the two gradient convolutions share little
// cache state: each first builds its own large im2col matrix). The GEMM is
// the fused cols·wmᵀ (MatMulT), so no transposed weight copy is built.
func Conv2D(x, w *Tensor) *Tensor {
	n, c, h, wd := conv2dDims(x)
	f, wc, kh, kw := conv2dDims(w)
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2D channels %d vs %d", wc, c))
	}
	oh, ow := h-kh+1, wd-kw+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D kernel %dx%d too large for %dx%d", kh, kw, h, wd))
	}
	cols := im2col(x, kh, kw) // [N*oh*ow, C*kh*kw]
	wm := w.Reshape(f, c*kh*kw)
	out := MatMulT(cols, wm) // [N*oh*ow, F]
	return nchwFromRows(out, n, f, oh, ow)
}

// Conv2DInputGrad computes the gradient w.r.t. x given gradOut [N,F,OH,OW]
// and weights w [F,C,KH,KW] — the δO computation of a conv layer.
func Conv2DInputGrad(gradOut, w *Tensor, h, wd int) *Tensor {
	n, f, _, _ := conv2dDims(gradOut)
	wf, c, kh, kw := conv2dDims(w)
	if wf != f {
		panic(fmt.Sprintf("tensor: Conv2DInputGrad filters %d vs %d", wf, f))
	}
	rows := RowsFromNCHW(gradOut)               // [N*oh*ow, F]
	wm := w.Reshape(f, c*kh*kw)                 // [F, C*kh*kw]
	colGrad := MatMul(rows, wm)                 // [N*oh*ow, C*kh*kw]
	return col2im(colGrad, n, c, h, wd, kh, kw) // scatter-add back
}

// Conv2DWeightGrad computes the gradient w.r.t. w given the stored input x
// and gradOut — the δW computation of a conv layer. The GEMM is the fused
// rowsᵀ·cols (TMatMul); the training path folds the same terms image by image
// (ConvWeightGradAcc).
func Conv2DWeightGrad(x, gradOut *Tensor, kh, kw int) *Tensor {
	_, c, _, _ := conv2dDims(x)
	_, f, _, _ := conv2dDims(gradOut)
	cols := im2col(x, kh, kw)     // [N*oh*ow, C*kh*kw]
	rows := RowsFromNCHW(gradOut) // [N*oh*ow, F]
	g := TMatMul(rows, cols)
	return g.Reshape(f, c, kh, kw)
}

// The training path's convolution. Its lowering is channel-major: image b of
// x [N,C,H,W] lowers to a row-major [K × OH·OW] block (K = C·KH·KW) whose row
// k = (c,ky,kx) is the output-sized window of channel c shifted by (ky,kx),
//
//	colsT_b[k] = x_b[c, ky:ky+OH, kx:kx+OW]      OH runs of OW contiguous elements
//
// — the transpose of the pixel-major [OH·OW × K] block im2col builds, whose
// runs are only KW long. Lowering is therefore one strided row copy per k
// (copyRows), the δO scatter one strided row add per k (addRows), and the
// three GEMMs run image by image on the range kernels of gemm.go, every
// operand read where it already lies (an NCHW activation or gradient is, per
// image, a row-major [F × OH·OW] matrix):
//
//	forward  out_b = wm · colsT_b           matMulRange from +0
//	δO       cgT_b = wmᵀ · g_b              tMatMulRange from +0, then the scatter
//	δW       dw   += g_b · colsT_bᵀ         matMulTRange seeded from dw, b ascending
//
// Every output element keeps the accumulation chain of the pixel-major
// reference (Conv2D, Conv2DInputGrad, Conv2DWeightGrad): forward is the
// ascending-K sum from +0, δO the ascending-filter sum from +0 (its two
// factors swap sides, which only the payload of a product of two NaNs could
// show), δW the ascending (image, pixel) fold continued from whatever dw
// holds. The scatter walks each channel's windows in descending ky, then
// descending kx: a destination element (y,x) receives the term of window
// (ky,kx) from output pixel (y−ky, x−kx), so descending (ky,kx) is ascending
// (oy,ox) — the order col2im's row walk delivers the same terms in.
//
// No lowering outlives the call that builds it. Each kernel lowers (or, for
// δO, computes) one image's block into scratch its workspace lends, one block
// per worker, and consumes it while it is cache-hot: a layer keeps its input,
// not its lowering, and δW lowers the input again. Forward and δO are
// partitioned over images; δW over groups of four lowered rows — the columns
// of dw — so each worker lowers only its own rows of every image and, but for
// the last, every window is whole columns of the dot bodies' tiles (the last
// may end in a masked one).
// Disjoint outputs, unchanged chains: any GOMAXPROCS gives the same bits.

// convGeom is the geometry of a stride-1 valid convolution of c×h×w planes
// with a kh×kw window: oh×ow output pixels, k lowered rows.
type convGeom struct{ c, h, w, kh, kw, oh, ow int }

func (g convGeom) k() int  { return g.c * g.kh * g.kw }
func (g convGeom) px() int { return g.oh * g.ow }

// convGeometry validates the operands every conv kernel is handed — the
// input-shaped x [N,C,H,W] against the kh×kw window, the output-shaped y
// [N,F,OH,OW] against both, and the weight operand wm against those: F·K
// elements, and with matrix exactly [F,K] — and returns N, F and the geometry.
func convGeometry(op string, x, y, wm *Tensor, kh, kw int, matrix bool) (n, f int, g convGeom) {
	n, c, h, w := conv2dDims(x)
	if kh <= 0 || kw <= 0 || h < kh || w < kw {
		panic(fmt.Sprintf("tensor: %s kernel %dx%d does not fit input %v", op, kh, kw, x.Shape))
	}
	g = convGeom{c: c, h: h, w: w, kh: kh, kw: kw, oh: h - kh + 1, ow: w - kw + 1}
	if y.Dims() != 4 || y.Shape[0] != n || y.Shape[2] != g.oh || y.Shape[3] != g.ow {
		panic(fmt.Sprintf("tensor: %s output-shaped operand %v for input %v, want [%d F %d %d]", op, y.Shape, x.Shape, n, g.oh, g.ow))
	}
	f = y.Shape[1]
	if wm.Len() != f*g.k() || matrix && (wm.Dims() != 2 || wm.Shape[0] != f) {
		panic(fmt.Sprintf("tensor: %s weights %v, want [%d %d]", op, wm.Shape, f, g.k()))
	}
	return n, f, g
}

// ConvForwardInto computes the convolution output out [N,F,OH,OW] of x
// [N,C,H,W] against the weight matrix wm [F,K], fully overwriting out. Each
// image is lowered into scratch ws lends for the call (one block per worker).
// Bitwise identical to Conv2D.
func ConvForwardInto(out, x, wm *Tensor, kh, kw int, ws *Workspace) *Tensor {
	n, f, g := convGeometry("ConvForwardInto", x, out, wm, kh, kw, true)
	runConv(convForwardRange, out.Data, x.Data, wm.Data, g, n, f, n, ws)
	return out
}

// ConvInputGradInto computes the input gradient gin [N,C,H,W] from gradOut
// [N,F,OH,OW] and the weight matrix wm [F,K], fully overwriting gin. The
// lowered gradient exists one image at a time, in scratch ws lends for the
// call (one block per worker). Bitwise identical to Conv2DInputGrad.
func ConvInputGradInto(gin, gradOut, wm *Tensor, kh, kw int, ws *Workspace) *Tensor {
	n, f, g := convGeometry("ConvInputGradInto", gin, gradOut, wm, kh, kw, true)
	runConv(convInputGradRange, gin.Data, gradOut.Data, wm.Data, g, n, f, n, ws)
	return gin
}

// ConvWeightGradAcc accumulates the weight gradient Σ_b g_b·colsT_bᵀ of
// gradOut [N,F,OH,OW] against the lowering of x [N,C,H,W] into dst without
// zeroing it — dst is any tensor of F·K elements, so a [F,C,KH,KW] parameter
// gradient takes the terms directly. Image b is lowered again just before its
// fold, into scratch ws lends for the call (one block per worker, each worker
// lowering only its own groups of four rows). Every element's chain continues
// from what dst holds: on a zeroed dst the result is bitwise identical to
// Conv2DWeightGrad, and called once per ascending chunk of images of a batch
// it is the same fold, like TMatMulAcc.
func ConvWeightGradAcc(dst, gradOut, x *Tensor, kh, kw int, ws *Workspace) *Tensor {
	n, f, g := convGeometry("ConvWeightGradAcc", x, gradOut, dst, kh, kw, false)
	runConv(convWeightGradRange, dst.Data, gradOut.Data, x.Data, g, n, f, (g.k()+3)/4, ws)
	return dst
}

// convRange is a range kernel of the three above: units [lo, hi) of its
// partition — images, or groups of four lowered rows for δW — of a batch of n
// images into f filters, with cb, a [K × OH·OW] block of scratch.
type convRange func(dst, a, b, cb []float64, g convGeom, n, f, lo, hi int)

// runConv runs kernel over units [0, m) on the calling goroutine or, from the
// GEMM fan-out threshold on (2·N·OH·OW·K·F for every one of the three),
// split over parallelRows' workers, each with its own block from ws.
func runConv(kernel convRange, dst, a, b []float64, g convGeom, n, f, m int, ws *Workspace) {
	block := g.k() * g.px()
	if serialRows(m, 2*n*block*f, matmulParallelThreshold) {
		scratch := ws.Get(block)
		kernel(dst, a, b, scratch.Data, g, n, f, 0, m)
		ws.Put(scratch)
		return
	}
	scratch := ws.Get(min(runtime.GOMAXPROCS(0), m), block)
	parallelRows(m, func(w, lo, hi int) {
		kernel(dst, a, b, scratch.Data[w*block:][:block], g, n, f, lo, hi)
	})
	ws.Put(scratch)
}

// convForwardRange lowers images [bLo, bHi) of x into cb, each just before its
// GEMM.
func convForwardRange(out, x, wm, cb []float64, g convGeom, _, f, bLo, bHi int) {
	k, px := g.k(), g.px()
	for b := bLo; b < bHi; b++ {
		lowerRows(cb, x, g, b, 0, k)
		matMulRange(out[b*f*px:(b+1)*f*px], wm, cb, k, px, 0, f, true)
	}
}

// lowerRows writes lowered rows [r0, r1) of image b of x into cb
// [(r1−r0) × OH·OW].
func lowerRows(cb, x []float64, g convGeom, b, r0, r1 int) {
	px, win, plane := g.px(), g.kh*g.kw, g.c*g.h*g.w
	xb := x[b*plane : (b+1)*plane]
	for row := r0; row < r1; row++ {
		ch, ky, kx := row/win, row%win/g.kw, row%g.kw
		copyRows(cb[(row-r0)*px:(row-r0+1)*px], g.ow, xb[(ch*g.h+ky)*g.w+kx:], g.w, g.oh, g.ow)
	}
}

// convInputGradRange computes images [bLo, bHi) of gin, their lowered
// gradient in cg.
func convInputGradRange(gin, gradOut, wm, cg []float64, g convGeom, _, f, bLo, bHi int) {
	k, px, plane, win := g.k(), g.px(), g.c*g.h*g.w, g.kh*g.kw
	step := 4 >> bits.TrailingZeros(uint(win|4)) // 4/gcd(win, 4) channels
	for b := bLo; b < bHi; b++ {
		gb := gin[b*plane : (b+1)*plane]
		clear(gb)
		// A few channels at a time, so their lowered rows are scattered while
		// they are still in L1: as many as make whole groups of four rows for
		// the tile body (four channels of a 3×3 window, 36 rows).
		for c0 := 0; c0 < g.c; c0 += step {
			c1 := min(c0+step, g.c)
			tMatMulRange(cg, wm, gradOut[b*f*px:(b+1)*f*px], f, k, px, c0*win, c1*win, true)
			for ch := c0; ch < c1; ch++ {
				for ky := g.kh - 1; ky >= 0; ky-- {
					for kx := g.kw - 1; kx >= 0; kx-- {
						row := (ch*g.kh+ky)*g.kw + kx
						addRows(gb[(ch*g.h+ky)*g.w+kx:], g.w, cg[row*px:(row+1)*px], g.ow, g.oh, g.ow)
					}
				}
			}
		}
	}
}

// convWeightGradRange folds every image into the lowered rows of groups
// [lo, hi) — columns of dw, which is [F × K] — lowering those rows of each
// image into cb just before the image's fold.
func convWeightGradRange(dw, gradOut, x, cb []float64, g convGeom, n, f, lo, hi int) {
	k, px := g.k(), g.px()
	r0, r1 := 4*lo, min(4*hi, k)
	for b := 0; b < n; b++ {
		lowerRows(cb, x, g, b, r0, r1)
		matMulTRange(dw[r0:], gradOut[b*f*px:(b+1)*f*px], cb, px, r1-r0, k, 0, f, true)
	}
}

// copyRows moves rows runs of n elements: dst[r·ds + j] = src[r·ss + j]. The
// Go loop is the portable path and the oracle of the vector body.
func copyRows(dst []float64, ds int, src []float64, ss, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	// The last element either side touches: a short slice panics here, not
	// in — or past — the vector body.
	_, _ = dst[(rows-1)*ds+n-1], src[(rows-1)*ss+n-1]
	if useVector {
		copyRowsVec(&dst[0], ds, &src[0], ss, rows, n)
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*ds:r*ds+n], src[r*ss:r*ss+n])
	}
}

// addRows adds rows runs of n elements: dst[r·ds + j] += src[r·ss + j].
func addRows(dst []float64, ds int, src []float64, ss, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	_, _ = dst[(rows-1)*ds+n-1], src[(rows-1)*ss+n-1]
	if useVector {
		addRowsVec(&dst[0], ds, &src[0], ss, rows, n)
		return
	}
	for r := 0; r < rows; r++ {
		d := dst[r*ds : r*ds+n]
		for j, v := range src[r*ss : r*ss+n][:len(d)] {
			d[j] += v
		}
	}
}

func conv2dDims(t *Tensor) (n, c, h, w int) {
	if t.Dims() != 4 {
		panic(fmt.Sprintf("tensor: want 4D NCHW, got %v", t.Shape))
	}
	return t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
}

// im2col lowers x [N,C,H,W] into a fresh [N*OH*OW, C*KH*KW] matrix.
func im2col(x *Tensor, kh, kw int) *Tensor {
	n, c, h, w := conv2dDims(x)
	oh, ow := h-kh+1, w-kw+1
	return Im2colInto(New(n*oh*ow, c*kh*kw), x, kh, kw)
}

// Im2colInto lowers x [N,C,H,W] into dst [N*OH*OW, C*KH*KW], fully
// overwriting dst. Output rows are partitioned across goroutines on large
// inputs (each row is written by exactly one worker, in the same element
// order as the serial loop).
func Im2colInto(dst, x *Tensor, kh, kw int) *Tensor {
	n, c, h, w := conv2dDims(x)
	oh, ow := h-kh+1, w-kw+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: im2col kernel %dx%d too large for %dx%d", kh, kw, h, w))
	}
	rows, width := n*oh*ow, c*kh*kw
	if dst.Dims() != 2 || dst.Shape[0] != rows || dst.Shape[1] != width {
		panic(fmt.Sprintf("tensor: Im2colInto dst %v, want [%d %d]", dst.Shape, rows, width))
	}
	if serialRows(rows, rows*width, convParallelThreshold) {
		im2colRange(dst.Data, x.Data, c, h, w, oh, ow, kh, kw, 0, rows)
	} else {
		parallelRows(rows, func(_, lo, hi int) {
			im2colRange(dst.Data, x.Data, c, h, w, oh, ow, kh, kw, lo, hi)
		})
	}
	return dst
}

// im2colRange lowers output rows [lo, hi) of the column matrix. The (image,
// oy, ox) position advances with the row instead of being re-derived by
// division, and each kw-wide run moves through two slices of equal length, so
// the copy carries no per-element bounds checks and no call. 3-wide kernels —
// every convolution of the repository's networks — take an unrolled run
// (measured 1.7× the general loop, whose three-iteration trip is mostly loop
// control); the body is chosen from the shape alone.
func im2colRange(dst, x []float64, c, h, w, oh, ow, kh, kw, lo, hi int) {
	width := c * kh * kw
	b, oy, ox := lo/(oh*ow), (lo/ow)%oh, lo%ow
	for row := lo; row < hi; row++ {
		d := dst[row*width : (row+1)*width]
		chBase := (b*c*h+oy)*w + ox
		for ch := 0; ch < c; ch++ {
			src := chBase
			if kw == 3 {
				for ky := 0; ky < kh; ky++ {
					s, run := x[src:src+3:src+3], d[:3:3]
					run[0], run[1], run[2] = s[0], s[1], s[2]
					d = d[3:]
					src += w
				}
			} else {
				for ky := 0; ky < kh; ky++ {
					s := x[src : src+kw]
					run := d[:len(s)]
					for i, v := range s {
						run[i] = v
					}
					d = d[len(s):]
					src += w
				}
			}
			chBase += h * w
		}
		if ox++; ox == ow {
			ox = 0
			if oy++; oy == oh {
				oy = 0
				b++
			}
		}
	}
}

// col2im scatter-adds [N*OH*OW, C*KH*KW] back to a fresh [N,C,H,W] tensor.
func col2im(cols *Tensor, n, c, h, w, kh, kw int) *Tensor {
	return Col2imInto(New(n, c, h, w), cols, kh, kw)
}

// Col2imInto scatter-adds cols [N*OH*OW, C*KH*KW] into dst [N,C,H,W],
// zeroing dst first. Work is partitioned across goroutines by batch image
// (disjoint destination regions; per-element accumulation order unchanged,
// so results are bitwise identical to the serial walk).
func Col2imInto(dst, cols *Tensor, kh, kw int) *Tensor {
	n, c, h, w := conv2dDims(dst)
	oh, ow := h-kh+1, w-kw+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: col2im kernel %dx%d too large for %dx%d", kh, kw, h, w))
	}
	width := c * kh * kw
	if cols.Dims() != 2 || cols.Shape[0] != n*oh*ow || cols.Shape[1] != width {
		panic(fmt.Sprintf("tensor: Col2imInto cols %v, want [%d %d]", cols.Shape, n*oh*ow, width))
	}
	dst.Zero()
	if serialRows(n, n*oh*ow*width, convParallelThreshold) {
		col2imRange(dst.Data, cols.Data, c, h, w, oh, ow, kh, kw, 0, n)
	} else {
		parallelRows(n, func(_, bLo, bHi int) {
			col2imRange(dst.Data, cols.Data, c, h, w, oh, ow, kh, kw, bLo, bHi)
		})
	}
	return dst
}

// col2imRange scatter-adds batch images [bLo, bHi) back into dst, walking
// the column rows in ascending order (the order every destination element
// receives its terms in) with the same runs as im2colRange.
func col2imRange(dst, cols []float64, c, h, w, oh, ow, kh, kw, bLo, bHi int) {
	width := c * kh * kw
	for b := bLo; b < bHi; b++ {
		row := b * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := cols[row*width : (row+1)*width]
				chBase := (b*c*h+oy)*w + ox
				for ch := 0; ch < c; ch++ {
					di := chBase
					if kw == 3 {
						for ky := 0; ky < kh; ky++ {
							run, t := dst[di:di+3:di+3], s[:3:3]
							run[0], run[1], run[2] = run[0]+t[0], run[1]+t[1], run[2]+t[2]
							s = s[3:]
							di += w
						}
					} else {
						for ky := 0; ky < kh; ky++ {
							run := dst[di : di+kw]
							for i, v := range s[:len(run)] {
								run[i] += v
							}
							s = s[len(run):]
							di += w
						}
					}
					chBase += h * w
				}
				row++
			}
		}
	}
}

// RowsFromNCHW flattens [N,F,OH,OW] to a fresh pixel-major [N*OH*OW, F]
// matrix. Only the reference convolutions above repack; the training path's
// GEMMs read NCHW in place (see ConvForwardInto).
func RowsFromNCHW(t *Tensor) *Tensor {
	n, f, oh, ow := conv2dDims(t)
	px := oh * ow
	rows := New(n*px, f)
	for b := 0; b < n; b++ {
		for ch := 0; ch < f; ch++ {
			for p := 0; p < px; p++ {
				rows.Data[(b*px+p)*f+ch] = t.Data[(b*f+ch)*px+p]
			}
		}
	}
	return rows
}

// nchwFromRows is the inverse of RowsFromNCHW.
func nchwFromRows(rows *Tensor, n, f, oh, ow int) *Tensor {
	px := oh * ow
	t := New(n, f, oh, ow)
	for b := 0; b < n; b++ {
		for ch := 0; ch < f; ch++ {
			for p := 0; p < px; p++ {
				t.Data[(b*f+ch)*px+p] = rows.Data[(b*px+p)*f+ch]
			}
		}
	}
	return t
}

// MaxPool2 performs 2×2 max pooling with stride 2 on x [N,C,H,W] (H, W even)
// and returns the pooled tensor plus the argmax index map used by the
// backward pass.
func MaxPool2(x *Tensor) (*Tensor, []int) {
	n, c, h, w := conv2dDims(x)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2 needs even dims, got %dx%d", h, w))
	}
	out := New(n, c, h/2, w/2)
	arg := make([]int, out.Len())
	return MaxPool2Into(out, arg, x), arg
}

// MaxPool2Into is MaxPool2 into a caller-owned dst [N,C,H/2,W/2] and argmax
// map of dst.Len() entries, fully overwriting both. It lets warm training
// steps pool without per-step allocation.
func MaxPool2Into(dst *Tensor, arg []int, x *Tensor) *Tensor {
	n, c, oh, ow := pool2Dims("MaxPool2Into", arg, x)
	if dst.Dims() != 4 || dst.Shape[0] != n || dst.Shape[1] != c || dst.Shape[2] != oh || dst.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2Into dst %v, want [%d %d %d %d]", dst.Shape, n, c, oh, ow))
	}
	maxPool2(dst.Data, arg, x)
	return dst
}

// MaxPool2ArgInto is MaxPool2Into's argmax map alone: the same scan and the
// same entries, with no pooled tensor written. A checkpointed step rebuilds a
// dropped map with it.
func MaxPool2ArgInto(arg []int, x *Tensor) []int {
	pool2Dims("MaxPool2ArgInto", arg, x)
	maxPool2(nil, arg, x)
	return arg
}

// pool2Dims validates a 2×2 pooling of x [N,C,H,W] (H, W even) into an argmax
// map of N·C·H/2·W/2 entries and returns the pooled shape.
func pool2Dims(op string, arg []int, x *Tensor) (n, c, oh, ow int) {
	n, c, h, w := conv2dDims(x)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2 needs even dims, got %dx%d", h, w))
	}
	oh, ow = h/2, w/2
	if len(arg) != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: %s argmax map has %d entries, want %d", op, len(arg), n*c*oh*ow))
	}
	return n, c, oh, ow
}

// maxPool2 pools x into out (skipped when nil) and arg, both validated. One
// output row at a time over the two input rows it pools. The window is
// compared in (0,0),(0,1),(1,0),(1,1) order under a strict >, so ties keep the
// earliest position and a NaN is never picked over an earlier candidate. Which
// candidate wins is a coin flip three times per output, so nothing here
// branches on it: each compare becomes an all-ones-or-zero mask (keepBits)
// that selects the winner's bits and its offset in the window. The vector
// body (maxPool2Vec) runs the same compares four outputs at a time; this loop
// is the portable path and its oracle.
func maxPool2(out []float64, arg []int, x *Tensor) {
	n, c, h, w := conv2dDims(x)
	oh, ow := h/2, w/2
	if useVector && len(arg) > 0 {
		var o *float64
		if out != nil {
			o = &out[0]
		}
		maxPool2Vec(o, &arg[0], &x.Data[0], n*c*oh, w)
		return
	}
	for plane := 0; plane < n*c; plane++ {
		for oy := 0; oy < oh; oy++ {
			top := (plane*h + 2*oy) * w
			r0, r1 := x.Data[top:top+w], x.Data[top+w:top+2*w]
			o := (plane*oh + oy) * ow
			arow := arg[o : o+ow]
			for ox := range arow {
				j := 2 * ox
				best, off := r0[j], uint64(0)
				best, off = pickGreater(best, off, r0[j+1], 1)
				best, off = pickGreater(best, off, r1[j], uint64(w))
				best, off = pickGreater(best, off, r1[j+1], uint64(w+1))
				arow[ox] = top + j + int(off)
				if out != nil {
					out[o+ox] = best
				}
			}
		}
	}
}

// pickGreater returns (v, vOff) if v > best and (best, off) otherwise, as a
// select on bits rather than a jump.
func pickGreater(best float64, off uint64, v float64, vOff uint64) (float64, uint64) {
	m := keepBits(v > best)
	bb := math.Float64bits(best)
	return math.Float64frombits(bb ^ (bb^math.Float64bits(v))&m), off ^ (off^vOff)&m
}

// MaxPool2Grad routes gradOut back through the argmax map onto a tensor with
// the original input shape. The argmax map is validated against both shapes:
// a stale or mismatched map panics with a diagnostic instead of silently
// producing a wrong gradient.
func MaxPool2Grad(gradOut *Tensor, arg []int, inShape []int) *Tensor {
	return MaxPool2GradInto(New(inShape...), gradOut, arg)
}

// MaxPool2GradInto is MaxPool2Grad into a caller-owned dst with the original
// input shape, every element of which is written. len(arg) must equal
// gradOut.Len() and every index must lie inside dst.
func MaxPool2GradInto(dst, gradOut *Tensor, arg []int) *Tensor {
	if len(arg) != gradOut.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2Grad argmax map has %d entries for %d gradient elements (mismatched shapes?)",
			len(arg), gradOut.Len()))
	}
	if !maxPool2GradWindows(dst, gradOut.Data, arg) {
		maxPool2GradScatter(dst, gradOut.Data, arg)
	}
	return dst
}

// maxPool2GradWindows is the vector path of MaxPool2GradInto (maxPool2GradVec)
// for the maps MaxPool2 builds — dst [N,C,H,W] with H and W even, one 2×2
// window per gradient element, every index inside its own window: each
// window of δx written once, +0 + g at the argmax (a −0 gradient lands as +0,
// as on the scatter's zeroed δx) and +0 at the other three positions, with
// nothing cleared first. It reports false, dst perhaps partly written, where
// there is no vector path, on any other shape and at an index outside its
// window.
func maxPool2GradWindows(dst *Tensor, g []float64, arg []int) bool {
	if !useVector || len(arg) == 0 || len(g) != len(arg) || dst.Dims() != 4 {
		return false
	}
	n, c, h, w := conv2dDims(dst)
	if h%2 != 0 || w%2 != 0 || n*c*h*w != 4*len(arg) || len(dst.Data) != 4*len(arg) {
		return false
	}
	return maxPool2GradVec(&dst.Data[0], &g[0], &arg[0], n*c*h/2, w)
}

// maxPool2GradScatter zeroes dst and adds every gradient element at its
// argmax index: the portable path, the general form for any map (rows and
// columns no window covers stay cleared) and the oracle of
// maxPool2GradWindows.
func maxPool2GradScatter(dst *Tensor, g []float64, arg []int) {
	dst.Zero()
	limit := dst.Len()
	for i, v := range g {
		idx := arg[i]
		if idx < 0 || idx >= limit {
			panic(fmt.Sprintf("tensor: MaxPool2Grad argmax[%d] = %d outside input of %d elements (stale map?)",
				i, idx, limit))
		}
		dst.Data[idx] += v
	}
}
