package tensor

import "fmt"

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
// rowsᵀ·cols (TMatMul); nn.Conv2D additionally reuses the forward pass's
// im2col lowering instead of calling this recomputing form.
func Conv2DWeightGrad(x, gradOut *Tensor, kh, kw int) *Tensor {
	_, c, _, _ := conv2dDims(x)
	_, f, _, _ := conv2dDims(gradOut)
	cols := im2col(x, kh, kw)     // [N*oh*ow, C*kh*kw]
	rows := RowsFromNCHW(gradOut) // [N*oh*ow, F]
	g := TMatMul(rows, cols)
	return g.Reshape(f, c, kh, kw)
}

// The three convolution GEMMs of the training path. An NCHW activation or
// gradient is, per image b, already a row-major [F × OH·OW] matrix, and the
// im2col lowering is per image a row-major [OH·OW × K] matrix (K = C·KH·KW),
// so each GEMM runs image by image on the existing range kernels with the
// operand roles swapped — no pixel-major repack on either side of it:
//
//	forward  out_b = wm · cols_bᵀ      matMulTRange(out_b, wm, cols_b)
//	δO       colGrad_b = g_bᵀ · wm     tMatMulRange(colGrad_b, g_b, wm)
//	δW       dw += g_b · cols_b        matMulRange(dw, g_b, cols_b), b ascending
//
// Every output element keeps the accumulation chain of the repacking
// reference (Conv2D, Conv2DInputGrad, Conv2DWeightGrad): forward is the same
// ascending-K dot product from +0, δO the same ascending-filter sum from +0
// with the factors in the same order, δW the same ascending (image, pixel)
// fold. Forward and δO are partitioned over images, δW over filter rows —
// disjoint outputs, unchanged chains, so any GOMAXPROCS gives the same bits.

// convGEMMDims validates the operands of a conv GEMM — an NCHW tensor t
// [N,F,OH,OW], the lowering-shaped matrix cols [N·OH·OW, K] and, where the
// GEMM reads one, the weight matrix wm [F,K] — and returns (N, F, OH·OW, K).
func convGEMMDims(op string, t, cols, wm *Tensor) (n, f, px, k int) {
	n, f, oh, ow := conv2dDims(t)
	px = oh * ow
	if cols.Dims() != 2 || cols.Shape[0] != n*px {
		panic(fmt.Sprintf("tensor: %s lowering %v does not match %v (want %d rows)", op, cols.Shape, t.Shape, n*px))
	}
	k = cols.Shape[1]
	if wm != nil && (wm.Dims() != 2 || wm.Shape[0] != f || wm.Shape[1] != k) {
		panic(fmt.Sprintf("tensor: %s weights %v, want [%d %d]", op, wm.Shape, f, k))
	}
	return n, f, px, k
}

// ConvForwardInto computes the convolution output out [N,F,OH,OW] from the
// weight matrix wm [F,K] and the input's im2col lowering cols [N·OH·OW, K],
// fully overwriting out. Bitwise identical to Conv2D.
func ConvForwardInto(out, wm, cols *Tensor) *Tensor {
	n, f, px, k := convGEMMDims("ConvForwardInto", out, cols, wm)
	if serialRows(n, 2*n*px*k*f, matmulParallelThreshold) {
		convForwardRange(out.Data, wm.Data, cols.Data, f, px, k, 0, n)
	} else {
		parallelRows(n, func(lo, hi int) {
			convForwardRange(out.Data, wm.Data, cols.Data, f, px, k, lo, hi)
		})
	}
	return out
}

func convForwardRange(out, wm, cols []float64, f, px, k, bLo, bHi int) {
	for b := bLo; b < bHi; b++ {
		matMulTRange(out[b*f*px:(b+1)*f*px], wm, cols[b*px*k:(b+1)*px*k], k, px, 0, f)
	}
}

// ConvInputGradInto computes the column gradient colGrad [N·OH·OW, K] — the
// operand Col2imInto scatters back to the input — from gradOut [N,F,OH,OW]
// and the weight matrix wm [F,K], fully overwriting colGrad. Bitwise
// identical to the MatMul inside Conv2DInputGrad.
func ConvInputGradInto(colGrad, gradOut, wm *Tensor) *Tensor {
	n, f, px, k := convGEMMDims("ConvInputGradInto", gradOut, colGrad, wm)
	if serialRows(n, 2*n*px*k*f, matmulParallelThreshold) {
		convInputGradRange(colGrad.Data, gradOut.Data, wm.Data, f, px, k, 0, n)
	} else {
		parallelRows(n, func(lo, hi int) {
			convInputGradRange(colGrad.Data, gradOut.Data, wm.Data, f, px, k, lo, hi)
		})
	}
	return colGrad
}

func convInputGradRange(colGrad, g, wm []float64, f, px, k, bLo, bHi int) {
	for b := bLo; b < bHi; b++ {
		// The kernel accumulates: start each image's block from +0 while it
		// is about to be cache-resident anyway.
		cg := colGrad[b*px*k : (b+1)*px*k]
		clear(cg)
		tMatMulRange(cg, g[b*f*px:(b+1)*f*px], wm, f, px, k, 0, px)
	}
}

// ConvWeightGradAcc accumulates the weight gradient Σ_b g_b·cols_b of gradOut
// [N,F,OH,OW] against the lowering cols [N·OH·OW, K] into dst without zeroing
// it — dst is any tensor of F·K elements, so a [F,C,KH,KW] parameter gradient
// takes the terms directly. On a zeroed dst the result is bitwise identical
// to Conv2DWeightGrad; called once per ascending row-chunk of a batch it
// continues the same fold, like TMatMulAcc.
func ConvWeightGradAcc(dst, gradOut, cols *Tensor) *Tensor {
	n, f, px, k := convGEMMDims("ConvWeightGradAcc", gradOut, cols, nil)
	if dst.Len() != f*k {
		panic(fmt.Sprintf("tensor: ConvWeightGradAcc dst %v, want %d elements", dst.Shape, f*k))
	}
	if serialRows(f, 2*n*px*k*f, matmulParallelThreshold) {
		convWeightGradRange(dst.Data, gradOut.Data, cols.Data, n, f, px, k, 0, f)
	} else {
		parallelRows(f, func(lo, hi int) {
			convWeightGradRange(dst.Data, gradOut.Data, cols.Data, n, f, px, k, lo, hi)
		})
	}
	return dst
}

// convWeightGradRange folds every image into filter rows [lo, hi) of dw.
func convWeightGradRange(dw, g, cols []float64, n, f, px, k, lo, hi int) {
	for b := 0; b < n; b++ {
		matMulRange(dw, g[b*f*px:(b+1)*f*px], cols[b*px*k:(b+1)*px*k], px, k, lo, hi)
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
		parallelRows(rows, func(lo, hi int) {
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
		parallelRows(n, func(bLo, bHi int) {
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
// matrix. Only the reference convolutions repack (the ones above and
// nn.Conv2D.WeightGrad); the training path's GEMMs read NCHW in place (see
// ConvForwardInto).
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
	n, c, h, w := conv2dDims(x)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2 needs even dims, got %dx%d", h, w))
	}
	oh, ow := h/2, w/2
	out := dst
	if out.Dims() != 4 || out.Shape[0] != n || out.Shape[1] != c || out.Shape[2] != oh || out.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2Into dst %v, want [%d %d %d %d]", out.Shape, n, c, oh, ow))
	}
	if len(arg) != out.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2Into argmax map has %d entries, want %d", len(arg), out.Len()))
	}
	// One output row at a time over the two input rows it pools, with running
	// indices. The window is compared in (0,0),(0,1),(1,0),(1,1) order under a
	// strict >, so ties keep the earliest position and a NaN is never picked
	// over an earlier candidate.
	for plane := 0; plane < n*c; plane++ {
		for oy := 0; oy < oh; oy++ {
			top := (plane*h + 2*oy) * w
			r0, r1 := x.Data[top:top+w], x.Data[top+w:top+2*w]
			o := (plane*oh + oy) * ow
			orow, arow := out.Data[o:o+ow], arg[o:o+ow]
			for ox := range orow {
				j := 2 * ox
				best, bestIdx := r0[j], top+j
				if v := r0[j+1]; v > best {
					best, bestIdx = v, top+j+1
				}
				if v := r1[j]; v > best {
					best, bestIdx = v, top+w+j
				}
				if v := r1[j+1]; v > best {
					best, bestIdx = v, top+w+j+1
				}
				orow[ox], arow[ox] = best, bestIdx
			}
		}
	}
	return out
}

// MaxPool2Grad routes gradOut back through the argmax map onto a tensor with
// the original input shape. The argmax map is validated against both shapes:
// a stale or mismatched map panics with a diagnostic instead of silently
// producing a wrong gradient.
func MaxPool2Grad(gradOut *Tensor, arg []int, inShape []int) *Tensor {
	return MaxPool2GradInto(New(inShape...), gradOut, arg)
}

// MaxPool2GradInto is MaxPool2Grad into a caller-owned dst with the original
// input shape (zeroed first). len(arg) must equal gradOut.Len() and every
// index must lie inside dst.
func MaxPool2GradInto(dst, gradOut *Tensor, arg []int) *Tensor {
	if len(arg) != gradOut.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2Grad argmax map has %d entries for %d gradient elements (mismatched shapes?)",
			len(arg), gradOut.Len()))
	}
	dst.Zero()
	limit := dst.Len()
	for i, g := range gradOut.Data {
		idx := arg[i]
		if idx < 0 || idx >= limit {
			panic(fmt.Sprintf("tensor: MaxPool2Grad argmax[%d] = %d outside input of %d elements (stale map?)",
				i, idx, limit))
		}
		dst.Data[idx] += g
	}
	return dst
}
