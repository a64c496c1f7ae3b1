package tensor

import "fmt"

// Accumulating (non-zeroing) variants of the δW kernels, for microbatch
// gradient accumulation. The Into forms zero dst and fold input rows in
// ascending order starting from +0; the Acc forms run the *same* fold but
// continue from dst's current contents. Calling an Acc kernel once per
// contiguous row-chunk of a batch, in ascending chunk order, therefore
// produces — bit for bit — the accumulation chain of the single full-batch
// Into call: every output element receives its rank-1 terms in the same
// ascending global row order, with no intermediate per-chunk partial sums
// (scratch-then-add would associate the sums differently and change bits).
// This is what lets the microbatch pipeline engine defer and reorder δW ops
// across the step while keeping gradients bitwise identical to the serial
// full-batch reference.

// TMatMulAcc accumulates aᵀ·b into dst for a[m×k], b[m×n], without zeroing
// dst first. dst may have any shape with exactly k·n elements (the flat
// layout of a [k×n] matrix), so convolution weight gradients of shape
// [F,C,KH,KW] accumulate their [F, C·KH·KW] GEMM terms directly.
func TMatMulAcc(dst, a, b *Tensor) *Tensor {
	checkGEMM("TMatMulAcc", a, b)
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: TMatMulAcc %vᵀ · %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if dst.Len() != k*n {
		panic(fmt.Sprintf("tensor: TMatMulAcc dst %v, want %d elements", dst.Shape, k*n))
	}
	if serialRows(k, 2*m*k*n, matmulParallelThreshold) {
		tMatMulRange(dst.Data, a.Data, b.Data, m, k, n, 0, k, false)
	} else {
		parallelRows(k, func(_, lo, hi int) {
			tMatMulRange(dst.Data, a.Data, b.Data, m, k, n, lo, hi, false)
		})
	}
	return dst
}

// SumRowsAcc accumulates the column sums of a [m×n] matrix into dst (any
// shape with exactly n elements), without zeroing dst first. Rows fold in
// ascending order, continuing dst's existing chains: addRows' row add with a
// destination stride of 0.
func SumRowsAcc(dst, a *Tensor) *Tensor {
	if a.Dims() != 2 || dst.Len() != a.Shape[1] {
		panic(fmt.Sprintf("tensor: column sums of %v into dst %v", a.Shape, dst.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	addRows(dst.Data, 0, a.Data, n, m, n)
	return dst
}
