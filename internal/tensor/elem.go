package tensor

import "fmt"

// The elementwise family: the passes a training step makes over whole
// parameter, gradient and activation arrays outside the GEMMs — gradient
// folds (AddSpan and its Tensor forms AddTo, AddFlatTo, SumRowsAcc), the bias
// broadcast (AddToRows), the optimizer updates (SubScaledSpan, ScaleSpan), the
// data-parallel reduction's leaves (AddSpan, ScaleSpan). Each runs an AVX2 body of gemm_amd64.s where
// useVector says the CPU has it — the adds on addRows' strided row body — and
// its Go loop otherwise; the Go loop is also the oracle the body is tested
// against. Every element takes exactly one rounded operation per pass, so the
// two paths produce the same bits — but for the payload an add of two NaNs
// keeps: the hardware returns its first operand's, and an add commutes, so
// the Go loop's order is the compiler's to pick.
//
// Determinism contract (same as gemm.go): each destination element receives
// its terms in a fixed order — AddSpan adds exactly one term per element, so
// any fixed sequence of AddSpan calls over the same spans produces the same
// bits regardless of which goroutine issues them or when.

// AddSpan accumulates src into dst elementwise (dst[i] += src[i]). Spans must
// have equal length; dst and src may be the same span.
func AddSpan(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddSpan length mismatch %d vs %d", len(dst), len(src)))
	}
	addRows(dst, 0, src, 0, 1, len(dst))
}

// ScaleSpan multiplies the span by s in place (dst[i] *= s).
func ScaleSpan(dst []float64, s float64) {
	if useVector && len(dst) > 0 {
		scaleVec(&dst[0], s, len(dst))
		return
	}
	for i := range dst {
		dst[i] *= s
	}
}

// SubScaledSpan takes s·src from dst elementwise (dst[i] −= s·src[i]): the
// product is rounded, then subtracted — never one fused operation. Spans must
// have equal length; dst and src may be the same span.
func SubScaledSpan(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: SubScaledSpan length mismatch %d vs %d", len(dst), len(src)))
	}
	if useVector && len(dst) > 0 {
		subScaledVec(&dst[0], &src[0], s, len(dst))
		return
	}
	for i, v := range src {
		dst[i] -= s * v
	}
}

// AddToRows adds row (any shape with exactly n elements) to every row of the
// [m×n] matrix dst — a bias broadcast — and returns dst.
func AddToRows(dst, row *Tensor) *Tensor {
	if dst.Dims() != 2 || row.Len() != dst.Shape[1] {
		panic(fmt.Sprintf("tensor: AddToRows row %v onto the rows of %v", row.Shape, dst.Shape))
	}
	m, n := dst.Shape[0], dst.Shape[1]
	addRows(dst.Data, n, row.Data, 0, m, n)
	return dst
}
