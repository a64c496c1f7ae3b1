package tensor

import "fmt"

// Gradient-reduction kernels. The real data-parallel engine in internal/train
// sums per-replica gradient buckets with a fixed pairwise tree and then
// averages, chunk by chunk, concurrently with the still-running backward
// passes. These kernels are the leaves of that tree: plain elementwise adds
// and scales over spans of the flat gradient arrays, 4-way unrolled with
// bounds-check-eliminating reslices, allocating nothing.
//
// Determinism contract (same as gemm.go): each destination element receives
// its terms in a fixed order — AddSpan adds exactly one term per element, so
// any fixed sequence of AddSpan calls over the same spans produces the same
// bits regardless of which goroutine issues them or when.

// AddSpan accumulates src into dst elementwise (dst[i] += src[i]). Spans must
// have equal length. The 4-wide unroll carries four independent load-add-store
// chains; per element there is exactly one addition, so call-sequence order is
// the only association that matters.
func AddSpan(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddSpan length mismatch %d vs %d", len(dst), len(src)))
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// ScaleSpan multiplies the span by s in place (dst[i] *= s).
func ScaleSpan(dst []float64, s float64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		d[0] *= s
		d[1] *= s
		d[2] *= s
		d[3] *= s
	}
	for ; i < len(dst); i++ {
		dst[i] *= s
	}
}
