package tensor

import (
	"fmt"
	"testing"
)

// rowView returns a header over rows [lo,hi) of a 2-D tensor, sharing data.
func rowView(t *Tensor, lo, hi int) *Tensor {
	n := t.Shape[1]
	return &Tensor{Shape: []int{hi - lo, n}, Data: t.Data[lo*n : hi*n]}
}

// TestTMatMulAccChunkedMatchesInto proves the bitwise-accumulation contract:
// folding ascending contiguous row-chunks through TMatMulAcc into a zeroed
// destination is bit-identical to one full-batch TMatMulInto, for shapes that
// exercise the 4-way unrolled inner loop's remainder handling and the m=1
// edge, and for chunk splits that do not align with the unroll factor.
func TestTMatMulAccChunkedMatchesInto(t *testing.T) {
	rng := NewRNG(7)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 1}, {4, 1, 5}, {5, 3, 4}, {8, 6, 7}, {13, 9, 11}, {32, 17, 5},
	}
	for _, s := range shapes {
		a := Randn(rng, 1, s.m, s.k)
		b := Randn(rng, 1, s.m, s.n)
		want := New(s.k, s.n)
		TMatMulInto(want, a, b)
		for chunk := 1; chunk <= s.m; chunk++ {
			got := New(s.k, s.n)
			for lo := 0; lo < s.m; lo += chunk {
				hi := lo + chunk
				if hi > s.m {
					hi = s.m
				}
				TMatMulAcc(got, rowView(a, lo, hi), rowView(b, lo, hi))
			}
			if !Equal(got, want) {
				t.Fatalf("m=%d k=%d n=%d chunk=%d: chunked TMatMulAcc differs from TMatMulInto", s.m, s.k, s.n, chunk)
			}
		}
	}
}

// TestTMatMulAccFlatDst covers the conv-weight case: dst shaped [f,c,kh,kw]
// but holding exactly k·n elements accumulates identically to a [k,n] dst.
func TestTMatMulAccFlatDst(t *testing.T) {
	rng := NewRNG(11)
	m, f, c, kh, kw := 6, 4, 2, 3, 3
	k, n := f, c*kh*kw
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, m, n)
	want := New(k, n)
	TMatMulInto(want, a, b)
	flat := New(f, c, kh, kw)
	TMatMulAcc(flat, rowView(a, 0, 3), rowView(b, 0, 3))
	TMatMulAcc(flat, rowView(a, 3, m), rowView(b, 3, m))
	for i := range want.Data {
		if want.Data[i] != flat.Data[i] {
			t.Fatalf("flat-dst accumulation differs at %d", i)
		}
	}
}

// TestSumRowsAccChunkedMatchesSumRows is the same contract for the bias
// kernel, against the plain allocating reduction.
func TestSumRowsAccChunkedMatchesSumRows(t *testing.T) {
	rng := NewRNG(13)
	for _, s := range []struct{ m, n int }{{1, 1}, {2, 5}, {7, 3}, {16, 9}} {
		a := Randn(rng, 1, s.m, s.n)
		want := SumRows(a).Reshape(1, s.n)
		for chunk := 1; chunk <= s.m; chunk++ {
			got := New(1, s.n)
			for lo := 0; lo < s.m; lo += chunk {
				hi := lo + chunk
				if hi > s.m {
					hi = s.m
				}
				SumRowsAcc(got, rowView(a, lo, hi))
			}
			if !Equal(got, want) {
				t.Fatalf("m=%d n=%d chunk=%d: chunked SumRowsAcc differs from SumRows", s.m, s.n, chunk)
			}
		}
	}
}

func TestAccShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a, b := New(3, 2), New(3, 4)
	expectPanic("TMatMulAcc dst", func() { TMatMulAcc(New(2, 3), a, b) })
	expectPanic("TMatMulAcc rows", func() { TMatMulAcc(New(2, 4), New(2, 2), b) })
	expectPanic("SumRowsAcc dst", func() { SumRowsAcc(New(3), b) })
	expectPanic("SumRowsAcc dims", func() { SumRowsAcc(New(4), New(3, 2, 2)) })
}

// Exercised indirectly everywhere, but pin the parallel path too: a tall dst
// forces parallelRows when GOMAXPROCS permits, and the row partition must not
// change any accumulation chain.
func TestTMatMulAccParallelPathMatches(t *testing.T) {
	rng := NewRNG(17)
	m, k, n := 64, 300, 48
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, m, n)
	want := New(k, n)
	TMatMulInto(want, a, b)
	got := New(k, n)
	TMatMulAcc(got, rowView(a, 0, 40), rowView(b, 0, 40))
	TMatMulAcc(got, rowView(a, 40, m), rowView(b, 40, m))
	if !Equal(got, want) {
		t.Fatal(fmt.Sprintf("parallel-path TMatMulAcc differs: m=%d k=%d n=%d", m, k, n))
	}
}
