package tensor

import (
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// TestAddSpanMatchesNaive: the unrolled kernel is bitwise identical to the
// one-element-at-a-time loop across lengths that exercise every unroll tail.
func TestAddSpanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000} {
		dst := randSlice(rng, n)
		src := randSlice(rng, n)
		want := append([]float64(nil), dst...)
		for i := range want {
			want[i] += src[i]
		}
		AddSpan(dst, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestScaleSpanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 4, 5, 64, 65, 511} {
		dst := randSlice(rng, n)
		want := append([]float64(nil), dst...)
		for i := range want {
			want[i] *= 0.25
		}
		ScaleSpan(dst, 0.25)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestAddSpanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	AddSpan(make([]float64, 3), make([]float64, 4))
}

// TestReduceKernelsZeroAllocs: the reduction leaves allocate nothing — the
// data-parallel reducer calls them once per chunk per tree edge on the warm
// path.
func TestReduceKernelsZeroAllocs(t *testing.T) {
	rng := NewRNG(11)
	a := Randn(rng, 1, 64)
	dst := New(64)
	if n := testing.AllocsPerRun(20, func() {
		AddSpan(dst.Data, a.Data)
		ScaleSpan(dst.Data, 0.5)
	}); n != 0 {
		t.Fatalf("reduce kernels allocate %v per run, want 0", n)
	}
}

// TestFixedTreeReduceDeterministic: a pairwise tree fold over replica spans is
// independent of the order the AddSpan calls for different chunks are issued —
// the property the concurrent reducer relies on.
func TestFixedTreeReduceDeterministic(t *testing.T) {
	const n, elems = 4, 103
	build := func() [][]float64 {
		rng := rand.New(rand.NewSource(21))
		out := make([][]float64, n)
		for r := range out {
			out[r] = randSlice(rng, elems)
		}
		return out
	}
	reduce := func(parts [][]float64, chunk int) []float64 {
		for lo := 0; lo < elems; lo += chunk {
			hi := lo + chunk
			if hi > elems {
				hi = elems
			}
			for stride := 1; stride < n; stride *= 2 {
				for r := 0; r+stride < n; r += 2 * stride {
					AddSpan(parts[r][lo:hi], parts[r+stride][lo:hi])
				}
			}
		}
		return parts[0]
	}
	want := reduce(build(), elems) // single chunk
	for _, chunk := range []int{1, 7, 32, 50} {
		got := reduce(build(), chunk)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d: element %d = %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
}
