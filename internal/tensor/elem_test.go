package tensor

import (
	"fmt"
	"math"
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

// elemKernel is one body of the elementwise family on flat operands: for run
// length n, dst has dstLen(n) elements and src srcLen(n) (0: run reads dst
// as its source too). addends lists what element i of dst sums — its own
// value and the src elements added to it — for the bodies that add two
// inputs; nil for the rest.
type elemKernel struct {
	name           string
	dstLen, srcLen func(n int) int
	run            func(dst, src []float64, n int)
	addends        func(dst, src []float64, n, i int) []float64
}

// elemRows is the row count of the row-broadcast add and the row fold.
const elemRows = 3

func elemKernels() []elemKernel {
	same := func(n int) int { return n }
	none := func(int) int { return 0 }
	rows := func(n int) int { return elemRows * n }
	ks := []elemKernel{
		{"AddSpan", same, same, func(d, s []float64, _ int) { AddSpan(d, s) },
			func(d, s []float64, _, i int) []float64 { return []float64{d[i], s[i]} }},
		{"AddSpan aliased", same, none, func(d, _ []float64, _ int) { AddSpan(d, d) }, nil},
		{"AddToRows", rows, same, func(d, s []float64, n int) {
			AddToRows(&Tensor{Shape: []int{elemRows, n}, Data: d}, &Tensor{Shape: []int{1, n}, Data: s})
		}, func(d, s []float64, n, i int) []float64 { return []float64{d[i], s[i%n]} }},
		{"SumRowsAcc", same, rows, func(d, s []float64, n int) {
			SumRowsAcc(&Tensor{Shape: []int{n}, Data: d}, &Tensor{Shape: []int{elemRows, n}, Data: s})
		}, func(d, s []float64, n, i int) []float64 { return []float64{d[i], s[i], s[n+i], s[2*n+i]} }},
	}
	// The scale factors: a learning rate, a reduction's 1/n and a momentum β,
	// and the factors that turn products into ±0, ±Inf, NaN and subnormals.
	for _, s := range []float64{0.01, 0.5, 0.9, -3.5, 0, math.Copysign(0, -1), math.Inf(1), 0x1p-1060, 0x1p1000} {
		ks = append(ks,
			elemKernel{fmt.Sprintf("SubScaledSpan s=%v", s), same, same, func(d, src []float64, _ int) { SubScaledSpan(d, src, s) }, nil},
			elemKernel{fmt.Sprintf("SubScaledSpan aliased s=%v", s), same, none, func(d, _ []float64, _ int) { SubScaledSpan(d, d, s) }, nil},
			elemKernel{fmt.Sprintf("ScaleSpan s=%v", s), same, none, func(d, _ []float64, _ int) { ScaleSpan(d, s) }, nil})
	}
	return ks
}

// TestElemVectorMatchesGoLoop is the oracle suite of the elementwise family:
// every body against its Go loop, bit for bit — NaN payloads included — on
// run lengths 0–9 and 50 001 at odd element offsets, with reluSpecials (±0,
// NaNs of both signs and with a payload, ±Inf, subnormals, the extremes) in
// every lane position of both operands, and on the aliased forms the
// optimizers and gradient folds may issue. One case compares NaN-ness only:
// an add that meets two NaNs returns its first operand's payload, and an add
// commutes, so which one the compiler puts first is its choice (it differs
// between a plain and a -race build); the vector bodies put the destination
// first. A subtract or a product with the scale factor, never a NaN, leaves
// no such choice.
func TestElemVectorMatchesGoLoop(t *testing.T) {
	if !useVector {
		t.Skip("no vector path on this CPU (or this is the portable run)")
	}
	r := NewRNG(26)
	for _, k := range elemKernels() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50001} {
			for phase := 0; phase < len(reluSpecials); phase += 2 {
				fill := func(salt int) func(int) float64 {
					return func(i int) float64 {
						if (i+salt)%3 == 0 {
							return reluSpecials[(i/3+phase+salt)%len(reluSpecials)]
						}
						return r.Norm()
					}
				}
				src := oddSlice(k.srcLen(n), fill(1))
				dst := oddSlice(k.dstLen(n), fill(0))
				vec, ref := append([]float64(nil), dst...), append([]float64(nil), dst...)
				k.run(vec, src, n)
				onGoPath(func() { k.run(ref, src, n) })
				for i := range ref {
					if math.Float64bits(vec[i]) == math.Float64bits(ref[i]) ||
						math.IsNaN(vec[i]) && math.IsNaN(ref[i]) && k.addends != nil && nanCount(k.addends(dst, src, n, i)) >= 2 {
						continue
					}
					t.Fatalf("%s n=%d phase=%d: element %d = %v (%x), Go loop %v (%x)",
						k.name, n, phase, i, vec[i], math.Float64bits(vec[i]), ref[i], math.Float64bits(ref[i]))
				}
			}
		}
	}
}

func nanCount(vs []float64) int {
	c := 0
	for _, v := range vs {
		if math.IsNaN(v) {
			c++
		}
	}
	return c
}

// TestElemDefinitions pins what the new bodies compute, on either path,
// against their one-line definitions (TestAddSpanMatchesNaive and
// TestScaleSpanMatchesNaive do the same for the other two): the oracle suite
// above proves the paths equal, this that they are the operations their
// callers mean.
func TestElemDefinitions(t *testing.T) {
	r := NewRNG(27)
	d, s := Randn(r, 1, 3, 5), Randn(r, 1, 3, 5)
	d.Data[1], d.Data[7] = math.Copysign(0, -1), math.NaN()
	check := func(name string, f func(c *Tensor), want func(i int) float64) {
		c := d.Clone()
		f(c)
		for i, v := range c.Data {
			if w := want(i); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: element %d = %v, want %v", name, i, v, w)
			}
		}
	}
	check("SubScaledSpan", func(c *Tensor) { SubScaledSpan(c.Data, s.Data, 0.1) },
		func(i int) float64 { p := 0.1 * s.Data[i]; return d.Data[i] - p })
	check("AddToRows", func(c *Tensor) { AddToRows(c, FromSlice(s.Data[5:10], 1, 5)) },
		func(i int) float64 { return d.Data[i] + s.Data[5+i%5] })
}

// TestElemShapePanics: mismatched operands are diagnostics, empty spans no-ops.
func TestElemShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"SubScaledSpan lengths": func() { SubScaledSpan(make([]float64, 3), make([]float64, 4), 1) },
		"AddToRows row":         func() { AddToRows(New(2, 3), New(1, 4)) },
		"AddToRows dims":        func() { AddToRows(New(6), New(6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	AddSpan(nil, nil)
	SubScaledSpan(nil, nil, 1)
	ScaleSpan(nil, 2)
}
