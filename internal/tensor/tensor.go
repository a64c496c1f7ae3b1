// Package tensor implements the dense float64 tensors used by the real
// (non-simulated) training path. It exists so the repository can
// machine-check the paper's §8 claim that out-of-order backprop "does not
// change the semantics of neural network training": gradients computed under
// reordered schedules must equal conventional backprop bit for bit, which
// requires every op here to be deterministic with a fixed accumulation order.
//
// Tensors are contiguous row-major float64 arrays. float64 (rather than the
// float32 of real frameworks) keeps the equality checks free of incidental
// rounding concerns; the semantics argument is unaffected.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major array.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Len() != len(data) {
		panic(fmt.Sprintf("tensor: %v needs %d elements, got %d", shape, t.Len(), len(data)))
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Len() != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes size", t.Shape, shape))
	}
	return v
}

// At returns the element at the given indices (2D fast path included).
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for %dD tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d)", x, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// RNG is a deterministic splitmix64 generator for reproducible init.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 advances the generator.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Norm returns a standard normal sample (Box–Muller, deterministic).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Randn fills a new tensor with scaled normal samples.
func Randn(r *RNG, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Norm() * scale
	}
	return t
}

// AddTo accumulates src into dst elementwise (AddSpan on same-shaped tensors).
func AddTo(dst, src *Tensor) {
	checkSameShape("AddTo", dst, src)
	AddSpan(dst.Data, src.Data)
}

// Zero clears the tensor in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Equal reports whether a and b have the same shape and the same IEEE bit
// pattern in every element (the semantics check): −0 differs from +0, and a
// NaN equals the same NaN.
func Equal(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns max_i |a_i − b_i| for same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	checkSameShape("MaxAbsDiff", a, b)
	var m float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// matmulParallelThreshold is the FLOP count above which the GEMM kernels fan
// rows out across goroutines. Each output row is computed entirely by one
// worker in the same accumulation order as the serial path, so the result is
// bitwise identical and deterministic regardless of scheduling.
const matmulParallelThreshold = 1 << 22

// MatMul computes a[m×k] · b[k×n] with a fixed ikj accumulation order so
// results are reproducible across schedules (and across the serial, parallel
// and cache-blocked paths — see gemm.go).
//
// The historic `av == 0` skip branch is gone: on dense training data it was a
// mispredicted branch per element, and for finite operands skipping a
// zero-valued term is bitwise indistinguishable from adding it (a running sum
// that starts at +0 can never become −0, so x + ±0 == x exactly).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul %v · %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	if serialRows(m, 2*m*k*n, matmulParallelThreshold) {
		matMulRange(out.Data, a.Data, b.Data, k, n, 0, m, false)
	} else {
		parallelRows(m, func(_, lo, hi int) {
			matMulRange(out.Data, a.Data, b.Data, k, n, lo, hi, false)
		})
	}
	return out
}

// SumRows reduces a [m×n] matrix to its column sums [n].
func SumRows(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic("tensor: SumRows needs 2D")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j] += a.Data[i*n+j]
		}
	}
	return out
}

func checkSameShape(op string, a, b *Tensor) {
	if len(a.Shape) != len(b.Shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
		}
	}
}
