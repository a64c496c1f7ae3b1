package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// set writes v at the given index.
func (t *Tensor) set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// transpose returns the transpose of a 2-D tensor: the allocating reference
// the fused MatMulT/TMatMul kernels are checked against.
func transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func TestNewAndAt(t *testing.T) {
	a := New(2, 3)
	a.set(7, 1, 2)
	if a.At(1, 2) != 7 {
		t.Fatal("set/At roundtrip failed")
	}
	if a.Len() != 6 {
		t.Fatalf("Len = %d", a.Len())
	}
}

// TestEqualComparesBits pins Equal to IEEE bit patterns: −0 and +0 differ, a
// NaN equals the same NaN, and a NaN with another payload differs.
func TestEqualComparesBits(t *testing.T) {
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{math.Copysign(0, -1), 0, false},
		{math.Copysign(0, -1), math.Copysign(0, -1), true},
		{nan, nan, true},
		{nan, otherNaN, false},
		{1.5, 1.5, true},
	} {
		a, b := FromSlice([]float64{2, c.a}, 2), FromSlice([]float64{2, c.b}, 2)
		if got := Equal(a, b); got != c.want {
			t.Errorf("Equal(%v (bits %#x), %v (bits %#x)) = %v, want %v",
				c.a, math.Float64bits(c.a), c.b, math.Float64bits(c.b), got, c.want)
		}
	}
	if Equal(New(2, 3), New(3, 2)) {
		t.Error("Equal ignores shape")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapePreservesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape data wrong: %v", b.Data)
	}
	b.set(9, 0, 0)
	if a.At(0, 0) != 9 {
		t.Fatal("reshape must be a view")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s = math.FMA(a.At(i, p), b.At(p, j), s)
			}
			out.set(s, i, j)
		}
	}
	return out
}

func TestMatMulAgainstNaiveProperty(t *testing.T) {
	f := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%6)+1, int(kRaw%6)+1, int(nRaw%6)+1
		r := NewRNG(seed)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		return MaxAbsDiff(got, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := NewRNG(1)
	a := Randn(r, 1, 3, 5)
	if !Equal(a, transpose(transpose(a))) {
		t.Fatal("transpose twice != identity")
	}
}

func TestSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	s := SumRows(a)
	if s.Data[0] != 4 || s.Data[1] != 6 {
		t.Fatalf("SumRows = %v", s.Data)
	}
}

func TestElementwise(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	AddTo(a, b)
	if a.Data[0] != 4 {
		t.Fatalf("AddTo = %v", a.Data)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRandnStats(t *testing.T) {
	r := NewRNG(7)
	x := Randn(r, 1, 10000)
	var mean, sq float64
	for _, v := range x.Data {
		mean += v
		sq += v * v
	}
	mean /= float64(x.Len())
	sq /= float64(x.Len())
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %v, want ≈ 0", mean)
	}
	if math.Abs(sq-1) > 0.1 {
		t.Fatalf("var = %v, want ≈ 1", sq)
	}
}

// naiveConv2D is the direct quadruple-loop reference.
func naiveConv2D(x, w *Tensor) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, _, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := h-kh+1, wd-kw+1
	out := New(n, f, oh, ow)
	for b := 0; b < n; b++ {
		for fo := 0; fo < f; fo++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								s += x.At(b, ch, oy+ky, ox+kx) * w.At(fo, ch, ky, kx)
							}
						}
					}
					out.set(s, b, fo, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DAgainstNaive(t *testing.T) {
	r := NewRNG(3)
	x := Randn(r, 1, 2, 3, 6, 6)
	w := Randn(r, 1, 4, 3, 3, 3)
	got := Conv2D(x, w)
	want := naiveConv2D(x, w)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("conv mismatch %v", d)
	}
}

// TestConvGradientsNumerically checks Conv2DInputGrad and Conv2DWeightGrad
// against finite differences of a scalar loss L = Σ conv(x, w).
func TestConvGradientsNumerically(t *testing.T) {
	r := NewRNG(5)
	x := Randn(r, 1, 1, 2, 5, 5)
	w := Randn(r, 1, 3, 2, 3, 3)
	loss := func(x, w *Tensor) float64 {
		out := Conv2D(x, w)
		var s float64
		for _, v := range out.Data {
			s += v
		}
		return s
	}
	gradOut := Conv2D(x, w)
	for i := range gradOut.Data {
		gradOut.Data[i] = 1 // dL/dout = 1
	}
	gx := Conv2DInputGrad(gradOut, w, 5, 5)
	gw := Conv2DWeightGrad(x, gradOut, 3, 3)
	const eps = 1e-6
	for _, i := range []int{0, 7, 20, x.Len() - 1} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := loss(x, w)
		x.Data[i] = orig - eps
		down := loss(x, w)
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-gx.Data[i]) > 1e-5 {
			t.Fatalf("input grad [%d] = %v, numeric %v", i, gx.Data[i], num)
		}
	}
	for _, i := range []int{0, 5, w.Len() - 1} {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		up := loss(x, w)
		w.Data[i] = orig - eps
		down := loss(x, w)
		w.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-gw.Data[i]) > 1e-5 {
			t.Fatalf("weight grad [%d] = %v, numeric %v", i, gw.Data[i], num)
		}
	}
}

func TestMaxPool2(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2(x)
	want := []float64{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("pool = %v, want %v", out.Data, want)
		}
	}
	g := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	back := MaxPool2Grad(g, arg, x.Shape)
	// Gradient lands only on the maxima.
	if back.Data[5] != 1 || back.Data[7] != 1 || back.Data[13] != 1 || back.Data[15] != 1 {
		t.Fatalf("pool grad = %v", back.Data)
	}
	var sum float64
	for _, v := range back.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("pool grad mass = %v, want 4", sum)
	}
}

// Property: im2col/col2im are adjoint: <im2col(x), y> == <x, col2im(y)>.
func TestIm2colAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		x := Randn(r, 1, 1, 2, 5, 5)
		cols := im2col(x, 3, 3)
		y := Randn(r, 1, cols.Shape[0], cols.Shape[1])
		var lhs float64
		for i := range cols.Data {
			lhs += cols.Data[i] * y.Data[i]
		}
		back := col2im(y, 1, 2, 5, 5, 3, 3)
		var rhs float64
		for i := range x.Data {
			rhs += x.Data[i] * back.Data[i]
		}
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerialBitwise(t *testing.T) {
	// Big enough to cross the parallel threshold; each row is computed in
	// the same order by one worker, so bitwise equality must hold against a
	// row-by-row serial reference.
	r := NewRNG(31)
	a := Randn(r, 1, 128, 96)
	b := Randn(r, 1, 96, 200)
	got := MatMul(a, b)
	want := New(128, 200)
	for i := 0; i < 128; i++ {
		for p := 0; p < 96; p++ {
			av := a.Data[i*96+p]
			for j := 0; j < 200; j++ {
				want.Data[i*200+j] = math.FMA(av, b.Data[p*200+j], want.Data[i*200+j])
			}
		}
	}
	if !Equal(got, want) {
		t.Fatal("parallel matmul diverged from serial reference")
	}
}
