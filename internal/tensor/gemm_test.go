package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveMatMulIKJ is the pinned pre-fusion reference kernel: the flat ikj loop
// including the historic `av == 0` skip branch. The production kernels must
// match it bit for bit — including on inputs containing exact zeros, which is
// what proves removing the skip branch (and adding blocking, fusion, and
// parallelism) changed no result bits.
func naiveMatMulIKJ(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// sparsify zeroes out a deterministic subset of elements, mimicking
// post-ReLU activations (the dense-with-exact-zeros case the skip branch was
// nominally for).
func sparsify(t *Tensor, r *RNG) *Tensor {
	for i := range t.Data {
		if r.Float64() < 0.3 {
			t.Data[i] = 0
		}
	}
	return t
}

// gemmShapes is the differential shape battery: degenerate m/k/n = 1 edges,
// odd sizes, and sizes straddling every blocking constant.
func gemmShapes() [][3]int {
	return [][3]int{
		{1, 1, 1}, {1, 5, 3}, {4, 1, 6}, {3, 7, 1}, {1, 1, 9},
		{2, 3, 4}, {5, 5, 5}, {8, 16, 8},
		{gemmRowBlock + 3, 10, 7}, // straddles the row tile
		{9, gemmKBlock + 17, 5},   // straddles the k panel
		{6, 11, gemmJBlock + 9},   // straddles the MatMulT j tile
		{gemmRowBlock + 1, 13, gemmJBlock + 2},
		{67, 129, 71},
	}
}

// TestFusedGEMMDifferential pins MatMul, MatMulT and TMatMul (and their Into
// forms on dirty workspace buffers) bitwise against the naive ikj reference
// with materialized transposes, across random dense and zero-bearing inputs.
func TestFusedGEMMDifferential(t *testing.T) {
	r := NewRNG(12345)
	ws := NewWorkspace()
	for _, sh := range gemmShapes() {
		m, k, n := sh[0], sh[1], sh[2]
		for trial := 0; trial < 3; trial++ {
			a := Randn(r, 1, m, k)
			b := Randn(r, 1, k, n)
			bt := Randn(r, 1, n, k) // MatMulT's B operand, stored untransposed
			at := Randn(r, 1, m, k) // TMatMul's A operand: aᵀ·b needs a [m×k], b [m×n]
			bb := Randn(r, 1, m, n)
			if trial == 2 { // exact zeros: the skip-branch regression case
				sparsify(a, r)
				sparsify(bt, r)
				sparsify(at, r)
			}
			label := fmt.Sprintf("m=%d k=%d n=%d trial=%d", m, k, n, trial)

			if got, want := MatMul(a, b), naiveMatMulIKJ(a, b); !Equal(got, want) {
				t.Fatalf("%s: MatMul differs from naive ikj", label)
			}
			if got, want := MatMulT(a, bt), naiveMatMulIKJ(a, transpose(bt)); !Equal(got, want) {
				t.Fatalf("%s: MatMulT differs from MatMul(a, transpose(b))", label)
			}
			if got, want := TMatMul(at, bb), naiveMatMulIKJ(transpose(at), bb); !Equal(got, want) {
				t.Fatalf("%s: TMatMul differs from MatMul(transpose(a), b)", label)
			}

			// Into forms on dirty pooled buffers must overwrite completely.
			dst := ws.Get(m, n)
			for i := range dst.Data {
				dst.Data[i] = math.NaN()
			}
			if !Equal(MatMulInto(dst, a, b), naiveMatMulIKJ(a, b)) {
				t.Fatalf("%s: MatMulInto on dirty buffer differs", label)
			}
			for i := range dst.Data {
				dst.Data[i] = math.NaN()
			}
			if !Equal(MatMulTInto(dst, a, bt), naiveMatMulIKJ(a, transpose(bt))) {
				t.Fatalf("%s: MatMulTInto on dirty buffer differs", label)
			}
			ws.Put(dst)
			dstT := ws.Get(k, n)
			for i := range dstT.Data {
				dstT.Data[i] = math.NaN()
			}
			if !Equal(TMatMulInto(dstT, at, bb), naiveMatMulIKJ(transpose(at), bb)) {
				t.Fatalf("%s: TMatMulInto on dirty buffer differs", label)
			}
			ws.Put(dstT)
		}
	}
}

// TestFusedGEMMRandomShapesProperty fuzzes small random shapes (quick.Check
// drives the seeds) against the naive reference.
func TestFusedGEMMRandomShapesProperty(t *testing.T) {
	f := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%9)+1, int(kRaw%9)+1, int(nRaw%9)+1
		r := NewRNG(seed)
		a := Randn(r, 1, m, k)
		bt := Randn(r, 1, n, k)
		bb := Randn(r, 1, m, n)
		return Equal(MatMulT(a, bt), naiveMatMulIKJ(a, transpose(bt))) &&
			Equal(TMatMul(a, bb), naiveMatMulIKJ(transpose(a), bb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGEMMParallelDeterministic crosses the parallel threshold under
// GOMAXPROCS ∈ {1, 2, 4}: every kernel must produce the same bits at every
// width (also exercised under -race in CI).
func TestGEMMParallelDeterministic(t *testing.T) {
	r := NewRNG(777)
	// 2·160³ ≈ 8.2 MFLOP > matmulParallelThreshold.
	const d = 160
	a := sparsify(Randn(r, 1, d, d), r)
	b := Randn(r, 1, d, d)
	if 2*d*d*d < matmulParallelThreshold {
		t.Fatalf("test shape below parallel threshold")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	wantMM := MatMul(a, b)
	wantMT := MatMulT(a, b)
	wantTM := TMatMul(a, b)
	if !Equal(wantMM, naiveMatMulIKJ(a, b)) {
		t.Fatal("serial blocked MatMul differs from naive ikj")
	}
	for _, gmp := range []int{2, 4} {
		runtime.GOMAXPROCS(gmp)
		if !Equal(MatMul(a, b), wantMM) {
			t.Fatalf("GOMAXPROCS=%d: parallel MatMul nondeterministic", gmp)
		}
		if !Equal(MatMulT(a, b), wantMT) {
			t.Fatalf("GOMAXPROCS=%d: parallel MatMulT nondeterministic", gmp)
		}
		if !Equal(TMatMul(a, b), wantTM) {
			t.Fatalf("GOMAXPROCS=%d: parallel TMatMul nondeterministic", gmp)
		}
	}
}

// TestAddFlatTo: same accumulation as AddTo across a reshape, and size
// mismatches panic.
func TestAddFlatTo(t *testing.T) {
	r := NewRNG(11)
	dst := Randn(r, 1, 2, 3, 2)
	src := Randn(r, 1, 2, 6)
	want := dst.Clone()
	AddTo(want, src.Reshape(2, 3, 2))
	AddFlatTo(dst, src)
	if !Equal(dst, want) {
		t.Fatal("AddFlatTo differs from AddTo on the reshaped view")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	AddFlatTo(New(3), New(4))
}

// TestEnsureReuse: Ensure reuses capacity in place and allocates only on
// growth.
func TestEnsureReuse(t *testing.T) {
	buf := Ensure(nil, 4, 8)
	buf.Data[0] = 7
	again := Ensure(buf, 8, 4)
	if again != buf {
		t.Fatal("Ensure reallocated despite sufficient capacity")
	}
	if again.Shape[0] != 8 || again.Shape[1] != 4 {
		t.Fatalf("Ensure shape = %v", again.Shape)
	}
	grown := Ensure(buf, 10, 10)
	if grown == buf {
		t.Fatal("Ensure failed to grow")
	}
	if n := testing.AllocsPerRun(20, func() { Ensure(grown, 10, 10) }); n != 0 {
		t.Fatalf("warm Ensure allocates %v per call, want 0", n)
	}
}

// TestFanOutActive: the signal train's hand-off poll watches is up exactly
// while a row-partitioned kernel has chunks out.
func TestFanOutActive(t *testing.T) {
	if FanOutActive() {
		t.Fatal("active with no kernel running")
	}
	saw := make([]bool, 8)
	parallelRows(len(saw), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			saw[i] = FanOutActive()
		}
	})
	for i, s := range saw {
		if !s {
			t.Fatalf("row %d ran with the signal down", i)
		}
	}
	if FanOutActive() {
		t.Fatal("still active after the kernel returned")
	}
}
