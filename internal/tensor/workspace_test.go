package tensor

import (
	"runtime"
	"testing"
)

// pooled returns the number of buffers currently parked in the workspace.
func (w *Workspace) pooled() int {
	n := 0
	for _, bin := range w.bins {
		n += len(bin)
	}
	return n
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(8, 16)
	if ws.Gets != 1 || ws.Misses != 1 {
		t.Fatalf("cold Get: Gets=%d Misses=%d", ws.Gets, ws.Misses)
	}
	data := &a.Data[0]
	ws.Put(a)
	if ws.pooled() != 1 {
		t.Fatalf("pooled = %d after Put", ws.pooled())
	}

	// Same-size reuse: identical backing array, reshaped header, no miss.
	b := ws.Get(4, 32)
	if ws.Misses != 1 {
		t.Fatalf("warm Get missed: Misses=%d", ws.Misses)
	}
	if &b.Data[0] != data {
		t.Fatal("warm Get did not reuse the pooled backing array")
	}
	if b.Shape[0] != 4 || b.Shape[1] != 32 {
		t.Fatalf("warm Get shape = %v", b.Shape)
	}
	ws.Put(b)

	// A smaller request is served from a larger class (scan upward).
	small := ws.Get(3)
	if ws.Misses != 1 {
		t.Fatalf("smaller Get missed: Misses=%d", ws.Misses)
	}
	if &small.Data[0] != data || len(small.Data) != 3 {
		t.Fatalf("smaller Get: wrong buffer (len=%d)", len(small.Data))
	}
	ws.Put(small)

	// A request too large for anything pooled allocates fresh.
	big := ws.Get(1000)
	if ws.Misses != 2 {
		t.Fatalf("oversize Get should miss: Misses=%d", ws.Misses)
	}
	ws.Put(big)
	if ws.pooled() != 2 {
		t.Fatalf("pooled = %d", ws.pooled())
	}

	// GetZeroed clears dirty contents.
	z := ws.GetZeroed(1000)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed left dirty value at %d: %v", i, v)
		}
	}

	ws.Put(nil) // no-op
}

// TestWorkspaceWarmGetAllocs: after the first round at a given shape set, the
// Get/Put cycle never touches the allocator.
func TestWorkspaceWarmGetAllocs(t *testing.T) {
	ws := NewWorkspace()
	cycle := func() {
		a := ws.Get(37, 21)
		b := ws.Get(64)
		ws.Put(a)
		ws.Put(b)
	}
	cycle() // warm the pool
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("warm Get/Put cycle allocates %v per run, want 0", n)
	}
}

// TestPooledConvKernelsDifferential pins the Into lowering kernels, running on
// dirty pooled workspace buffers, bitwise against the plain reference loops
// (conv_test.go) — across kernel widths on both sides of the unrolled 3-wide
// body and GOMAXPROCS widths (crossing convParallelThreshold on the larger
// shapes).
func TestPooledConvKernelsDifferential(t *testing.T) {
	r := NewRNG(4242)
	shapes := append(convShapes(),
		convShape{2, 3, 8, 7, 4, 3, 3},
		convShape{1, 2, 5, 9, 3, 2, 4},
		convShape{4, 3, 32, 32, 8, 5, 5}, // n*oh*ow*width ≈ 235k > convParallelThreshold
	)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, sh := range shapes {
		x := Randn(r, 1, sh.n, sh.c, sh.h, sh.w)
		oh, ow := sh.h-sh.kh+1, sh.w-sh.kw+1
		wantCols := refIm2col(x, sh.kh, sh.kw)
		colGrad := Randn(r, 1, wantCols.Shape...)
		wantIm := refCol2im(colGrad, sh.n, sh.c, sh.h, sh.w, sh.kh, sh.kw)

		for _, gmp := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(gmp)
			ws := NewWorkspace()
			dirty := func(t_ *Tensor) *Tensor {
				for i := range t_.Data {
					t_.Data[i] = -123.456
				}
				return t_
			}
			cols := Im2colInto(dirty(ws.Get(sh.n*oh*ow, sh.c*sh.kh*sh.kw)), x, sh.kh, sh.kw)
			if !Equal(cols, wantCols) {
				t.Fatalf("GOMAXPROCS=%d %v: Im2colInto differs", gmp, sh)
			}
			im := Col2imInto(dirty(ws.Get(sh.n, sh.c, sh.h, sh.w)), colGrad, sh.kh, sh.kw)
			if !Equal(im, wantIm) {
				t.Fatalf("GOMAXPROCS=%d %v: Col2imInto differs", gmp, sh)
			}
		}
	}
}

// TestMaxPool2GradValidation is the regression suite for the argmax-map
// validation: a mismatched map length and an out-of-range index must both
// panic instead of corrupting (or silently mis-attributing) gradients.
func TestMaxPool2GradValidation(t *testing.T) {
	r := NewRNG(5)
	x := Randn(r, 1, 1, 2, 4, 4)
	pooled, arg := MaxPool2(x)
	gradOut := Randn(r, 1, pooled.Shape...)

	// Sane map round-trips fine.
	g := MaxPool2Grad(gradOut, arg, x.Shape)
	if g.Len() != x.Len() {
		t.Fatalf("gradient shape %v", g.Shape)
	}

	t.Run("wrong length", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("truncated argmax map did not panic")
			}
		}()
		MaxPool2Grad(gradOut, arg[:len(arg)-1], x.Shape)
	})

	t.Run("index out of range", func(t *testing.T) {
		bad := append([]int(nil), arg...)
		bad[3] = x.Len() // one past the end
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range argmax index did not panic")
			}
		}()
		MaxPool2Grad(gradOut, bad, x.Shape)
	})

	t.Run("negative index", func(t *testing.T) {
		bad := append([]int(nil), arg...)
		bad[0] = -1
		defer func() {
			if recover() == nil {
				t.Fatal("negative argmax index did not panic")
			}
		}()
		MaxPool2Grad(gradOut, bad, x.Shape)
	})

	// A stale map from a larger input (the bug this validation catches): the
	// map length no longer matches the gradient.
	t.Run("stale map", func(t *testing.T) {
		xBig := Randn(r, 1, 1, 2, 8, 8)
		_, argBig := MaxPool2(xBig)
		defer func() {
			if recover() == nil {
				t.Fatal("stale oversized argmax map did not panic")
			}
		}()
		MaxPool2Grad(gradOut, argBig, x.Shape)
	})
}
