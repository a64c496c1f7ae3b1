package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// refIm2col and refCol2im are the lowering loops in their plainest form: the
// position of every row re-derived by division, one element moved per
// iteration. The production range kernels (running indices, kw-wide runs, the
// unrolled 3-wide body) must move exactly the same elements in the same
// order.
func refIm2col(x *Tensor, kh, kw int) *Tensor {
	n, c, h, w := conv2dDims(x)
	oh, ow := h-kh+1, w-kw+1
	cols := New(n*oh*ow, c*kh*kw)
	for row := 0; row < n*oh*ow; row++ {
		b, oy, ox := row/(oh*ow), (row/ow)%oh, row%ow
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					cols.Data[row*c*kh*kw+(ch*kh+ky)*kw+kx] = x.Data[((b*c+ch)*h+oy+ky)*w+ox+kx]
				}
			}
		}
	}
	return cols
}

func refCol2im(cols *Tensor, n, c, h, w, kh, kw int) *Tensor {
	oh, ow := h-kh+1, w-kw+1
	dst := New(n, c, h, w)
	for row := 0; row < n*oh*ow; row++ {
		b, oy, ox := row/(oh*ow), (row/ow)%oh, row%ow
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					dst.Data[((b*c+ch)*h+oy+ky)*w+ox+kx] += cols.Data[row*c*kh*kw+(ch*kh+ky)*kw+kx]
				}
			}
		}
	}
	return dst
}

// convShape is one case of the conv differential battery.
type convShape struct{ n, c, h, w, f, kh, kw int }

func (s convShape) String() string {
	return fmt.Sprintf("n%d c%d %dx%d f%d k%dx%d", s.n, s.c, s.h, s.w, s.f, s.kh, s.kw)
}

// convShapes crosses kernel sizes 1, 2, 3 and 5 (in both positions) with
// non-square inputs, a single channel, a single image, image counts no worker
// count divides, and one shape large enough to cross both parallel
// thresholds.
func convShapes() []convShape {
	shapes := []convShape{
		{1, 1, 3, 3, 1, 1, 1},
		{1, 1, 5, 5, 1, 5, 5}, // one output pixel
		{3, 1, 7, 9, 2, 3, 3}, // C = 1, N odd
		{1, 3, 8, 6, 4, 3, 3}, // N = 1
		{5, 2, 6, 11, 3, 2, 5},
		{7, 3, 9, 8, 5, 5, 2},
		{2, 4, 6, 6, 3, 1, 3},
		{3, 2, 7, 5, 6, 3, 1},
		{5, 3, 32, 30, 9, 3, 3}, // 2·N·px·K·F ≈ 18 MFLOP, 113k moved elements
	}
	for _, k := range []int{1, 2, 3, 5} {
		shapes = append(shapes, convShape{3, 2, 9, 10, 4, k, k})
	}
	return shapes
}

// TestConvGEMMsMatchRepackingReference is the determinism contract of the
// NCHW-direct conv GEMMs: forward, δO and δW equal the repacking references
// Conv2D, Conv2DInputGrad and Conv2DWeightGrad bit for bit, on dirty
// destinations, on dense and zero-bearing operands, at every worker count —
// and δW folded chunk by chunk equals δW of the whole batch.
func TestConvGEMMsMatchRepackingReference(t *testing.T) {
	r := NewRNG(2718)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range convShapes() {
		for _, sparse := range []bool{false, true} {
			oh, ow := sh.h-sh.kh+1, sh.w-sh.kw+1
			k := sh.c * sh.kh * sh.kw
			x := Randn(r, 1, sh.n, sh.c, sh.h, sh.w)
			w := Randn(r, 1, sh.f, sh.c, sh.kh, sh.kw)
			g := Randn(r, 1, sh.n, sh.f, oh, ow)
			if sparse {
				sparsify(x, r)
				sparsify(g, r)
			}
			wm := w.Reshape(sh.f, k)

			runtime.GOMAXPROCS(1)
			wantOut := Conv2D(x, w)
			wantGin := Conv2DInputGrad(g, w, sh.h, sh.w)
			wantDW := Conv2DWeightGrad(x, g, sh.kh, sh.kw)

			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%v sparse=%v GOMAXPROCS=%d", sh, sparse, procs)
				cols := im2col(x, sh.kh, sh.kw)
				out := Randn(r, 1, sh.n, sh.f, oh, ow)
				if !bitwiseEqual(ConvForwardInto(out, wm, cols), wantOut) {
					t.Fatalf("%s: ConvForwardInto differs from Conv2D", name)
				}
				colGrad := Randn(r, 1, sh.n*oh*ow, k)
				gin := Col2imInto(New(sh.n, sh.c, sh.h, sh.w), ConvInputGradInto(colGrad, g, wm), sh.kh, sh.kw)
				if !bitwiseEqual(gin, wantGin) {
					t.Fatalf("%s: ConvInputGradInto differs from Conv2DInputGrad", name)
				}
				if dw := ConvWeightGradAcc(New(sh.f, k), g, cols); !bitwiseEqual(dw, wantDW) {
					t.Fatalf("%s: ConvWeightGradAcc differs from Conv2DWeightGrad", name)
				}
				// Microbatch accumulation: M ascending chunks of images
				// continue one fold in a parameter-shaped destination.
				for _, m := range []int{2, 4} {
					dw := New(sh.f, sh.c, sh.kh, sh.kw)
					for i := 0; i < m; i++ {
						lo, hi := i*sh.n/m, (i+1)*sh.n/m
						if lo == hi {
							continue
						}
						gc := &Tensor{Shape: []int{hi - lo, sh.f, oh, ow}, Data: g.Data[lo*sh.f*oh*ow : hi*sh.f*oh*ow]}
						cc := &Tensor{Shape: []int{(hi - lo) * oh * ow, k}, Data: cols.Data[lo*oh*ow*k : hi*oh*ow*k]}
						ConvWeightGradAcc(dw, gc, cc)
					}
					if !bitwiseEqual(dw, wantDW) {
						t.Fatalf("%s: δW in %d chunks differs from the full batch", name, m)
					}
				}
			}
		}
	}
}

// TestConvGEMMShapePanics: every mismatched operand is a diagnostic panic,
// like the GEMMs these entry points replace.
func TestConvGEMMShapePanics(t *testing.T) {
	const n, f, oh, ow, k = 2, 3, 4, 5, 6
	nchw, cols, wm := New(n, f, oh, ow), New(n*oh*ow, k), New(f, k)
	cases := map[string]func(){
		"forward: out not 4D":       func() { ConvForwardInto(New(n*f, oh*ow), wm, cols) },
		"forward: lowering rows":    func() { ConvForwardInto(nchw, wm, New(n*oh*ow-1, k)) },
		"forward: lowering not 2D":  func() { ConvForwardInto(nchw, wm, New(n, oh*ow, k)) },
		"forward: weight filters":   func() { ConvForwardInto(nchw, New(f+1, k), cols) },
		"forward: weight width":     func() { ConvForwardInto(nchw, New(f, k+1), cols) },
		"forward: weights not 2D":   func() { ConvForwardInto(nchw, New(f, 2, 3), cols) },
		"inputgrad: colGrad rows":   func() { ConvInputGradInto(New(n*oh*ow+1, k), nchw, wm) },
		"inputgrad: weight width":   func() { ConvInputGradInto(cols, nchw, New(f, k-1)) },
		"inputgrad: gradOut not 4D": func() { ConvInputGradInto(cols, New(n*oh*ow, f), wm) },
		"weightgrad: dst size":      func() { ConvWeightGradAcc(New(f, k+1), nchw, cols) },
		"weightgrad: lowering rows": func() { ConvWeightGradAcc(New(f, k), nchw, New(oh*ow, k)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// refMaxPool2 is MaxPool2Into as it was before the row-pair walk: every
// window position re-indexed from scratch, the first candidate compared with
// itself.
func refMaxPool2(x *Tensor) (*Tensor, []int) {
	n, c, h, w := conv2dDims(x)
	oh, ow := h/2, w/2
	out := New(n, c, oh, ow)
	arg := make([]int, out.Len())
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := ((b*c+ch)*h+2*oy)*w + 2*ox
					best := x.Data[bestIdx]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := ((b*c+ch)*h+(2*oy+dy))*w + (2*ox + dx)
							if x.Data[idx] > best {
								best, bestIdx = x.Data[idx], idx
							}
						}
					}
					o := ((b*c+ch)*oh+oy)*ow + ox
					out.Data[o] = best
					arg[o] = bestIdx
				}
			}
		}
	}
	return out, arg
}

// TestMaxPool2MatchesReferenceLoop: same maxima and the same argmax on random
// data, on windows of tied values, and with NaN, ±Inf and ±0 in every window
// position.
func TestMaxPool2MatchesReferenceLoop(t *testing.T) {
	r := NewRNG(99)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, -1}
	inputs := []*Tensor{Randn(r, 1, 3, 2, 6, 10), New(2, 3, 4, 4)} // random; all windows tied at 0
	for trial := 0; trial < 50; trial++ {
		x := New(2, 2, 4, 6)
		for i := range x.Data {
			x.Data[i] = special[r.Uint64()%uint64(len(special))]
		}
		inputs = append(inputs, x)
	}
	for i, x := range inputs {
		want, wantArg := refMaxPool2(x)
		got, gotArg := MaxPool2(x)
		if !bitwiseEqual(got, want) {
			t.Fatalf("input %d: pooled values differ from the reference loop", i)
		}
		for j := range wantArg {
			if gotArg[j] != wantArg[j] {
				t.Fatalf("input %d: argmax[%d] = %d, reference %d", i, j, gotArg[j], wantArg[j])
			}
		}
	}
}
