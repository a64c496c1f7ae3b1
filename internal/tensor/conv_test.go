package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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

// chunkOf views images [lo, hi) of an NCHW (or [N,K,px]) tensor.
func chunkOf(t *Tensor, lo, hi int) *Tensor {
	per := t.Len() / t.Shape[0]
	return &Tensor{Shape: append([]int{hi - lo}, t.Shape[1:]...), Data: t.Data[lo*per : hi*per]}
}

// sameBitsOrBothNaN compares element by element: equal bits, or NaN on both
// sides (the payload of a NaN that met another NaN is not part of any contract
// here, see TestVectorKernelsSpecialValues). It returns the first mismatch.
func sameBitsOrBothNaN(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range want {
		gn, wn := math.IsNaN(got[i]), math.IsNaN(want[i])
		if gn != wn || (!gn && math.Float64bits(got[i]) != math.Float64bits(want[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestConvGEMMsMatchRepackingReference is the determinism contract of the
// channel-major training path: forward, δO and δW equal the pixel-major
// allocating references Conv2D, Conv2DInputGrad and Conv2DWeightGrad bit for
// bit, on dirty destinations, on dense and zero-bearing operands, at every
// worker count — and δW folded chunk by chunk equals δW of the whole batch.
func TestConvGEMMsMatchRepackingReference(t *testing.T) {
	r := NewRNG(2718)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ws := NewWorkspace()
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
			wantColsT := refLowerT(x, sh.kh, sh.kw)

			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%v sparse=%v GOMAXPROCS=%d", sh, sparse, procs)
				out, colsT := Randn(r, 1, sh.n, sh.f, oh, ow), Randn(r, 1, sh.n, k, oh*ow)
				if !Equal(ConvForwardInto(out, colsT, x, wm, sh.kh, sh.kw), wantOut) {
					t.Fatalf("%s: ConvForwardInto differs from Conv2D", name)
				}
				if !Equal(colsT, wantColsT) {
					t.Fatalf("%s: the lowering is not the transposed im2col matrix", name)
				}
				if !Equal(ConvLowerInto(Randn(r, 1, sh.n, k, oh*ow), x, sh.kh, sh.kw), wantColsT) {
					t.Fatalf("%s: ConvLowerInto differs from the forward's lowering", name)
				}
				gin := Randn(r, 1, sh.n, sh.c, sh.h, sh.w)
				if !Equal(ConvInputGradInto(gin, g, wm, sh.kh, sh.kw, ws), wantGin) {
					t.Fatalf("%s: ConvInputGradInto differs from Conv2DInputGrad", name)
				}
				if dw := ConvWeightGradAcc(New(sh.f, k), g, colsT); !Equal(dw, wantDW.Reshape(sh.f, k)) {
					t.Fatalf("%s: ConvWeightGradAcc differs from Conv2DWeightGrad", name)
				}
				// Microbatch accumulation: M ascending chunks of images
				// continue one fold in a parameter-shaped destination.
				for _, m := range []int{2, 3, 4} {
					dw := New(sh.f, sh.c, sh.kh, sh.kw)
					for i := 0; i < m; i++ {
						if lo, hi := i*sh.n/m, (i+1)*sh.n/m; lo < hi {
							ConvWeightGradAcc(dw, chunkOf(g, lo, hi), chunkOf(colsT, lo, hi))
						}
					}
					if !Equal(dw, wantDW) {
						t.Fatalf("%s: δW in %d chunks differs from the full batch", name, m)
					}
				}
			}
		}
	}
}

// refLowerT is the channel-major lowering in its plainest form: the pixel-major
// reference matrix, transposed image by image.
func refLowerT(x *Tensor, kh, kw int) *Tensor {
	n, c, h, w := conv2dDims(x)
	px, k := (h-kh+1)*(w-kw+1), c*kh*kw
	cols := refIm2col(x, kh, kw)
	colsT := New(n, k, px)
	for b := 0; b < n; b++ {
		for p := 0; p < px; p++ {
			for q := 0; q < k; q++ {
				colsT.Data[(b*k+q)*px+p] = cols.Data[(b*px+p)*k+q]
			}
		}
	}
	return colsT
}

// convSpecials is the value table of the special-value sweeps: signed zeros,
// infinities, subnormals, huge and tiny magnitudes, and a NaN.
var convSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64, 0x1p1000, -0x1p-1000, 1, -1,
}

// fillSpecial fills t with small ordinary values and, at every position p with
// p mod every == phase, the table's entry for that position — so that over the
// phases each special value visits every lane of the vector bodies.
func fillSpecial(t *Tensor, r *RNG, every, phase int) *Tensor {
	for i := range t.Data {
		t.Data[i] = float64(int64(r.Uint64()%2001)-1000) / 64
		if every > 0 && i%every == phase%every {
			t.Data[i] = convSpecials[(i/every+phase)%len(convSpecials)]
		}
	}
	return t
}

// TestConvChannelMajorSweep crosses channel counts, window shapes, output
// widths on every remainder of the four-wide row bodies (with OH ≠ OW), batch
// and filter counts, and drives each shape on ordinary values and on the
// special-value table: forward, δO and δW must equal the allocating
// pixel-major references (NaN where they are NaN), δW also folded in two and
// three image chunks into a non-zero gradient, and the range kernels must
// leave the images outside [n/3, n) alone.
func TestConvChannelMajorSweep(t *testing.T) {
	r := NewRNG(31337)
	ws := NewWorkspace()
	cases := 0
	for ci, c := range []int{1, 3, 8} {
		for ki, win := range [][2]int{{1, 1}, {3, 3}, {2, 3}, {5, 5}} {
			for oi, ow := range []int{1, 3, 4, 5, 12, 13, 14} {
				// One (N, F) pair per shape, rotated so every pair occurs with
				// every window and width class.
				pick := ci + ki + oi
				n, f := []int{1, 2, 5}[pick%3], []int{1, 3, 4, 5, 16}[pick%5]
				kh, kw := win[0], win[1]
				oh := ow%3 + 2
				h, w, k, px := oh+kh-1, ow+kw-1, c*kh*kw, oh*ow
				for _, every := range []int{0, 7} {
					name := fmt.Sprintf("n%d c%d %dx%d f%d k%dx%d every=%d", n, c, h, w, f, kh, kw, every)
					x := fillSpecial(New(n, c, h, w), r, every, pick)
					wt := fillSpecial(New(f, c, kh, kw), r, every, pick+1)
					g := fillSpecial(New(n, f, oh, ow), r, every, pick+2)
					wm := wt.Reshape(f, k)

					out, colsT := Randn(r, 1, n, f, oh, ow), Randn(r, 1, n, k, px)
					ConvForwardInto(out, colsT, x, wm, kh, kw)
					if i, ok := sameBitsOrBothNaN(out.Data, Conv2D(x, wt).Data); !ok {
						t.Fatalf("%s: forward element %d differs from Conv2D", name, i)
					}
					if i, ok := sameBitsOrBothNaN(colsT.Data, refLowerT(x, kh, kw).Data); !ok {
						t.Fatalf("%s: lowering element %d differs", name, i)
					}
					if i, ok := sameBitsOrBothNaN(ConvLowerInto(Randn(r, 1, n, k, px), x, kh, kw).Data, colsT.Data); !ok {
						t.Fatalf("%s: ConvLowerInto element %d differs from the forward's lowering", name, i)
					}
					gin := ConvInputGradInto(Randn(r, 1, n, c, h, w), g, wm, kh, kw, ws)
					if i, ok := sameBitsOrBothNaN(gin.Data, Conv2DInputGrad(g, wt, h, w).Data); !ok {
						t.Fatalf("%s: δO element %d differs from Conv2DInputGrad", name, i)
					}
					dw := ConvWeightGradAcc(New(f, k), g, colsT)
					if i, ok := sameBitsOrBothNaN(dw.Data, Conv2DWeightGrad(x, g, kh, kw).Data); !ok {
						t.Fatalf("%s: δW element %d differs from Conv2DWeightGrad", name, i)
					}
					// A non-zero gradient continues its chains: the reference is
					// the pixel-major fold continued by TMatMulAcc.
					seed := fillSpecial(New(f, k), r, every, pick+3)
					want := TMatMulAcc(seed.Clone(), RowsFromNCHW(g), refIm2col(x, kh, kw))
					for _, m := range []int{1, 2, 3} {
						got := seed.Clone()
						for i := 0; i < m; i++ {
							if lo, hi := i*n/m, (i+1)*n/m; lo < hi {
								ConvWeightGradAcc(got, chunkOf(g, lo, hi), chunkOf(colsT, lo, hi))
							}
						}
						if i, ok := sameBitsOrBothNaN(got.Data, want.Data); !ok {
							t.Fatalf("%s: δW into a non-zero gradient in %d chunks: element %d differs", name, m, i)
						}
					}
					// Image ranges: [n/3, n) recomputes its images and nothing else.
					lo := n / 3
					geom := convGeom{c: c, h: h, w: w, kh: kh, kw: kw, oh: oh, ow: ow}
					out2, colsT2, gin2 := out.Clone(), colsT.Clone(), gin.Clone()
					for _, part := range []*Tensor{out2, colsT2, gin2} {
						per := part.Len() / n
						for i := range part.Data[:lo*per] {
							part.Data[i] = -7
						}
						clear(part.Data[lo*per:])
					}
					convForwardRange(out2.Data, colsT2.Data, x.Data, wm.Data, geom, f, lo, n)
					convInputGradRange(gin2.Data, g.Data, wm.Data, make([]float64, k*px), geom, f, lo, n)
					for pi, pair := range [][2]*Tensor{{out2, out}, {colsT2, colsT}, {gin2, gin}} {
						per := pair[0].Len() / n
						if _, ok := sameBitsOrBothNaN(pair[0].Data[lo*per:], pair[1].Data[lo*per:]); !ok {
							t.Fatalf("%s: images [%d,%d) of operand %d differ from the full run", name, lo, n, pi)
						}
						for i, v := range pair[0].Data[:lo*per] {
							if v != -7 {
								t.Fatalf("%s: operand %d element %d outside images [%d,%d) was written", name, pi, i, lo, n)
							}
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d shape × value-table cases", cases)
}

// TestConvGEMMShapePanics: every mismatched operand is a diagnostic panic
// naming the op, like the GEMMs' own.
func TestConvGEMMShapePanics(t *testing.T) {
	const n, c, h, w, f, kh, kw = 2, 2, 6, 7, 3, 3, 3
	const oh, ow, k = h - kh + 1, w - kw + 1, c * kh * kw
	x, nchw, colsT, wm := New(n, c, h, w), New(n, f, oh, ow), New(n, k, oh*ow), New(f, k)
	ws := NewWorkspace()
	cases := map[string]func(){
		"forward: out not 4D":        func() { ConvForwardInto(New(n*f, oh*ow), colsT, x, wm, kh, kw) },
		"forward: out pixels":        func() { ConvForwardInto(New(n, f, oh, ow+1), colsT, x, wm, kh, kw) },
		"forward: out batch":         func() { ConvForwardInto(New(n+1, f, oh, ow), colsT, x, wm, kh, kw) },
		"forward: input not 4D":      func() { ConvForwardInto(nchw, colsT, New(n*c, h, w), wm, kh, kw) },
		"forward: window too large":  func() { ConvForwardInto(nchw, colsT, x, wm, h+1, kw) },
		"forward: empty window":      func() { ConvForwardInto(nchw, colsT, x, wm, 0, kw) },
		"forward: lowering rows":     func() { ConvForwardInto(nchw, New(n, k+1, oh*ow), x, wm, kh, kw) },
		"forward: lowering pixels":   func() { ConvForwardInto(nchw, New(n, k, oh*ow-1), x, wm, kh, kw) },
		"forward: lowering not 3D":   func() { ConvForwardInto(nchw, New(n*k, oh*ow), x, wm, kh, kw) },
		"forward: weight filters":    func() { ConvForwardInto(nchw, colsT, x, New(f+1, k), kh, kw) },
		"forward: weight width":      func() { ConvForwardInto(nchw, colsT, x, New(f, k+1), kh, kw) },
		"forward: weights not 2D":    func() { ConvForwardInto(nchw, colsT, x, New(f, c, kh*kw), kh, kw) },
		"inputgrad: gradOut pixels":  func() { ConvInputGradInto(x, New(n, f, oh+1, ow), wm, kh, kw, ws) },
		"inputgrad: gradOut batch":   func() { ConvInputGradInto(x, New(n-1, f, oh, ow), wm, kh, kw, ws) },
		"inputgrad: weight width":    func() { ConvInputGradInto(x, nchw, New(f, k-1), kh, kw, ws) },
		"inputgrad: gradOut not 4D":  func() { ConvInputGradInto(x, New(n*oh*ow, f), wm, kh, kw, ws) },
		"inputgrad: gin not 4D":      func() { ConvInputGradInto(New(n*c, h, w), nchw, wm, kh, kw, ws) },
		"weightgrad: dst size":       func() { ConvWeightGradAcc(New(f, k+1), nchw, colsT) },
		"weightgrad: lowering batch": func() { ConvWeightGradAcc(New(f, k), nchw, New(n+1, k, oh*ow)) },
		"weightgrad: lowering px":    func() { ConvWeightGradAcc(New(f, k), nchw, New(n, k, oh*ow+1)) },
		"weightgrad: gradOut not 4D": func() { ConvWeightGradAcc(New(f, k), New(n*f, oh*ow), colsT) },
		"lower: lowering rows":       func() { ConvLowerInto(New(n, k+1, oh*ow), x, kh, kw) },
		"lower: lowering batch":      func() { ConvLowerInto(New(n+1, k, oh*ow), x, kh, kw) },
		"lower: lowering not 3D":     func() { ConvLowerInto(New(n*k, oh*ow), x, kh, kw) },
		"lower: window too large":    func() { ConvLowerInto(colsT, x, kh, w+1) },
		"lower: input not 4D":        func() { ConvLowerInto(colsT, New(n*c, h, w), kh, kw) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tensor: ") {
					t.Errorf("%s: want a tensor diagnostic, got panic %q", name, msg)
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
// data, on windows of tied values, with NaN, ±Inf and ±0 in every window
// position, and on every one of the 6⁴ windows over {NaN, −Inf, −0, +0, 1, 2}
// — the argmax also from MaxPool2ArgInto, which writes no maxima. The 6⁴
// windows are also laid out at output widths 1–9, 12 and 13, each window in
// every column, so every lane of a four-output group and every tail position
// meets every window. Values are compared as bits, argmax entries exactly.
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
	// Every window over a small value set, exhaustively: each of the four
	// positions holds the maximum alone, ties with every later and earlier
	// one, and holds a NaN beside every combination of the others.
	vals := []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 0, 1, 2}
	windows := len(vals) * len(vals) * len(vals) * len(vals)
	window := func(wi, pos int) float64 {
		for ; pos > 0; pos-- {
			wi /= len(vals)
		}
		return vals[wi%len(vals)]
	}
	all := New(1, 1, 2, 2*windows)
	for wi := 0; wi < windows; wi++ {
		for pos := 0; pos < 4; pos++ {
			all.Data[(pos/2)*2*windows+2*wi+pos%2] = window(wi, pos)
		}
	}
	inputs = append(inputs, all)
	for _, ow := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13} {
		// windows output rows over 2 images × windows/4 channels × 2 rows;
		// output row q holds window (q + ox) mod windows in column ox.
		w := 2 * ow
		x := New(2, windows/4, 4, w)
		for q := 0; q < windows; q++ {
			for ox := 0; ox < ow; ox++ {
				wi := (q + ox) % windows
				for pos := 0; pos < 4; pos++ {
					x.Data[(2*q+pos/2)*w+2*ox+pos%2] = window(wi, pos)
				}
			}
		}
		inputs = append(inputs, x)
		// Random values with the specials mixed in, on two planes.
		y := New(1, 2, 6, w)
		for i := range y.Data {
			if r.Uint64()%3 == 0 {
				y.Data[i] = special[r.Uint64()%uint64(len(special))]
			} else {
				y.Data[i] = r.Norm()
			}
		}
		inputs = append(inputs, y)
	}
	for i, x := range inputs {
		want, wantArg := refMaxPool2(x)
		got, gotArg := MaxPool2(x)
		for j := range want.Data {
			if gb, wb := math.Float64bits(got.Data[j]), math.Float64bits(want.Data[j]); gb != wb {
				t.Fatalf("input %d %v: pooled[%d] = %#x, reference %#x", i, x.Shape, j, gb, wb)
			}
		}
		argOnly := make([]int, len(wantArg))
		for j := range argOnly {
			argOnly[j] = -1
		}
		MaxPool2ArgInto(argOnly, x)
		for j := range wantArg {
			if gotArg[j] != wantArg[j] || argOnly[j] != wantArg[j] {
				t.Fatalf("input %d %v: argmax[%d] = %d, argmax alone %d, reference %d", i, x.Shape, j, gotArg[j], argOnly[j], wantArg[j])
			}
		}
	}
}
