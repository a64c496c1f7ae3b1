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
// count divides, and four shapes large enough to cross both parallel
// thresholds. Three of those split unevenly over groups of four lowered rows
// at every worker count from 2 to 4: the benchmark's conv2 at batch 32 and at
// a pipeline micro-batch of 8 (K = 72, eighteen groups), and a single-channel
// 3×3 layer (K = 9, two whole groups and a one-row group).
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
		{5, 3, 32, 30, 9, 3, 3},   // 2·N·px·K·F ≈ 18 MFLOP, 113k moved elements
		{32, 8, 14, 14, 16, 3, 3}, // conv2 at batch 32: 10.6 MFLOP
		{8, 8, 14, 14, 16, 3, 3},  // conv2 on a micro-batch: 2.65 MFLOP
		{32, 1, 30, 30, 16, 3, 3}, // C = 1, K = 9: 7.2 MFLOP
	}
	for _, k := range []int{1, 2, 3, 5} {
		shapes = append(shapes, convShape{3, 2, 9, 10, 4, k, k})
	}
	return shapes
}

// chunkOf views images [lo, hi) of an NCHW tensor (or rows [lo, hi) of a
// matrix).
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

			for _, procs := range []int{1, 2, 3, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%v sparse=%v GOMAXPROCS=%d", sh, sparse, procs)
				if !Equal(ConvForwardInto(Randn(r, 1, sh.n, sh.f, oh, ow), x, wm, sh.kh, sh.kw, ws), wantOut) {
					t.Fatalf("%s: ConvForwardInto differs from Conv2D", name)
				}
				gin := Randn(r, 1, sh.n, sh.c, sh.h, sh.w)
				if !Equal(ConvInputGradInto(gin, g, wm, sh.kh, sh.kw, ws), wantGin) {
					t.Fatalf("%s: ConvInputGradInto differs from Conv2DInputGrad", name)
				}
				if dw := ConvWeightGradAcc(New(sh.f, k), g, x, sh.kh, sh.kw, ws); !Equal(dw, wantDW.Reshape(sh.f, k)) {
					t.Fatalf("%s: ConvWeightGradAcc differs from Conv2DWeightGrad", name)
				}
				// Microbatch accumulation: M ascending chunks of images
				// continue one fold in a parameter-shaped destination.
				for _, m := range []int{2, 3, 4} {
					dw := New(sh.f, sh.c, sh.kh, sh.kw)
					for i := 0; i < m; i++ {
						if lo, hi := i*sh.n/m, (i+1)*sh.n/m; lo < hi {
							ConvWeightGradAcc(dw, chunkOf(g, lo, hi), chunkOf(x, lo, hi), sh.kh, sh.kw, ws)
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
// special-value table: the lowering of every image, whole and from every
// group of four rows on, must equal the transposed im2col matrix; forward, δO
// and δW must equal the allocating pixel-major references (NaN where they are
// NaN), δW also folded in two and three image chunks into a non-zero
// gradient; the forward and δO range kernels must leave the images outside
// [n/3, n) alone, and δW's must leave the lowered rows outside its window.
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
				geom := convGeom{c: c, h: h, w: w, kh: kh, kw: kw, oh: oh, ow: ow}
				for _, every := range []int{0, 7} {
					name := fmt.Sprintf("n%d c%d %dx%d f%d k%dx%d every=%d", n, c, h, w, f, kh, kw, every)
					x := fillSpecial(New(n, c, h, w), r, every, pick)
					wt := fillSpecial(New(f, c, kh, kw), r, every, pick+1)
					g := fillSpecial(New(n, f, oh, ow), r, every, pick+2)
					wm := wt.Reshape(f, k)

					wantColsT := refLowerT(x, kh, kw)
					for b := range n {
						for r0 := 0; r0 < k; r0 += 4 {
							cb := Randn(r, 1, k-r0, px).Data
							lowerRows(cb, x.Data, geom, b, r0, k)
							if i, ok := sameBitsOrBothNaN(cb, wantColsT.Data[(b*k+r0)*px:(b+1)*k*px]); !ok {
								t.Fatalf("%s: image %d lowered from row %d: element %d differs", name, b, r0, i)
							}
						}
					}
					out := ConvForwardInto(Randn(r, 1, n, f, oh, ow), x, wm, kh, kw, ws)
					if i, ok := sameBitsOrBothNaN(out.Data, Conv2D(x, wt).Data); !ok {
						t.Fatalf("%s: forward element %d differs from Conv2D", name, i)
					}
					gin := ConvInputGradInto(Randn(r, 1, n, c, h, w), g, wm, kh, kw, ws)
					if i, ok := sameBitsOrBothNaN(gin.Data, Conv2DInputGrad(g, wt, h, w).Data); !ok {
						t.Fatalf("%s: δO element %d differs from Conv2DInputGrad", name, i)
					}
					dw := ConvWeightGradAcc(New(f, k), g, x, kh, kw, ws)
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
								ConvWeightGradAcc(got, chunkOf(g, lo, hi), chunkOf(x, lo, hi), kh, kw, ws)
							}
						}
						if i, ok := sameBitsOrBothNaN(got.Data, want.Data); !ok {
							t.Fatalf("%s: δW into a non-zero gradient in %d chunks: element %d differs", name, m, i)
						}
					}
					// Image ranges: [n/3, n) recomputes its images and nothing else.
					lo := n / 3
					out2, gin2 := out.Clone(), gin.Clone()
					for _, part := range []*Tensor{out2, gin2} {
						per := part.Len() / n
						for i := range part.Data[:lo*per] {
							part.Data[i] = -7
						}
						clear(part.Data[lo*per:])
					}
					convForwardRange(out2.Data, x.Data, wm.Data, make([]float64, k*px), geom, n, f, lo, n)
					convInputGradRange(gin2.Data, g.Data, wm.Data, make([]float64, k*px), geom, n, f, lo, n)
					for pi, pair := range [][2]*Tensor{{out2, out}, {gin2, gin}} {
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
					// Lowered-row windows: the groups from k/8 on fold their
					// columns of dw and no other.
					r0 := k / 8 * 4
					dw2 := New(f, k)
					for i := range dw2.Data {
						if i%k < r0 {
							dw2.Data[i] = -7
						}
					}
					convWeightGradRange(dw2.Data, g.Data, x.Data, make([]float64, (k-r0)*px), geom, n, f, r0/4, (k+3)/4)
					for i, v := range dw2.Data {
						if i%k < r0 && v != -7 {
							t.Fatalf("%s: δW element %d outside rows [%d,%d) was written", name, i, r0, k)
						}
						if i%k >= r0 && math.Float64bits(v) != math.Float64bits(dw.Data[i]) && !(math.IsNaN(v) && math.IsNaN(dw.Data[i])) {
							t.Fatalf("%s: δW element %d of rows [%d,%d) differs from the full run", name, i, r0, k)
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
	x, nchw, wm := New(n, c, h, w), New(n, f, oh, ow), New(f, k)
	ws := NewWorkspace()
	cases := map[string]func(){
		"forward: out not 4D":          func() { ConvForwardInto(New(n*f, oh*ow), x, wm, kh, kw, ws) },
		"forward: out pixels":          func() { ConvForwardInto(New(n, f, oh, ow+1), x, wm, kh, kw, ws) },
		"forward: out batch":           func() { ConvForwardInto(New(n+1, f, oh, ow), x, wm, kh, kw, ws) },
		"forward: input not 4D":        func() { ConvForwardInto(nchw, New(n*c, h, w), wm, kh, kw, ws) },
		"forward: window too large":    func() { ConvForwardInto(nchw, x, wm, h+1, kw, ws) },
		"forward: empty window":        func() { ConvForwardInto(nchw, x, wm, 0, kw, ws) },
		"forward: weight filters":      func() { ConvForwardInto(nchw, x, New(f+1, k), kh, kw, ws) },
		"forward: weight width":        func() { ConvForwardInto(nchw, x, New(f, k+1), kh, kw, ws) },
		"forward: weights not 2D":      func() { ConvForwardInto(nchw, x, New(f, c, kh*kw), kh, kw, ws) },
		"inputgrad: gradOut pixels":    func() { ConvInputGradInto(x, New(n, f, oh+1, ow), wm, kh, kw, ws) },
		"inputgrad: gradOut batch":     func() { ConvInputGradInto(x, New(n-1, f, oh, ow), wm, kh, kw, ws) },
		"inputgrad: weight width":      func() { ConvInputGradInto(x, nchw, New(f, k-1), kh, kw, ws) },
		"inputgrad: gradOut not 4D":    func() { ConvInputGradInto(x, New(n*oh*ow, f), wm, kh, kw, ws) },
		"inputgrad: gin not 4D":        func() { ConvInputGradInto(New(n*c, h, w), nchw, wm, kh, kw, ws) },
		"weightgrad: dst size":         func() { ConvWeightGradAcc(New(f, k+1), nchw, x, kh, kw, ws) },
		"weightgrad: input batch":      func() { ConvWeightGradAcc(New(f, k), nchw, New(n+1, c, h, w), kh, kw, ws) },
		"weightgrad: input pixels":     func() { ConvWeightGradAcc(New(f, k), nchw, New(n, c, h, w+1), kh, kw, ws) },
		"weightgrad: input not 4D":     func() { ConvWeightGradAcc(New(f, k), nchw, New(n*c, h, w), kh, kw, ws) },
		"weightgrad: window too large": func() { ConvWeightGradAcc(New(f, k), nchw, x, kh, w+1, ws) },
		"weightgrad: gradOut not 4D":   func() { ConvWeightGradAcc(New(f, k), New(n*f, oh*ow), x, kh, kw, ws) },
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

// TestMaxPool2GradMatchesScatter: MaxPool2GradInto — on the vector path the
// window-wise body — against the scatter it replaced (maxPool2GradScatter),
// by math.Float64bits, NaN bits included. Even planes with one to six windows
// a row, so every step of the body; odd planes, whose rows and columns no
// window covers must come back cleared; gradients of ±0, NaN, ±Inf and
// ordinary values, so a −0 must land as +0; δx starts as garbage, so every
// element must be written. A map with an index outside its own window takes
// the scatter and gives its bits; an index outside δx panics with the
// scatter's message.
func TestMaxPool2GradMatchesScatter(t *testing.T) {
	r := NewRNG(7)
	special := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}
	garbage := math.Float64frombits(0x7ff8_dead_beef_0001)
	for _, h := range []int{2, 3, 4, 5, 7} {
		for _, w := range []int{2, 3, 4, 6, 8, 9, 10, 12} {
			const n, c = 2, 3
			oh, ow := h/2, w/2
			gradOut := New(n, c, oh, ow)
			for i := range gradOut.Data {
				if r.Uint64()%2 == 0 {
					gradOut.Data[i] = special[r.Uint64()%uint64(len(special))]
				} else {
					gradOut.Data[i] = r.Norm()
				}
			}
			arg := make([]int, len(gradOut.Data))
			for i := range arg {
				plane, oy, ox := i/(oh*ow), i/ow%oh, i%ow
				arg[i] = (plane*h+2*oy)*w + 2*ox + []int{0, 1, w, w + 1}[r.Uint64()%4]
			}
			check := func(what string, arg []int) {
				got, want := New(n, c, h, w), New(n, c, h, w)
				for i := range got.Data {
					got.Data[i] = garbage
				}
				MaxPool2GradInto(got, gradOut, arg)
				maxPool2GradScatter(want, gradOut.Data, arg)
				for i := range want.Data {
					if gb, wb := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); gb != wb {
						t.Fatalf("%dx%d %s: δx[%d] = %#x, scatter %#x", h, w, what, i, gb, wb)
					}
				}
			}
			check("pooling map", arg)
			// An in-range index in the wrong window: the scatter's answer.
			moved := append([]int(nil), arg...)
			moved[len(moved)-1] = arg[0]
			check("index outside its window", moved)
			for _, bad := range []int{-1, n * c * h * w} {
				stale := append([]int(nil), arg...)
				stale[len(stale)/2] = bad
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, "outside input of") || !strings.Contains(msg, "(stale map?)") {
							t.Fatalf("%dx%d: argmax index %d panicked with %q, want the stale-map diagnostic", h, w, bad, msg)
						}
					}()
					MaxPool2GradInto(New(n, c, h, w), gradOut, stale)
				}()
			}
		}
	}
}
