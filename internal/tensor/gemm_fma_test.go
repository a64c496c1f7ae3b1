package tensor

import (
	"math"
	"testing"
)

// The fused probe: two consecutive terms of one element's chain, a = [1,
// 1+2⁻²⁷] against b = [−1, 1−2⁻²⁷]. Their exact products are −1 and 1−2⁻⁵⁴.
// Fused in ascending order from +0 the chain ends at −2⁻⁵⁴; rounding the
// second product on its own (to 1, a tie broken to even) ends it at +0.
var (
	probeA     = [2]float64{1, 1 + 0x1p-27}
	probeB     = [2]float64{-1, 1 - 0x1p-27}
	probeFused = -0x1p-54
)

// TestGEMMIsFused places the probe at every element of shapes that reach
// every GEMM body, and at every pair of consecutive terms of that element's
// chain, through each public GEMM and the three conv kernels. The element
// must read −2⁻⁵⁴, the fused chain's value, on either kernel path (TestMain
// runs the package twice); an unfused term anywhere in its chain reads +0.
//
// The axpy shapes (MatMul, TMatMul, TMatMulAcc, conv forward and δO) have
// nine output rows, two groups of four for the tile and edge bodies and one
// row for axpyPanels; 13 to 23 or 45 columns, so a group row has whole tile
// blocks and a masked edge of every width from 1 to 11, and the last row the
// panel body's eight-, four- and one-wide steps; and 6 or 9 terms, so the
// last row takes whole groups of four and single terms. The dot shapes
// (MatMulT, its seeded fold cut at every row, conv δW) have 13 or 9 rows, an
// eight-row strip and a last four rows or one row, and with the cuts every
// row count of the four-row body; 4 to 7 or 9 columns, whole tiles and a
// masked last tile of every width; and 6 or 45 terms, the four-at-a-time
// steps of the bodies and their single-term tails.
func TestGEMMIsFused(t *testing.T) {
	unfused := 0 + float64(probeA[0]*probeB[0]) + float64(probeA[1]*probeB[1])
	if math.Float64bits(unfused) != 0 || unfused == probeFused {
		t.Fatalf("probe: unfused chain %v, want +0 and not the fused %v", unfused, probeFused)
	}
	check := func(name string, got float64, args ...any) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(probeFused) {
			t.Fatalf("%s %v: element = %v (%x), want the fused chain's %v", name, args, got, math.Float64bits(got), probeFused)
		}
	}
	// checkOnly also wants every other element of a GEMM's output at +0: the
	// products that meet a zero are ±0, and a chain of them from +0 stays +0.
	checkOnly := func(name string, out *Tensor, at int, args ...any) {
		t.Helper()
		check(name, out.Data[at], args...)
		for e, v := range out.Data {
			if e != at && math.Float64bits(v) != 0 {
				t.Fatalf("%s %v: element %d = %v (%x), want +0", name, args, e, v, math.Float64bits(v))
			}
		}
	}
	dirty := func(t *Tensor) {
		for i := range t.Data {
			t.Data[i] = math.NaN()
		}
	}

	// out[i, j] = Σ_p a[i, p]·b[p, j] with the probe at terms p, p+1.
	const m, k = 9, 6
	for n := 13; n <= 23; n++ {
		a, b, dst := New(m, k), New(k, n), New(m, n)
		for i := range m {
			for j := range n {
				for p := range k - 1 {
					clear(a.Data)
					clear(b.Data)
					a.Data[i*k+p], a.Data[i*k+p+1] = probeA[0], probeA[1]
					b.Data[p*n+j], b.Data[(p+1)*n+j] = probeB[0], probeB[1]
					checkOnly("MatMul", MatMul(a, b), i*n+j, n, i, j, p)
					dirty(dst)
					checkOnly("MatMulInto", MatMulInto(dst, a, b), i*n+j, n, i, j, p)
				}
			}
		}

		// out[p, j] = Σ_r at[r, p]·b[r, j] over the k rows r, whole and in two
		// chunks cut at every row.
		at, acc := New(k, m), New(m, n)
		for p := range m {
			for j := range n {
				for r := range k - 1 {
					clear(at.Data)
					clear(b.Data)
					at.Data[r*m+p], at.Data[(r+1)*m+p] = probeA[0], probeA[1]
					b.Data[r*n+j], b.Data[(r+1)*n+j] = probeB[0], probeB[1]
					checkOnly("TMatMul", TMatMul(at, b), p*n+j, n, p, j, r)
					dirty(dst)
					checkOnly("TMatMulInto", TMatMulInto(dst, at, b), p*n+j, n, p, j, r)
					clear(acc.Data)
					checkOnly("TMatMulAcc", TMatMulAcc(acc, at, b), p*n+j, n, p, j, r)
					for cut := 1; cut < k; cut++ {
						clear(acc.Data)
						TMatMulAcc(acc, chunkOf(at, 0, cut), chunkOf(b, 0, cut))
						TMatMulAcc(acc, chunkOf(at, cut, k), chunkOf(b, cut, k))
						checkOnly("TMatMulAcc chunked", acc, p*n+j, n, p, j, r, cut)
					}
				}
			}
		}
	}

	// out[i, j] = Σ_p a[i, p]·bt[j, p]: the dot form, unseeded and as a
	// seeded fold from +0 over two row ranges cut at every row.
	const mt = 13
	for nt := 4; nt <= 7; nt++ {
		a, bt, dstT := New(mt, k), New(nt, k), New(mt, nt)
		for i := range mt {
			for j := range nt {
				for p := range k - 1 {
					clear(a.Data)
					clear(bt.Data)
					a.Data[i*k+p], a.Data[i*k+p+1] = probeA[0], probeA[1]
					bt.Data[j*k+p], bt.Data[j*k+p+1] = probeB[0], probeB[1]
					checkOnly("MatMulT", MatMulT(a, bt), i*nt+j, nt, i, j, p)
					dirty(dstT)
					checkOnly("MatMulTInto", MatMulTInto(dstT, a, bt), i*nt+j, nt, i, j, p)
					for cut := 0; cut < mt; cut++ {
						clear(dstT.Data)
						matMulTRange(dstT.Data, a.Data, bt.Data, k, nt, nt, 0, cut, true)
						matMulTRange(dstT.Data, a.Data, bt.Data, k, nt, nt, cut, mt, true)
						checkOnly("matMulTRange seeded", dstT, i*nt+j, nt, i, j, p, cut)
					}
				}
			}
		}
	}

	// The training path's conv: two images of one 7×11 channel, nine 3×3
	// filters — K = 9 lowered rows, 5×9 = 45 output pixels.
	const imgs, f, h, w, kh, kw, oh, ow = 2, 9, 7, 11, 3, 3, 5, 9
	const kk, px = kh * kw, oh * ow
	x, wm, out := New(imgs, 1, h, w), New(f, kk), New(imgs, f, oh, ow)
	gin, gout := New(imgs, 1, h, w), New(imgs, f, oh, ow)
	dw := New(f, kk)
	ws := NewWorkspace()
	// xAt is the input element lowered row r of image img holds at pixel q.
	xAt := func(img, r, q int) int { return (img*h+q/ow+r/kw)*w + q%ow + r%kw }

	// Forward: out_img[fo, q] = Σ_r wm[fo, r]·colsT_img[r, q].
	for img := range imgs {
		for fo := range f {
			for q := range px {
				for r := range kk - 1 {
					clear(x.Data)
					clear(wm.Data)
					wm.Data[fo*kk+r], wm.Data[fo*kk+r+1] = probeA[0], probeA[1]
					x.Data[xAt(img, r, q)], x.Data[xAt(img, r+1, q)] = probeB[0], probeB[1]
					dirty(out)
					check("ConvForwardInto", ConvForwardInto(out, x, wm, kh, kw, ws).Data[(img*f+fo)*px+q], img, fo, q, r)
				}
			}
		}
	}

	// δO: the lowered gradient cg_img[r, q] = Σ_fo wm[fo, r]·g_img[fo, q], the
	// only non-zero one, scattered onto the input pixel it came from.
	for img := range imgs {
		for r := range kk {
			for q := range px {
				for fo := range f - 1 {
					clear(wm.Data)
					clear(gout.Data)
					wm.Data[fo*kk+r], wm.Data[(fo+1)*kk+r] = probeA[0], probeA[1]
					gout.Data[(img*f+fo)*px+q], gout.Data[(img*f+fo+1)*px+q] = probeB[0], probeB[1]
					dirty(gin)
					check("ConvInputGradInto", ConvInputGradInto(gin, gout, wm, kh, kw, ws).Data[xAt(img, r, q)], img, r, q, fo)
				}
			}
		}
	}

	// δW: dw[fo, r] = Σ_(img, q) g_img[fo, q]·colsT_img[r, q], ascending over
	// both images — one pair of terms straddles them.
	for fo := range f {
		for r := range kk {
			for t := range imgs*px - 1 {
				clear(x.Data)
				clear(gout.Data)
				for i, term := range []int{t, t + 1} {
					img, q := term/px, term%px
					gout.Data[(img*f+fo)*px+q] = probeA[i]
					x.Data[xAt(img, r, q)] = probeB[i]
				}
				clear(dw.Data)
				check("ConvWeightGradAcc", ConvWeightGradAcc(dw, gout, x, kh, kw, ws).Data[fo*kk+r], fo, r, t)
			}
		}
	}
}
