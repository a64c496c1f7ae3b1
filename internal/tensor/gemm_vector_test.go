package tensor

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the package's tests once per kernel path: as selected from the
// CPU, then — where that selected the vector path — again on the Go loops, so
// every differential suite here holds for both. The flip happens between two
// whole runs, never while a test is executing. A -bench run is not repeated.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && useVector && flag.Lookup("test.bench").Value.String() == "" {
		useVector = false
		fmt.Println("tensor: second run, portable kernel path")
		code = m.Run()
	}
	os.Exit(code)
}

// onGoPath runs f with the range kernels on the portable Go loops.
func onGoPath(f func()) {
	defer func(v bool) { useVector = v }(useVector)
	useVector = false
	f()
}

// vectorDims are the m, k and n of the vector-path battery: every remainder of
// the eight-, four- and one-wide steps — rows mod 8 of the eight-row dot tile,
// 0 and 4 among them, and the 1–3 rows the four-row one takes last; columns
// mod 4 of a dot tile and mod 12 of an axpy block, every masked edge — term
// counts 0–5, column counts on both sides of one, two and three tile widths
// (12), sizes straddling a panel for short and long rows, and the shapes of
// the train workloads.
var vectorDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 18, 23, 24, 25, 31, 36, 72, 73, 144, 196, 250}

// oddSlice returns n elements of fill starting at an odd element offset of a
// fresh array, so the vector loads and stores of a kernel run on it are not
// 16- or 32-byte aligned.
func oddSlice(n int, fill func(i int) float64) []float64 {
	buf := make([]float64, n+1)
	for i := range buf {
		buf[i] = fill(i)
	}
	return buf[1:]
}

// rangeKernel is one of the three range kernels on flat operands: out has
// outRows×n elements, rows [lo, hi) of it are computed.
type rangeKernel struct {
	name string
	// dims returns the lengths of a and b and the row count of out.
	dims func(m, k, n int) (la, lb, outRows int)
	run  func(out, a, b []float64, m, k, n, lo, hi int)
	// accumulates: the kernel adds to out's prior contents.
	accumulates bool
	// sweep is the m, k, n sweep of the battery: vectorDims for the three
	// kernels, variantDims for the forms that differ from one of them only in
	// how an element's chain starts.
	sweep []int
}

// variantDims keeps every remainder of the vector steps — rows mod 8 and mod
// 4, columns mod 4 and mod 12 — term counts 0–6, a panel straddle and the
// conv shapes, at under half of vectorDims' cross product.
var variantDims = []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 13, 22, 24, 25, 31, 36, 72, 144}

var rangeKernels = []rangeKernel{
	{"matMulRange", func(m, k, n int) (int, int, int) { return m * k, k * n, m },
		func(out, a, b []float64, m, k, n, lo, hi int) { matMulRange(out, a, b, k, n, lo, hi, false) }, true, vectorDims},
	{"matMulRange from zero", func(m, k, n int) (int, int, int) { return m * k, k * n, m },
		func(out, a, b []float64, m, k, n, lo, hi int) { matMulRange(out, a, b, k, n, lo, hi, true) }, false, variantDims},
	{"tMatMulRange", func(m, k, n int) (int, int, int) { return m * k, m * n, k },
		func(out, a, b []float64, m, k, n, lo, hi int) { tMatMulRange(out, a, b, m, k, n, lo, hi, false) }, true, vectorDims},
	{"tMatMulRange from zero", func(m, k, n int) (int, int, int) { return m * k, m * n, k },
		func(out, a, b []float64, m, k, n, lo, hi int) { tMatMulRange(out, a, b, m, k, n, lo, hi, true) }, false, variantDims},
	{"matMulTRange", func(m, k, n int) (int, int, int) { return m * k, n * k, m },
		func(out, a, b []float64, m, k, n, lo, hi int) { matMulTRange(out, a, b, k, n, n, lo, hi, false) }, false, vectorDims},
	{"matMulTRange seeded", func(m, k, n int) (int, int, int) { return m * k, n * k, m },
		func(out, a, b []float64, m, k, n, lo, hi int) { matMulTRange(out, a, b, k, n, n, lo, hi, true) }, true, variantDims},
	// The conv δW's form: the product as two column windows of out, the first
	// whole groups of four columns, each computed with out's row stride.
	{"matMulTRange seeded in two windows", func(m, k, n int) (int, int, int) { return m * k, n * k, m },
		func(out, a, b []float64, m, k, n, lo, hi int) {
			j := n / 2 &^ 3
			matMulTRange(out, a, b[:j*k], k, j, n, lo, hi, true)
			matMulTRange(out[min(j, len(out)):], a, b[j*k:], k, n-j, n, lo, hi, true) // out is empty when m is 0
		}, true, variantDims},
	// A window one column narrower than out's rows: the last column of every
	// row lies past the product and must come back untouched, so a masked edge
	// tile that stores a lane past its columns shows on every row.
	{"matMulTRange seeded in a narrower window", func(m, k, n int) (int, int, int) { return m * k, n * k, m },
		func(out, a, b []float64, m, k, n, lo, hi int) {
			if n > 0 {
				matMulTRange(out, a, b[:(n-1)*k], k, n-1, n, lo, hi, true)
			}
		}, true, variantDims},
}

// rowKernels are the two strided row kernels of the conv lowering.
var rowKernels = []struct {
	name string
	run  func(dst []float64, ds int, src []float64, ss, rows, n int)
}{{"copyRows", copyRows}, {"addRows", addRows}}

// rowLens are the run lengths of the row-kernel battery: every remainder of
// the four-wide step around zero, one, two and three whole vectors, and a long
// odd run.
var rowLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 31}

// outGuard is how many elements follow out in its array: the kernels never
// see them, and a store past out's end shows in them.
const outGuard = 4

// diffKernel runs rk on both paths over the same operands (filled by fa, fb;
// out starts from fo on both sides) and returns the two outputs, each with the
// outGuard elements that follow it.
func diffKernel(rk rangeKernel, m, k, n, lo, hi int, fa, fb, fo func(int) float64) (vec, ref []float64) {
	la, lb, outRows := rk.dims(m, k, n)
	a, b := oddSlice(la, fa), oddSlice(lb, fb)
	vec, ref = oddSlice(outRows*n+outGuard, fo), oddSlice(outRows*n+outGuard, fo)
	rk.run(vec[:outRows*n], a, b, m, k, n, lo, hi)
	onGoPath(func() { rk.run(ref[:outRows*n], a, b, m, k, n, lo, hi) })
	return vec, ref
}

// TestVectorKernelsMatchGoLoops is the bit-level differential suite of the
// AVX2 path against the kept Go loops: the range kernels (the dot form also
// seeded) over every combination of vectorDims, three row ranges (one starting
// at an odd row, so off the tile's groups of four), operands at odd element
// offsets and, for the accumulating forms, a non-zero initial output; then the
// two strided row kernels over rowLens, row counts 0–5 and strides from n to
// n+5 on both sides, onto non-zero destinations. Everything outside a
// kernel's range — other rows, the columns past a window, the elements after
// out, the gaps between strided runs — must come back untouched.
func TestVectorKernelsMatchGoLoops(t *testing.T) {
	if !useVector {
		t.Skip("no vector path on this CPU (or this is the portable run)")
	}
	r := NewRNG(2024)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = r.Norm()
	}
	pick := func(salt int) func(int) float64 {
		return func(i int) float64 { return vals[(i*7+salt)&(len(vals)-1)] }
	}
	shapes := 0
	for _, rk := range rangeKernels {
		for _, m := range rk.sweep {
			for _, k := range rk.sweep {
				for _, n := range rk.sweep {
					_, _, outRows := rk.dims(m, k, n)
					for _, rg := range [][2]int{{0, outRows}, {min(outRows/3|1, outRows), outRows}, {0, (outRows + 1) / 2}} {
						vec, ref := diffKernel(rk, m, k, n, rg[0], rg[1], pick(m), pick(k+n), pick(3*n+1))
						for i := range ref {
							if math.Float64bits(vec[i]) != math.Float64bits(ref[i]) {
								t.Fatalf("%s m=%d k=%d n=%d rows [%d,%d): element %d (row %d col %d) = %x, Go loop %x",
									rk.name, m, k, n, rg[0], rg[1], i, i/n, i%n, math.Float64bits(vec[i]), math.Float64bits(ref[i]))
							}
						}
						shapes++
					}
				}
			}
		}
	}
	for _, rk := range rowKernels {
		for _, n := range rowLens {
			for rows := 0; rows <= 5; rows++ {
				for _, pad := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {5, 2}} {
					ds, ss := n+pad[0], n+pad[1]
					src := oddSlice(rows*ss+1, pick(n))
					vec, ref := oddSlice(rows*ds+1, pick(rows+40)), oddSlice(rows*ds+1, pick(rows+40))
					rk.run(vec, ds, src, ss, rows, n)
					onGoPath(func() { rk.run(ref, ds, src, ss, rows, n) })
					for i := range ref {
						if math.Float64bits(vec[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("%s rows=%d n=%d strides %d/%d: element %d = %x, Go loop %x",
								rk.name, rows, n, ds, ss, i, math.Float64bits(vec[i]), math.Float64bits(ref[i]))
						}
						if inRun := i/max(ds, 1) < rows && i%max(ds, 1) < n; !inRun && vec[i] != pick(rows+40)(i+1) {
							t.Fatalf("%s rows=%d n=%d strides %d/%d: element %d outside the runs was written", rk.name, rows, n, ds, ss, i)
						}
					}
					shapes++
				}
			}
		}
	}
	t.Logf("%d kernel × shape × range cases bit-identical", shapes)
}

// TestVectorKernelsSpecialValues drives both paths over operands drawn from a
// table of signed zeros, infinities, subnormals and huge and tiny magnitudes,
// so chains overflow, underflow, cancel to ±0 and turn NaN (∞−∞, 0·∞). Every
// element that is not NaN must match bit for bit, and an element is NaN on one
// path exactly when it is on the other. The bits of a NaN are not compared:
// when an add or a multiply meets two NaNs the hardware returns the payload of
// its first operand, and which operand the compiler puts first is not part of
// any contract here.
func TestVectorKernelsSpecialValues(t *testing.T) {
	if !useVector {
		t.Skip("no vector path on this CPU (or this is the portable run)")
	}
	table := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 0x1p1000, -0x1p1000, 0x1p-1000, 0x1p-537,
		1, -1, 3.5, -0.1, 1e-300, -1e300, 0x1.fffffffffffffp-1,
	}
	// ordinary values dominate so that most chains stay finite and the special
	// ones meet them mid-chain.
	fill := func(salt, every int) func(int) float64 {
		return func(i int) float64 {
			h := uint64(i+1)*0x9e3779b97f4a7c15 + uint64(salt)*0xbf58476d1ce4e5b9
			h ^= h >> 29
			if int(h%uint64(every)) == 0 {
				return table[(h>>8)%uint64(len(table))]
			}
			return float64(int64(h>>11)%2001-1000) / 64
		}
	}
	nans := 0
	for _, rk := range rangeKernels {
		for _, sh := range [][3]int{{4, 4, 4}, {5, 9, 7}, {8, 17, 12}, {12, 31, 9}, {17, 8, 31}, {16, 72, 73}} {
			m, k, n := sh[0], sh[1], sh[2]
			for _, every := range []int{2, 5, 40} {
				for salt := 0; salt < 6; salt++ {
					_, _, outRows := rk.dims(m, k, n)
					vec, ref := diffKernel(rk, m, k, n, 0, outRows, fill(salt, every), fill(salt+100, every), fill(salt+200, 3))
					for i := range ref {
						vn, rn := math.IsNaN(vec[i]), math.IsNaN(ref[i])
						if vn != rn || (!vn && math.Float64bits(vec[i]) != math.Float64bits(ref[i])) {
							t.Fatalf("%s m=%d k=%d n=%d every=%d salt=%d: element %d = %v (%x), Go loop %v (%x)",
								rk.name, m, k, n, every, salt, i, vec[i], math.Float64bits(vec[i]), ref[i], math.Float64bits(ref[i]))
						}
						if vn {
							nans++
						}
					}
				}
			}
		}
	}
	// The scatter's row add over the same table (the copy moves bits and is
	// covered bit for bit, NaN included, by TestVectorKernelsMatchGoLoops).
	for _, n := range []int{1, 4, 7, 13} {
		for salt := 0; salt < 8; salt++ {
			const rows = 3
			src := oddSlice(rows*(n+1), fill(salt, 2))
			vec, ref := oddSlice(rows*(n+2), fill(salt+50, 2)), oddSlice(rows*(n+2), fill(salt+50, 2))
			addRows(vec, n+2, src, n+1, rows, n)
			onGoPath(func() { addRows(ref, n+2, src, n+1, rows, n) })
			if i, ok := sameBitsOrBothNaN(vec, ref); !ok {
				t.Fatalf("addRows n=%d salt=%d: element %d = %v, Go loop %v", n, salt, i, vec[i], ref[i])
			}
		}
	}
	if nans == 0 {
		t.Fatal("the value table produced no NaN: the NaN rule went untested")
	}
}

// TestPanelRows: whole groups of four, never fewer than one group, and no more
// than the panel budget for rows that leave room for a group.
func TestPanelRows(t *testing.T) {
	for _, n := range []int{1, 9, 10, 72, 96, 128, 511, 512, 513, 4096} {
		rows := panelRows(n)
		if rows < 4 || rows%4 != 0 {
			t.Fatalf("panelRows(%d) = %d, want a positive multiple of 4", n, rows)
		}
		if rows > 4 && rows*n*8 > gemmPanelBytes {
			t.Fatalf("panelRows(%d) = %d rows = %d bytes, over the %d budget", n, rows, rows*n*8, gemmPanelBytes)
		}
	}
}

// TestTileTerms: a pass of the tile bodies takes at most 128 terms, whole
// groups of eight, and never more than eight rows of b that share an offset in
// a 4 KB page (and with it an L1 set).
func TestTileTerms(t *testing.T) {
	for n := 1; n <= 2048; n++ {
		pass := tileTerms(n)
		if pass > 128 || pass < 8 || pass%8 != 0 {
			t.Fatalf("tileTerms(%d) = %d, want a multiple of 8 in [8, 128]", n, pass)
		}
		rows := map[int]int{}
		for r := 0; r < pass; r++ {
			if rows[r*8*n%4096]++; rows[r*8*n%4096] > 8 {
				t.Fatalf("tileTerms(%d) = %d puts more than 8 rows on page offset %d", n, pass, r*8*n%4096)
			}
		}
	}
}

// TestOtherArchGetsPortablePath: built for a GOARCH without the AVX2 bodies,
// the package consists of the Go loops and the never-reached stubs of
// gemm_noasm.go — no assembly — and vets (type-checks, asmdecl included)
// clean. The toolchain cross-compiles from its own source, so this needs no
// network; it is skipped where there is no go command to run.
func TestOtherArchGetsPortablePath(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command")
	}
	run := func(args ...string) string {
		cmd := exec.Command(goTool, args...)
		cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0",
			"GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local", "GOPROXY=off")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=arm64 go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	files := run("list", "-f", "{{.GoFiles}} {{.SFiles}}", ".")
	if !strings.Contains(files, "gemm_noasm.go") || strings.Contains(files, "amd64") {
		t.Fatalf("arm64 build of the package has files %s: want gemm_noasm.go and nothing of amd64", files)
	}
	run("vet", ".")
}
