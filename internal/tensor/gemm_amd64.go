package tensor

// useVector routes the range kernels of gemm.go, the conv row kernels, the
// max pool, ReLU and the elementwise family (elem.go) through the AVX2 bodies
// of gemm_amd64.s (AVX2 and FMA3). It is decided once, from CPUID alone; the
// Go loops run wherever it is false. Nothing outside the tests ever writes it.
var useVector = cpuHasAVX2FMA()

// cpuHasAVX2FMA reports whether the CPU implements AVX2 and FMA3 and the
// operating system saves the YMM registers.
func cpuHasAVX2FMA() bool

// axpyTile, axpyEdge, axpyPanel, dotTiles and dotTiles8 are the AVX2 bodies;
// gemm_amd64.s states what each computes. Pointers must address at least one
// element.
//
//go:noescape
func axpyTile(o *float64, n int, a *float64, rs, ts int, b *float64, terms, groups, blocks int, fromZero bool)

//go:noescape
func axpyEdge(o *float64, n int, a *float64, rs, ts int, b *float64, terms, groups, w int, fromZero bool)

//go:noescape
func axpyPanel(o, a *float64, sa int, b *float64, bs, n, terms int, fromZero bool)

//go:noescape
func dotTiles(out *float64, ldo int, a, b *float64, k, rows, cols int, seeded bool)

//go:noescape
func dotTiles8(out *float64, ldo int, a, b *float64, k, cols int, seeded bool)

// copyRowsVec and addRowsVec are the strided row bodies behind copyRows and
// addRows (conv.go). rows and n must be positive.
//
//go:noescape
func copyRowsVec(dst *float64, ds int, src *float64, ss int, rows, n int)

//go:noescape
func addRowsVec(dst *float64, ds int, src *float64, ss int, rows, n int)

// maxPool2Vec is the body behind maxPool2 (conv.go); out may be nil, rows and
// w must be positive.
//
//go:noescape
func maxPool2Vec(out *float64, arg *int, x *float64, rows, w int)

// maxPool2GradVec is the body behind MaxPool2GradInto (conv.go); rows and w
// must be positive.
//
//go:noescape
func maxPool2GradVec(dst, grad *float64, arg *int, rows, w int) bool

// reluVec, reluMaskVec and reluGradVec are the bodies behind ReLUInto,
// ReLUMaskInto and ReLUGradInto (relu.go). n must be positive.
//
//go:noescape
func reluVec(out *float64, keep *bool, x *float64, n int)

//go:noescape
func reluMaskVec(keep *bool, x *float64, n int)

//go:noescape
func reluGradVec(gin, gradOut *float64, keep *bool, n int)

// subScaledVec and scaleVec are the bodies behind SubScaledSpan and ScaleSpan
// (elem.go). n must be positive.
//
//go:noescape
func subScaledVec(dst, src *float64, s float64, n int)

//go:noescape
func scaleVec(dst *float64, s float64, n int)
