package tensor

// useVector routes the range kernels of gemm.go, the conv row kernels, the
// max pool, ReLU and the elementwise family (elem.go) through the AVX2 bodies
// of gemm_amd64.s. It is decided once, from CPUID alone; the Go loops run
// wherever it is false. Nothing outside the tests ever writes it.
var useVector = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers.
func cpuHasAVX2() bool

// axpyPanel and dotTiles are the AVX2 bodies; gemm_amd64.s states what each
// computes. Pointers must address at least one element.
//
//go:noescape
func axpyPanel(o, a *float64, sa int, b *float64, n, terms int, fromZero bool)

//go:noescape
func dotTiles(out *float64, n int, a, b *float64, k, tiles int, seeded bool)

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
