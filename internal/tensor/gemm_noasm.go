//go:build !amd64

package tensor

// useVector is false wherever gemm_amd64.s is not built: the Go loops of
// gemm.go are the only path, and the bodies below are never reached.
var useVector = false

func axpyTile(o *float64, n int, a *float64, rs, ts int, b *float64, terms, groups, blocks int, fromZero bool) {
	panic("tensor: no vector kernels on this architecture")
}

func axpyEdge(o *float64, n int, a *float64, rs, ts int, b *float64, terms, groups, w int, fromZero bool) {
	panic("tensor: no vector kernels on this architecture")
}

func axpyPanel(o, a *float64, sa int, b *float64, bs, n, terms int, fromZero bool) {
	panic("tensor: no vector kernels on this architecture")
}

func dotTiles(out *float64, ldo int, a, b *float64, k, rows, cols int, seeded bool) {
	panic("tensor: no vector kernels on this architecture")
}

func dotTiles8(out *float64, ldo int, a, b *float64, k, cols int, seeded bool) {
	panic("tensor: no vector kernels on this architecture")
}

func copyRowsVec(dst *float64, ds int, src *float64, ss int, rows, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func addRowsVec(dst *float64, ds int, src *float64, ss int, rows, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func maxPool2Vec(out *float64, arg *int, x *float64, rows, w int) {
	panic("tensor: no vector kernels on this architecture")
}

func maxPool2GradVec(dst, grad *float64, arg *int, rows, w int) bool {
	panic("tensor: no vector kernels on this architecture")
}

func reluVec(out *float64, keep *bool, x *float64, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func reluMaskVec(keep *bool, x *float64, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func reluGradVec(gin, gradOut *float64, keep *bool, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func subScaledVec(dst, src *float64, s float64, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func scaleVec(dst *float64, s float64, n int) {
	panic("tensor: no vector kernels on this architecture")
}
