//go:build !amd64

package tensor

// useVector is false wherever gemm_amd64.s is not built: the Go loops of
// gemm.go are the only path, and the bodies below are never reached.
var useVector = false

func axpyPanel(o, a *float64, sa int, b *float64, n, groups int) {
	panic("tensor: no vector kernels on this architecture")
}

func dotTiles(out *float64, n int, a, b *float64, k, tiles int) {
	panic("tensor: no vector kernels on this architecture")
}
