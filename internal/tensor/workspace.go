package tensor

import (
	"fmt"
	"math/bits"
)

// Workspace is an arena of reusable scratch tensors, size-bucketed into
// power-of-two free lists (the bin design of internal/bfc, without offsets:
// Go slices are the backing store, so only capacity classes matter). It
// serves the transient buffers of the training hot path — im2col/col2im
// lowerings, row-major repacks, per-layer GEMM scratch — so that warm
// training steps never touch the allocator.
//
// A Workspace is deliberately NOT safe for concurrent use: the executor owns
// one per worker lane plus one for the δO chain goroutine, so every Get/Put
// is contention-free by construction. Sharing one workspace across goroutines
// is a caller bug.
//
// Buffers returned by Get have unspecified contents; every kernel with an
// ...Into form either fully assigns its output or zeroes it first, so dirty
// reuse is safe by contract. Put accepts any tensor that exclusively owns its
// backing array — never Put a Reshape view whose array is still referenced
// elsewhere.
type Workspace struct {
	bins [64][]*Tensor

	// Gets counts Get calls; Misses counts the subset that had to allocate a
	// fresh backing array (cold pool or class exhausted). On a warm training
	// step Misses stays flat.
	Gets, Misses uint64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsClass returns the bucket a capacity-n backing array is stored under:
// floor(log2 n).
func wsClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n)) - 1
}

// wsFitClass returns the smallest bucket whose every member can hold n
// elements: ceil(log2 n).
func wsFitClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// Get returns a tensor of the given shape with unspecified contents, reusing
// a pooled backing array when one is large enough (LIFO within a bucket, so
// the most recently released — and most cache-warm — buffer is reused first).
func (w *Workspace) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Panic with the scalar only: formatting the shape slice would
			// make it escape and heap-allocate the variadic on every call.
			panic(fmt.Sprintf("tensor: workspace Get non-positive dim %d", d))
		}
		n *= d
	}
	w.Gets++
	for c := wsFitClass(n); c < len(w.bins); c++ {
		bin := w.bins[c]
		if len(bin) == 0 {
			continue
		}
		t := bin[len(bin)-1]
		bin[len(bin)-1] = nil
		w.bins[c] = bin[:len(bin)-1]
		t.Data = t.Data[:n]
		t.Shape = append(t.Shape[:0], shape...)
		return t
	}
	w.Misses++
	// Round the fresh array up to its class boundary so recycled buffers
	// serve the widest range of future shapes.
	capn := 1 << wsFitClass(n)
	return &Tensor{
		Shape: append(make([]int, 0, 4), shape...),
		Data:  make([]float64, n, capn),
	}
}

// GetZeroed is Get with the returned buffer cleared.
func (w *Workspace) GetZeroed(shape ...int) *Tensor {
	t := w.Get(shape...)
	t.Zero()
	return t
}

// Put returns a tensor to the pool for later reuse. The caller must not use t
// (or any view of its backing array) afterwards. Put(nil) is a no-op.
func (w *Workspace) Put(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	c := wsClass(cap(t.Data))
	w.bins[c] = append(w.bins[c], t)
}
