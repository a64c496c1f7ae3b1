package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// fanOutKernel is one pooled GEMM-shaped kernel of a layer: build returns the
// kernel's call on warm operands at batch n.
type fanOutKernel struct {
	name  string
	build func(n int) func()
	// fansOut lists the batch sizes at which the kernel fans out.
	fansOut []int
}

// convFanOutKernels are the three kernels of a 3×3 convolution of c channels
// of hw×hw into f filters, fanning out at the batch sizes given.
func convFanOutKernels(layer string, c, hw, f int, fwd, din, dw []int) []fanOutKernel {
	oh := hw - 2
	operands := func(n int) (x, y, wm *Tensor, ws *Workspace) {
		return New(n, c, hw, hw), New(n, f, oh, oh), New(f, c*9), NewWorkspace()
	}
	return []fanOutKernel{
		{layer + "/ConvForwardInto", func(n int) func() {
			x, y, wm, ws := operands(n)
			return func() { ConvForwardInto(y, x, wm, 3, 3, ws) }
		}, fwd},
		{layer + "/ConvInputGradInto", func(n int) func() {
			x, y, wm, ws := operands(n)
			return func() { ConvInputGradInto(x, y, wm, 3, 3, ws) }
		}, din},
		{layer + "/ConvWeightGradAcc", func(n int) func() {
			x, y, wm, ws := operands(n)
			return func() { ConvWeightGradAcc(wm, y, x, 3, 3, ws) }
		}, dw},
	}
}

// denseFanOutKernels are the three kernels of an in→out Dense layer, none of
// which fans out at the batch sizes the engines run.
func denseFanOutKernels(layer string, in, out int) []fanOutKernel {
	return []fanOutKernel{
		{layer + "/MatMulInto", func(n int) func() {
			y, x, w := New(n, out), New(n, in), New(in, out)
			return func() { MatMulInto(y, x, w) }
		}, nil},
		{layer + "/MatMulTInto", func(n int) func() {
			gin, g, w := New(n, in), New(n, out), New(in, out)
			return func() { MatMulTInto(gin, g, w) }
		}, nil},
		{layer + "/TMatMulAcc", func(n int) func() {
			dw, x, g := New(in, out), New(n, in), New(n, out)
			return func() { TMatMulAcc(dw, x, g) }
		}, nil},
	}
}

// observedFanOut runs op warm and reports whether it went through
// parallelRows. A fan-out allocates (its closure, wait group and goroutines)
// and the serial path of a warm pooled kernel never does; the least of three
// runs' malloc counts keeps an allocation elsewhere in the process from
// reading as one.
func observedFanOut(op func()) bool {
	op() // a workspace lends its blocks from the second call on
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least > 0
}

// TestFanOutDecisions pins, at GOMAXPROCS 2, which pooled GEMM-shaped kernel
// of the benchmark's two nets — ConvNet(11,16,8,10) on 1×16×16 images and
// MLPNet(11,64,96,4,4) — fans out over parallelRows at each batch size the
// five engines run it at: 32 (serial, out-of-order, checkpointed), 16 (each
// of two data-parallel replicas) and 8 (a micro-batch of the two-stage,
// four-micro-batch pipeline). The decision is observed, not recomputed from
// the kernels' FLOP formulas, so a change to a formula or to
// matmulParallelThreshold that moves a kernel to the other path fails here.
func TestFanOutDecisions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var kernels []fanOutKernel
	// conv1: 1×16×16 → 8×14×14, 0.90 MFLOP per kernel at 32.
	kernels = append(kernels, convFanOutKernels("conv/conv1", 1, 16, 8, nil, nil, nil)...)
	// conv2: 8×14×14 → 16×12×12, 2.65 MFLOP per kernel at 8.
	kernels = append(kernels, convFanOutKernels("conv/conv2", 8, 14, 16,
		[]int{32, 16, 8}, []int{32, 16, 8}, []int{32, 16, 8})...)
	kernels = append(kernels, denseFanOutKernels("conv/fc", 16*6*6, 10)...)
	// The MLP's widest GEMM, the 96×96 Dense at 32, is 0.59 MFLOP.
	kernels = append(kernels, denseFanOutKernels("mlp/fc1", 64, 96)...)
	for _, fc := range []string{"fc2", "fc3", "fc4"} {
		kernels = append(kernels, denseFanOutKernels("mlp/"+fc, 96, 96)...)
	}
	kernels = append(kernels, denseFanOutKernels("mlp/head", 96, 4)...)
	for _, k := range kernels {
		for _, n := range []int{32, 16, 8} {
			t.Run(fmt.Sprintf("%s/batch%d", k.name, n), func(t *testing.T) {
				want := slices.Contains(k.fansOut, n)
				if got := observedFanOut(k.build(n)); got != want {
					t.Fatalf("fans out = %v, want %v", got, want)
				}
			})
		}
	}
}
