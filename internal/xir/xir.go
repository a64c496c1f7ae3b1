// Package xir implements a miniature kernel IR with XLA-style
// producer–consumer fusion — the compiler half of the paper's baseline
// (TensorFlow XLA). The single-GPU executors in internal/singlegpu model
// fusion as a constant factor on kernel counts; this package derives the
// counts from first principles (expand each layer into its op sequence, run
// the fusion pass, count the fused kernels) and is used to validate that
// calibration (experiment `xla-fusion`).
package xir

import "fmt"

// OpKind classifies ops by their fusion behaviour.
type OpKind int

const (
	// Compute ops (convolution, GEMM) are fusion roots: elementwise
	// consumers fuse into their epilogue, but two compute ops never fuse.
	Compute OpKind = iota
	// Elementwise ops (bias add, ReLU, BN scale/shift, residual add) fuse
	// into a preceding producer or into each other.
	Elementwise
	// Reduction ops (BN statistics, softmax normalizers, pooling) can fuse
	// elementwise producers into their input side but terminate the chain:
	// nothing fuses into a reduction's output in this simple pass.
	Reduction
	// Opaque ops (concat, reshape-with-copy, embedding gather) fuse with
	// nothing.
	Opaque
)

func (k OpKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Elementwise:
		return "elementwise"
	case Reduction:
		return "reduction"
	case Opaque:
		return "opaque"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one primitive in a layer's straight-line op sequence.
type Op struct {
	Kind OpKind
	Name string
}

// Kernel is a fused group of ops launched together.
type Kernel struct {
	Ops []Op
}

// Fuse applies the fusion pass to a straight-line op sequence (each op
// consumes its predecessor's output — the dominant structure inside a
// layer). Rules:
//
//   - an Elementwise op fuses into the current open kernel if that kernel's
//     last op is Compute, Elementwise or Reduction-input (i.e. anything but
//     Opaque);
//   - a Reduction fuses into an open kernel whose ops are all Elementwise
//     (input fusion), otherwise starts its own kernel; after a Reduction the
//     kernel is closed;
//   - Compute and Opaque ops always start a new kernel; Compute leaves the
//     kernel open for epilogue fusion, Opaque closes it.
func Fuse(ops []Op) []Kernel {
	var out []Kernel
	open := false // may the current kernel accept elementwise epilogue ops?
	pureEW := false
	for _, op := range ops {
		switch op.Kind {
		case Compute:
			out = append(out, Kernel{Ops: []Op{op}})
			open, pureEW = true, false
		case Elementwise:
			if open && len(out) > 0 {
				out[len(out)-1].Ops = append(out[len(out)-1].Ops, op)
			} else {
				out = append(out, Kernel{Ops: []Op{op}})
				open, pureEW = true, true
			}
		case Reduction:
			if open && pureEW && len(out) > 0 {
				out[len(out)-1].Ops = append(out[len(out)-1].Ops, op)
			} else {
				out = append(out, Kernel{Ops: []Op{op}})
			}
			open, pureEW = false, false
		case Opaque:
			out = append(out, Kernel{Ops: []Op{op}})
			open, pureEW = false, false
		}
	}
	return out
}

// ConvForward expands a convolution layer's forward computation into its op
// sequence: the convolution plus `extras` companions. The companion pattern
// follows the frameworks' emission order: BN statistics (reduction), BN
// scale/shift and activation (elementwise), and for DenseNet-style blocks a
// trailing concat (opaque).
func ConvForward(extras int) []Op {
	ops := []Op{{Compute, "conv"}}
	for i := 0; i < extras; i++ {
		switch {
		case i == 0 && extras >= 3:
			ops = append(ops, Op{Reduction, "bn_stats"})
		case i == extras-1 && extras >= 4:
			ops = append(ops, Op{Opaque, "concat"})
		default:
			ops = append(ops, Op{Elementwise, fmt.Sprintf("ew%d", i)})
		}
	}
	return ops
}

// DenseForward expands a fully connected layer's forward computation: the
// GEMM plus elementwise companions (bias, activation).
func DenseForward(extras int) []Op {
	ops := []Op{{Compute, "gemm"}}
	for i := 0; i < extras; i++ {
		ops = append(ops, Op{Elementwise, fmt.Sprintf("ew%d", i)})
	}
	return ops
}

// TransformerForward expands a transformer layer's forward computation into
// its op sequence: the attention and FFN GEMMs (compute), softmax and
// layernorm (reductions), and the activation/bias elementwise companions,
// proportioned to the recorded kernel count.
func TransformerForward(totalKernels int) []Op {
	// Canonical 12-kernel shape: QKV+O+FFN GEMMs with epilogues, softmax and
	// two layernorms.
	base := []Op{
		{Compute, "qkv_gemm"}, {Elementwise, "bias"},
		{Compute, "scores_gemm"}, {Reduction, "softmax"},
		{Compute, "context_gemm"}, {Compute, "out_gemm"},
		{Elementwise, "residual"}, {Reduction, "layernorm1"},
		{Compute, "ffn1_gemm"}, {Elementwise, "gelu"},
		{Compute, "ffn2_gemm"}, {Reduction, "layernorm2"},
	}
	if totalKernels >= len(base) {
		for i := len(base); i < totalKernels; i++ {
			base = append(base, Op{Elementwise, fmt.Sprintf("ew%d", i)})
		}
		return base
	}
	return base[:totalKernels]
}

// FusedKernelCount is the end-to-end helper: expand a layer computation with
// the given total kernel count (1 primary + extras, as recorded in
// models.Layer) and return the post-fusion kernel count.
func FusedKernelCount(totalKernels int, conv bool) int {
	extras := totalKernels - 1
	if extras < 0 {
		extras = 0
	}
	var ops []Op
	if conv {
		ops = ConvForward(extras)
	} else {
		ops = DenseForward(extras)
	}
	return len(Fuse(ops))
}
