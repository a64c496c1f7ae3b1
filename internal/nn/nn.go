// Package nn provides neural-network layers whose backward pass is split
// into the two independent computations the paper's out-of-order backprop
// exploits (§3): InputGrad (δO — the gradient flowing to the previous layer)
// and WeightGrad (δW — the gradient accumulated into the layer's parameters).
// The two methods may be called in any order, any number of schedule
// positions apart, as long as each receives the gradient tensor produced for
// its layer. This is the Go equivalent of the paper's TensorFlow change that
// removes tf.group around the per-layer gradient pair (§7).
package nn

import (
	"math"

	"oooback/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one network layer with decoupled backward computations, in two
// forms that compute the same bits. The plain methods (Forward, InputGrad,
// WeightGrad) are the naive allocating form on purpose: Network.Forward and
// Network.Backward walk them as the differential reference every engine is
// compared against. The pooled methods are the form every engine of
// internal/train runs a layer in: they do not touch the allocator on warm
// steps, and they make the layer safe for a pipeline stage and for activation
// checkpointing.
//
// Ownership and ordering rules of the pooled form:
//
//   - The workspace of ForwardWS and InputGradWS is owned by whoever runs the
//     call; scratch comes from it and goes back within the call. δW takes
//     none: its fold writes straight into Grad, and a layer whose fold needs
//     scratch (Conv2D, which lowers its input again) owns a workspace for it.
//   - The tensor ForwardWS returns is valid until the layer's next forward,
//     the one InputGradWS returns until its next δO. Training steps are
//     serialized by the engines' end-of-step barriers, so handing either to
//     a neighbour layer (which may run much later, on another lane) is safe.
//   - InputGradWS and WeightGradAcc stay independent — callable in either
//     order, any schedule distance apart — exactly like the plain methods.
//   - Both read the stash the layer's last forward left, whichever of Forward
//     and ForwardWS ran it: the two keep it in one representation.
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// Forward computes the layer output and stores whatever the backward
	// computations need (input activation, masks, ...).
	Forward(x *tensor.Tensor) *tensor.Tensor
	// InputGrad is δO: the gradient w.r.t. the layer input.
	InputGrad(gradOut *tensor.Tensor) *tensor.Tensor
	// WeightGrad is δW: accumulates parameter gradients. It must be
	// independent of InputGrad — callable before or after it.
	WeightGrad(gradOut *tensor.Tensor)
	// Params returns the learnable parameters (empty for stateless layers).
	Params() []*Param
	// ForwardWS is Forward into layer-retained buffers, bit-identical to
	// Forward.
	ForwardWS(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor
	// InputGradWS is δO into a layer-retained buffer.
	InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor
	// WeightGradAcc is δW: it continues the parameter-gradient fold in place
	// over gradOut's rows (pipe.go). A whole-batch step makes one call; a
	// pipeline stage makes one per microbatch, in ascending row order.
	WeightGradAcc(gradOut *tensor.Tensor)
	// DropStash releases the forward state retained for the backward pass
	// (input references, masks, argmax maps, normalization statistics).
	// The layer's next forward or Restash rebuilds it (stash.go).
	DropStash()
	// StashSource names the tensor Restash reads: the input or the output of
	// the layer's last forward, or nothing. It is fixed per layer type.
	StashSource() StashSource
	// Restash rebuilds the stash DropStash released from src — the tensor
	// StashSource names, nil for StashFromNothing — without computing the
	// output. The stash it leaves is the one the last forward left, bit for
	// bit, in the buffers the drop kept, so a warm restash allocates nothing.
	Restash(src *tensor.Tensor)
	// StashBytes reports the footprint of the forward state the layer owns:
	// buffers the forward pass filled for backward's use. The input activation
	// is a borrowed reference and is NOT counted — its bytes are tracked by
	// the checkpointing engine's activation ledger, so owned + activations
	// sums without double counting.
	StashBytes() int64
}

// Dense is a fully connected layer y = xW + b with x [batch, in].
type Dense struct {
	name string
	W, B *Param
	x    *tensor.Tensor
	out  *tensor.Tensor // retained ForwardWS output buffer
	gin  *tensor.Tensor // retained InputGradWS output buffer
}

// NewDense creates a Dense layer with deterministic Xavier-style init.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	scale := math.Sqrt(2.0 / float64(in))
	return &Dense{
		name: name,
		W:    &Param{Name: name + ".W", Value: tensor.Randn(rng, scale, in, out), Grad: tensor.New(in, out)},
		B:    &Param{Name: name + ".b", Value: tensor.New(1, out), Grad: tensor.New(1, out)},
	}
}

func (d *Dense) Name() string { return d.name }

func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	out := tensor.MatMul(x, d.W.Value)
	cols := out.Shape[1]
	for r := 0; r < out.Shape[0]; r++ {
		for c := 0; c < cols; c++ {
			out.Data[r*cols+c] += d.B.Value.Data[c]
		}
	}
	return out
}

func (d *Dense) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulT(gradOut, d.W.Value) // g·Wᵀ without the transposed copy
}

func (d *Dense) checkStash(gradOut *tensor.Tensor) {
	checkStash(d.name, "stashed input", "rows", stashedBatch(d.x), gradOut.Shape[0])
}

func (d *Dense) WeightGrad(gradOut *tensor.Tensor) {
	d.checkStash(gradOut)
	tensor.AddTo(d.W.Grad, tensor.TMatMul(d.x, gradOut)) // xᵀ·g, fused
	tensor.AddTo(d.B.Grad, tensor.SumRows(gradOut).Reshape(1, gradOut.Shape[1]))
}

func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectifier; stateless apart from its mask.
type ReLU struct {
	name string
	mask []bool
	out  *tensor.Tensor // retained ForwardWS output buffer
	gin  *tensor.Tensor // retained InputGradWS output buffer
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

func (r *ReLU) Name() string { return r.name }

func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	r.mask = make([]bool, len(out.Data))
	for i, v := range out.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

func (r *ReLU) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	r.checkMask(gradOut)
	out := gradOut.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

func (r *ReLU) checkMask(gradOut *tensor.Tensor) {
	checkStash(r.name, "keep mask", "elements", len(r.mask), gradOut.Len())
}

func (r *ReLU) WeightGrad(*tensor.Tensor) {}
func (r *ReLU) Params() []*Param          { return nil }

// Conv2D is a valid (no padding), stride-1 convolution layer. Its pooled
// kernels lower the input channel-major, one image at a time, straight into
// their GEMMs (tensor.ConvForwardInto, ConvWeightGradAcc), and all three GEMMs
// read and write NCHW in place — removing the redundant data movement the
// paper's §4.1 attributes to the gradient kernels. Like Dense, it stashes only
// the borrowed input: δW lowers each image again into a block that stays in
// cache rather than keep the forward's lowering, several times the input's
// size, alive until it runs. InputGrad and WeightGrad are the pixel-major
// allocating reference forms the pooled path is pinned against.
type Conv2D struct {
	name   string
	W      *Param
	kh, kw int
	x      *tensor.Tensor

	wm  *tensor.Tensor // [F, C·KH·KW] view of W.Value
	out *tensor.Tensor // retained forward output buffer
	gin *tensor.Tensor // retained InputGradWS output buffer
	// ws lends the lowered blocks of δW, which takes no workspace from
	// whoever runs it, and of the plain Forward.
	ws tensor.Workspace
}

// NewConv2D creates a convolution with f filters of c×kh×kw.
func NewConv2D(name string, f, c, kh, kw int, rng *tensor.RNG) *Conv2D {
	scale := math.Sqrt(2.0 / float64(c*kh*kw))
	return &Conv2D{
		name: name, kh: kh, kw: kw,
		W: &Param{Name: name + ".W", Value: tensor.Randn(rng, scale, f, c, kh, kw), Grad: tensor.New(f, c, kh, kw)},
	}
}

func (l *Conv2D) Name() string { return l.name }

// Forward is the pooled forward on the layer's own workspace: it never
// allocated on a warm step, so the reference walk keeps it.
func (l *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor { return l.ForwardWS(x, &l.ws) }

func (l *Conv2D) checkStash(gradOut *tensor.Tensor) {
	checkStash(l.name, "stashed input", "images", stashedBatch(l.x), gradOut.Shape[0])
}

func (l *Conv2D) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	l.checkStash(gradOut)
	return tensor.Conv2DInputGrad(gradOut, l.W.Value, l.x.Shape[2], l.x.Shape[3])
}

func (l *Conv2D) WeightGrad(gradOut *tensor.Tensor) {
	l.checkStash(gradOut)
	tensor.AddFlatTo(l.W.Grad, tensor.Conv2DWeightGrad(l.x, gradOut, l.kh, l.kw))
}

func (l *Conv2D) Params() []*Param { return []*Param{l.W} }

// MaxPool2 is 2×2/stride-2 max pooling.
type MaxPool2 struct {
	name    string
	arg     []int
	inShape []int
	out     *tensor.Tensor // retained ForwardWS output buffer
	gin     *tensor.Tensor // retained InputGradWS output buffer
}

// NewMaxPool2 creates the pooling layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{name: name} }

func (l *MaxPool2) Name() string { return l.name }

func (l *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape...)
	out, arg := tensor.MaxPool2(x)
	l.arg = arg
	return out
}

func (l *MaxPool2) checkStash(gradOut *tensor.Tensor) {
	checkStash(l.name, "argmax map", "elements", len(l.arg), gradOut.Len())
}

func (l *MaxPool2) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	l.checkStash(gradOut)
	return tensor.MaxPool2Grad(gradOut, l.arg, l.inShape)
}

func (l *MaxPool2) WeightGrad(*tensor.Tensor) {}
func (l *MaxPool2) Params() []*Param          { return nil }

// Flatten reshapes [N, ...] to [N, rest].
type Flatten struct {
	name    string
	inShape []int
	fview   *tensor.Tensor // retained view header for ForwardWS
	gview   *tensor.Tensor // retained view header for InputGradWS
}

// NewFlatten creates the reshaping layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (l *Flatten) Name() string { return l.name }

func (l *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape...)
	n := x.Shape[0]
	return x.Reshape(n, x.Len()/n)
}

func (l *Flatten) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(l.inShape...)
}

func (l *Flatten) WeightGrad(*tensor.Tensor) {}
func (l *Flatten) Params() []*Param          { return nil }

// SoftmaxCrossEntropy is the classification head: given logits [N, classes]
// and integer labels, Loss returns the mean cross-entropy and the gradient
// w.r.t. the logits (the δO_{L+1} of the paper's formulation).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape[0], logits.Shape[1])
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	return loss, grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the logits gradient
// into a caller-retained [N, classes] buffer (prior contents ignored), so warm
// training steps skip the per-step gradient allocation. Bitwise identical to
// SoftmaxCrossEntropy.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) float64 {
	return SoftmaxCrossEntropyChunk(grad, logits, labels, len(labels), 0) / float64(len(labels))
}
