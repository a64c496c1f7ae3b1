package nn

import "oooback/internal/tensor"

// Pooled is the one optional layer interface: the form every engine of
// internal/train runs a layer in. Its methods compute the same bits as the
// plain Layer methods without touching the allocator on warm steps, and they
// make the layer safe for a pipeline stage and for activation checkpointing.
// The plain methods stay the naive allocating form on purpose:
// Network.Forward and Network.Backward walk them as the differential
// reference every engine is compared against.
//
// Ownership and ordering rules:
//
//   - The workspace of ForwardWS and InputGradWS is owned by whoever runs the
//     call; scratch comes from it and goes back within the call. δW takes
//     none: its fold writes straight into Grad.
//   - The tensor ForwardWS returns is valid until the layer's next forward,
//     the one InputGradWS returns until its next δO. Training steps are
//     serialized by the engines' end-of-step barriers, so handing either to
//     a neighbour layer (which may run much later, on another lane) is safe.
//   - InputGradWS and WeightGradAcc stay independent — callable in either
//     order, any schedule distance apart — exactly like the plain methods.
//   - Both read the stash the layer's last forward left, whichever of Forward
//     and ForwardWS ran it: the two keep it in one representation.
//
// The engines reach the interface through train's ws helpers, which fall
// back to the plain methods for a layer without it. Pipeline and
// StepRecompute with checkpointing reject such a layer: SelfAttention treats
// its whole input as one sequence, so splitting a batch into row chunks
// changes its math, not just the schedule, and it keeps no pooled form.
type Pooled interface {
	Layer
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
	// (input references, masks, lowering buffers, normalization statistics).
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

func (d *Dense) InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	d.gin = tensor.Ensure(d.gin, gradOut.Shape[0], d.W.Value.Shape[0])
	return tensor.MatMulTInto(d.gin, gradOut, d.W.Value)
}

func (r *ReLU) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	r.checkMask(gradOut)
	r.gin = tensor.Ensure(r.gin, gradOut.Shape...)
	return tensor.ReLUGradInto(r.gin, gradOut, r.mask)
}

func (l *Conv2D) InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	l.checkStash(gradOut)
	l.gin = tensor.Ensure(l.gin, l.x.Shape...)
	// Per image wmᵀ·gradOut scattered straight back, read from NCHW in place.
	return tensor.ConvInputGradInto(l.gin, gradOut, l.wm, l.kh, l.kw, ws)
}

func (l *MaxPool2) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	l.checkStash(gradOut)
	l.gin = tensor.Ensure(l.gin, l.inShape...)
	return tensor.MaxPool2GradInto(l.gin, gradOut, l.arg)
}

func (l *Flatten) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	// A reshaped alias of gradOut, like the plain path — only the view header
	// is retained, never the data.
	if l.gview == nil {
		l.gview = &tensor.Tensor{Shape: make([]int, 0, 4)}
	}
	l.gview.Shape = append(l.gview.Shape[:0], l.inShape...)
	l.gview.Data = gradOut.Data
	return l.gview
}

func (e *Embedding) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	// Token ids are not differentiable; a retained zero tensor of the input
	// shape (the plain path allocates a fresh one).
	e.gin = tensor.Ensure(e.gin, e.inSh...)
	e.gin.Zero()
	return e.gin
}

func (l *LayerNorm) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	l.checkStash(gradOut)
	l.gin = tensor.Ensure(l.gin, l.rows, l.width)
	out := l.gin
	w := float64(l.width)
	for r := 0; r < l.rows; r++ {
		var sumGdy, sumGdyXhat float64
		base := r * l.width
		for c := 0; c < l.width; c++ {
			gdy := l.Gain.Value.Data[c] * gradOut.Data[base+c]
			sumGdy += gdy
			sumGdyXhat += gdy * l.xhat.Data[base+c]
		}
		for c := 0; c < l.width; c++ {
			gdy := l.Gain.Value.Data[c] * gradOut.Data[base+c]
			out.Data[base+c] = l.invStd[r] / w *
				(w*gdy - sumGdy - l.xhat.Data[base+c]*sumGdyXhat)
		}
	}
	return out
}

func (p *MeanPool1D) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	p.checkStash(gradOut)
	dim := gradOut.Shape[1]
	p.gin = tensor.Ensure(p.gin, p.rows, dim)
	for r := 0; r < p.rows; r++ {
		o := r / p.group
		for c := 0; c < dim; c++ {
			p.gin.Data[r*dim+c] = gradOut.Data[o*dim+c] / float64(p.group)
		}
	}
	return p.gin
}
