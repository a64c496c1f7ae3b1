package nn

import "oooback/internal/tensor"

// WorkspaceBackward is the optional pooled backward interface. A layer that
// implements it computes the same gradients as InputGrad/WeightGrad — bit for
// bit — but without touching the allocator on warm steps: transient scratch
// comes from the caller-supplied workspace (Get/Put strictly within the
// call), and the returned δO lives in a buffer the layer retains across
// steps.
//
// Ownership rules:
//
//   - The workspace is owned by whoever runs the call. The executor gives its
//     δO chain one workspace and each layer's pooled δW op another, so pooled
//     backward never synchronizes on buffers.
//   - The tensor returned by InputGradWS is valid until the layer's next
//     backward call. Training steps are serialized by the executor's
//     end-of-backward barrier, so handing it to the previous layer's δO and
//     δW (which may run much later, on another lane) is safe.
//   - InputGradWS and WeightGradWS stay independent — callable in either
//     order, any schedule distance apart — exactly like the plain methods.
//   - Both read the stash the layer's last forward left, whichever of Forward
//     and ForwardWS (pipe.go) ran it: the two keep it in one representation.
//
// Every layer in this package implements the interface, and every engine in
// internal/train calls it (through train's wsInputGrad/wsWeightGrad, which
// fall back to the plain methods for a layer without it). The plain methods
// stay the naive allocating form on purpose: Network.Backward walks them as
// the differential reference the engines are compared against.
type WorkspaceBackward interface {
	// InputGradWS is δO into a layer-retained buffer.
	InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor
	// WeightGradWS is δW using workspace scratch for intermediates.
	WeightGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace)
}

func (d *Dense) InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	d.gin = tensor.Ensure(d.gin, gradOut.Shape[0], d.W.Value.Shape[0])
	return tensor.MatMulTInto(d.gin, gradOut, d.W.Value)
}

func (d *Dense) WeightGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) {
	d.checkStash(gradOut)
	// GEMM into scratch, then accumulate: adding term-by-term directly into a
	// nonzero Grad would associate the sums differently and change bits.
	dw := ws.Get(d.W.Value.Shape[0], d.W.Value.Shape[1])
	tensor.AddTo(d.W.Grad, tensor.TMatMulInto(dw, d.x, gradOut))
	ws.Put(dw)
	db := ws.Get(1, gradOut.Shape[1])
	tensor.AddTo(d.B.Grad, tensor.SumRowsInto(db, gradOut))
	ws.Put(db)
}

func (r *ReLU) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	r.checkMask(gradOut)
	r.gin = tensor.Ensure(r.gin, gradOut.Shape...)
	return tensor.ReLUGradInto(r.gin, gradOut, r.mask)
}

func (r *ReLU) WeightGradWS(*tensor.Tensor, *tensor.Workspace) {}

func (l *Conv2D) InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	l.checkStash(gradOut)
	l.gin = tensor.Ensure(l.gin, l.x.Shape...)
	// Per image wmᵀ·gradOut scattered straight back, read from NCHW in place.
	return tensor.ConvInputGradInto(l.gin, gradOut, l.wm, l.kh, l.kw, ws)
}

func (l *Conv2D) WeightGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) {
	l.checkStash(gradOut)
	// Σ over images of gradOut·colsTᵀ against the forward pass's lowering,
	// folded in zeroed scratch first: the reference adds the finished sum to
	// Grad, and adding term by term would associate differently.
	dw := tensor.ConvWeightGradAcc(ws.GetZeroed(l.wm.Shape[0], l.wm.Shape[1]), gradOut, l.colsT)
	tensor.AddFlatTo(l.W.Grad, dw)
	ws.Put(dw)
}

func (l *MaxPool2) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	l.checkStash(gradOut)
	l.gin = tensor.Ensure(l.gin, l.inShape...)
	return tensor.MaxPool2GradInto(l.gin, gradOut, l.arg)
}

func (l *MaxPool2) WeightGradWS(*tensor.Tensor, *tensor.Workspace) {}

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

func (l *Flatten) WeightGradWS(*tensor.Tensor, *tensor.Workspace) {}

// backThroughScoresWS is backThroughScores with all four intermediates in
// workspace buffers. Callers must Put dq, dk and dv when done.
func (a *SelfAttention) backThroughScoresWS(gradOut *tensor.Tensor, ws *tensor.Workspace) (dq, dk, dv *tensor.Tensor) {
	a.checkStash(gradOut)
	seq, dim := a.x.Shape[0], a.x.Shape[1]
	dAttn := tensor.MatMulTInto(ws.Get(seq, seq), gradOut, a.v)
	dv = tensor.TMatMulInto(ws.Get(seq, dim), a.attn, gradOut)
	dScores := ws.Get(seq, seq)
	rows, cols := a.attn.Shape[0], a.attn.Shape[1]
	for r := 0; r < rows; r++ {
		var dot float64
		for c := 0; c < cols; c++ {
			dot += dAttn.Data[r*cols+c] * a.attn.Data[r*cols+c]
		}
		for c := 0; c < cols; c++ {
			dScores.Data[r*cols+c] = a.attn.Data[r*cols+c] * (dAttn.Data[r*cols+c] - dot) * a.scale
		}
	}
	dq = tensor.MatMulInto(ws.Get(seq, dim), dScores, a.k)
	dk = tensor.TMatMulInto(ws.Get(seq, dim), dScores, a.q)
	ws.Put(dScores)
	ws.Put(dAttn)
	return dq, dk, dv
}

func (a *SelfAttention) InputGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	dq, dk, dv := a.backThroughScoresWS(gradOut, ws)
	seq, dim := a.x.Shape[0], a.x.Shape[1]
	a.gin = tensor.Ensure(a.gin, seq, dim)
	tensor.MatMulTInto(a.gin, dq, a.Wq.Value)
	tmp := ws.Get(seq, dim)
	tensor.AddTo(a.gin, tensor.MatMulTInto(tmp, dk, a.Wk.Value))
	tensor.AddTo(a.gin, tensor.MatMulTInto(tmp, dv, a.Wv.Value))
	ws.Put(tmp)
	ws.Put(dv)
	ws.Put(dk)
	ws.Put(dq)
	return a.gin
}

func (a *SelfAttention) WeightGradWS(gradOut *tensor.Tensor, ws *tensor.Workspace) {
	dq, dk, dv := a.backThroughScoresWS(gradOut, ws)
	dim := a.x.Shape[1]
	dw := ws.Get(dim, dim)
	tensor.AddTo(a.Wq.Grad, tensor.TMatMulInto(dw, a.x, dq))
	tensor.AddTo(a.Wk.Grad, tensor.TMatMulInto(dw, a.x, dk))
	tensor.AddTo(a.Wv.Grad, tensor.TMatMulInto(dw, a.x, dv))
	ws.Put(dw)
	ws.Put(dv)
	ws.Put(dk)
	ws.Put(dq)
}

func (e *Embedding) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	// Token ids are not differentiable; a retained zero tensor of the input
	// shape (the plain path allocates a fresh one).
	e.gin = tensor.Ensure(e.gin, e.inSh...)
	e.gin.Zero()
	return e.gin
}

func (e *Embedding) WeightGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) {
	e.WeightGrad(gradOut) // scatter-add is already allocation-free
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

func (l *LayerNorm) WeightGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) {
	l.WeightGrad(gradOut) // in-place row reduction, already allocation-free
}

func (p *MeanPool1D) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
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

func (p *MeanPool1D) WeightGradWS(*tensor.Tensor, *tensor.Workspace) {}

func (d *Dropout) InputGradWS(gradOut *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	d.gin = tensor.Ensure(d.gin, gradOut.Shape...)
	scale := 1 / (1 - d.p)
	for i, v := range gradOut.Data {
		if d.keep[i] {
			d.gin.Data[i] = v * scale
		} else {
			d.gin.Data[i] = 0
		}
	}
	return d.gin
}

func (d *Dropout) WeightGradWS(*tensor.Tensor, *tensor.Workspace) {}
