package nn

import "oooback/internal/tensor"

// This file holds the pooled δO (InputGradWS) of every layer: δO into a
// layer-retained buffer, bit-identical to InputGrad.

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
