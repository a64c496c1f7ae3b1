package nn

import (
	"fmt"
	"math"

	"oooback/internal/tensor"
)

// Embedding maps integer token ids to dense vectors. The input tensor holds
// token ids as float64 values in [0, vocab); Forward returns [rows, dim]
// where rows = input.Len(). The gradient w.r.t. the (integer) input is zero;
// WeightGrad scatter-adds the output gradient into the used rows — the
// sparse-update structure that makes NLP embedding synchronization the
// outlier the paper's §8.4.2 discusses.
type Embedding struct {
	name string
	W    *Param
	dim  int
	ids  []int
	inSh []int
	out  *tensor.Tensor // retained ForwardWS output buffer
	gin  *tensor.Tensor // retained InputGradWS output buffer
}

// NewEmbedding creates a vocab×dim embedding table.
func NewEmbedding(name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	return &Embedding{
		name: name, dim: dim,
		W: &Param{Name: name + ".W", Value: tensor.Randn(rng, 0.1, vocab, dim), Grad: tensor.New(vocab, dim)},
	}
}

func (e *Embedding) Name() string { return e.name }

func (e *Embedding) Forward(x *tensor.Tensor) *tensor.Tensor {
	e.inSh = append([]int(nil), x.Shape...)
	rows := x.Len()
	e.ids = make([]int, rows)
	out := tensor.New(rows, e.dim)
	vocab := e.W.Value.Shape[0]
	for i, v := range x.Data {
		id := int(v)
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, vocab))
		}
		e.ids[i] = id
		copy(out.Data[i*e.dim:(i+1)*e.dim], e.W.Value.Data[id*e.dim:(id+1)*e.dim])
	}
	return out
}

func (e *Embedding) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	// Token ids are not differentiable; propagate zeros with the input shape.
	return tensor.New(e.inSh...)
}

func (e *Embedding) WeightGrad(gradOut *tensor.Tensor) {
	checkStash(e.name, "token ids", "rows", len(e.ids), gradOut.Shape[0])
	for i, id := range e.ids {
		dst := e.W.Grad.Data[id*e.dim : (id+1)*e.dim]
		src := gradOut.Data[i*e.dim : (i+1)*e.dim]
		for j := range dst {
			dst[j] += src[j]
		}
	}
}

func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// LayerNorm normalizes each row of a [rows, dim] tensor and applies a
// learned gain and bias. Its backward naturally splits into the decoupled
// computations: InputGrad needs gain and the cached normalized rows;
// WeightGrad reduces gradOut (and gradOut·x̂) over rows.
type LayerNorm struct {
	name        string
	Gain, Bias  *Param
	eps         float64
	xhat        *tensor.Tensor
	invStd      []float64
	rows, width int
	out         *tensor.Tensor // retained ForwardWS output buffer
	gin         *tensor.Tensor // retained InputGradWS output buffer
}

// NewLayerNorm creates a LayerNorm over the trailing dimension of size dim.
func NewLayerNorm(name string, dim int, rng *tensor.RNG) *LayerNorm {
	g := tensor.New(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{
		name: name, eps: 1e-5,
		Gain: &Param{Name: name + ".g", Value: g, Grad: tensor.New(1, dim)},
		Bias: &Param{Name: name + ".b", Value: tensor.New(1, dim), Grad: tensor.New(1, dim)},
	}
}

func (l *LayerNorm) Name() string { return l.name }

func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 {
		panic("nn: LayerNorm expects [rows, dim]")
	}
	l.rows, l.width = x.Shape[0], x.Shape[1]
	l.xhat = tensor.New(l.rows, l.width)
	l.invStd = make([]float64, l.rows)
	out := tensor.New(l.rows, l.width)
	for r := 0; r < l.rows; r++ {
		row := x.Data[r*l.width : (r+1)*l.width]
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(l.width)
		var varSum float64
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		inv := 1 / math.Sqrt(varSum/float64(l.width)+l.eps)
		l.invStd[r] = inv
		for c := 0; c < l.width; c++ {
			xh := (row[c] - mean) * inv
			l.xhat.Data[r*l.width+c] = xh
			out.Data[r*l.width+c] = xh*l.Gain.Value.Data[c] + l.Bias.Value.Data[c]
		}
	}
	return out
}

func (l *LayerNorm) checkStash(gradOut *tensor.Tensor) {
	checkStash(l.name, "normalized input", "rows", stashedBatch(l.xhat), gradOut.Shape[0])
	checkStash(l.name, "inverse deviations", "rows", len(l.invStd), gradOut.Shape[0])
}

func (l *LayerNorm) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	l.checkStash(gradOut)
	out := tensor.New(l.rows, l.width)
	w := float64(l.width)
	for r := 0; r < l.rows; r++ {
		// dL/dx = invStd/W · (W·g·dy − Σ(g·dy) − x̂·Σ(g·dy·x̂))
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

func (l *LayerNorm) WeightGrad(gradOut *tensor.Tensor) {
	l.checkStash(gradOut)
	for r := 0; r < l.rows; r++ {
		base := r * l.width
		for c := 0; c < l.width; c++ {
			l.Gain.Grad.Data[c] += gradOut.Data[base+c] * l.xhat.Data[base+c]
			l.Bias.Grad.Data[c] += gradOut.Data[base+c]
		}
	}
}

func (l *LayerNorm) Params() []*Param { return []*Param{l.Gain, l.Bias} }

// MeanPool1D averages groups of `group` consecutive rows: [rows, dim] →
// [rows/group, dim]. Used to pool token embeddings into sequence vectors.
type MeanPool1D struct {
	name  string
	group int
	rows  int
	// fwdRows is the last forward's row count, kept across DropStash so
	// Restash can put it back.
	fwdRows int
	out     *tensor.Tensor // retained ForwardWS output buffer
	gin     *tensor.Tensor // retained InputGradWS output buffer
}

// NewMeanPool1D pools every `group` rows.
func NewMeanPool1D(name string, group int) *MeanPool1D {
	if group <= 0 {
		panic("nn: non-positive pool group")
	}
	return &MeanPool1D{name: name, group: group}
}

func (p *MeanPool1D) Name() string { return p.name }

func (p *MeanPool1D) Forward(x *tensor.Tensor) *tensor.Tensor {
	rows, dim := x.Shape[0], x.Shape[1]
	if rows%p.group != 0 {
		panic(fmt.Sprintf("nn: %d rows not divisible by pool group %d", rows, p.group))
	}
	p.rows, p.fwdRows = rows, rows
	out := tensor.New(rows/p.group, dim)
	for r := 0; r < rows; r++ {
		o := r / p.group
		for c := 0; c < dim; c++ {
			out.Data[o*dim+c] += x.Data[r*dim+c] / float64(p.group)
		}
	}
	return out
}

// checkStash rejects a gradient whose rows are not the pooled rows of the
// last forward pass: one of another batch, or any after DropStash.
func (p *MeanPool1D) checkStash(gradOut *tensor.Tensor) {
	checkStash(p.name, "pooled row count", "rows", p.rows/p.group, gradOut.Shape[0])
}

func (p *MeanPool1D) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	p.checkStash(gradOut)
	dim := gradOut.Shape[1]
	out := tensor.New(p.rows, dim)
	for r := 0; r < p.rows; r++ {
		o := r / p.group
		for c := 0; c < dim; c++ {
			out.Data[r*dim+c] = gradOut.Data[o*dim+c] / float64(p.group)
		}
	}
	return out
}

func (p *MeanPool1D) WeightGrad(*tensor.Tensor) {}
func (p *MeanPool1D) Params() []*Param          { return nil }
