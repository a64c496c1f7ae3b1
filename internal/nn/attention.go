package nn

import (
	"math"

	"oooback/internal/tensor"
)

// SelfAttention is single-head scaled dot-product self-attention over a
// single sequence: x [seq, dim] → softmax(QKᵀ/√dim)·V with learned Q/K/V
// projections. Like every layer in this package its backward pass is split
// into the decoupled computations: InputGrad chains the gradient to the
// previous layer while WeightGrad accumulates into Wq/Wk/Wv — each
// independently deferrable, which is what lets the paper apply modulo
// allocation and fast-forwarding at transformer granularity (§5.2.1).
//
// It is the package's reference-only layer: it has no Pooled form, so the
// engines run its plain methods, and Pipeline and checkpointed steps reject
// it — it treats its whole input as one sequence, so a row chunk of a batch
// is not a smaller batch.
type SelfAttention struct {
	name       string
	Wq, Wk, Wv *Param

	x       *tensor.Tensor // [seq, dim]
	q, k, v *tensor.Tensor
	attn    *tensor.Tensor // softmax rows [seq, seq]
	scale   float64
}

// NewSelfAttention creates the layer with deterministic init.
func NewSelfAttention(name string, dim int, rng *tensor.RNG) *SelfAttention {
	mk := func(suffix string) *Param {
		return &Param{Name: name + "." + suffix,
			Value: tensor.Randn(rng, math.Sqrt(1.0/float64(dim)), dim, dim),
			Grad:  tensor.New(dim, dim)}
	}
	return &SelfAttention{
		name: name, Wq: mk("Wq"), Wk: mk("Wk"), Wv: mk("Wv"),
		scale: 1 / math.Sqrt(float64(dim)),
	}
}

func (a *SelfAttention) Name() string { return a.name }

// Forward computes the attention output [seq, dim].
func (a *SelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.x = x
	a.q = tensor.MatMul(x, a.Wq.Value)
	a.k = tensor.MatMul(x, a.Wk.Value)
	a.v = tensor.MatMul(x, a.Wv.Value)
	scores := tensor.Scale(tensor.MatMulT(a.q, a.k), a.scale) // Q·Kᵀ, fused
	a.attn = softmaxRows(scores)
	return tensor.MatMul(a.attn, a.v)
}

// softmaxRows applies a numerically stable softmax to each row.
func softmaxRows(s *tensor.Tensor) *tensor.Tensor {
	rows, cols := s.Shape[0], s.Shape[1]
	out := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := s.Data[r*cols : (r+1)*cols]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for c, v := range row {
			e := math.Exp(v - maxV)
			out.Data[r*cols+c] = e
			sum += e
		}
		for c := 0; c < cols; c++ {
			out.Data[r*cols+c] /= sum
		}
	}
	return out
}

func (a *SelfAttention) checkStash(gradOut *tensor.Tensor) {
	checkStash(a.name, "stashed input", "rows", stashedBatch(a.x), gradOut.Shape[0])
	checkStash(a.name, "attention rows", "rows", stashedBatch(a.attn), gradOut.Shape[0])
}

// backThroughScores converts the gradient w.r.t. the attention output into
// the gradients w.r.t. q, k and v. Shared by InputGrad and WeightGrad; each
// call recomputes it so the two stay independent (callable in either order).
func (a *SelfAttention) backThroughScores(gradOut *tensor.Tensor) (dq, dk, dv *tensor.Tensor) {
	a.checkStash(gradOut)
	// out = attn·v.
	dAttn := tensor.MatMulT(gradOut, a.v)
	dv = tensor.TMatMul(a.attn, gradOut)
	// Softmax backward per row: ds = attn ⊙ (dAttn − Σ dAttn⊙attn).
	rows, cols := a.attn.Shape[0], a.attn.Shape[1]
	dScores := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		var dot float64
		for c := 0; c < cols; c++ {
			dot += dAttn.Data[r*cols+c] * a.attn.Data[r*cols+c]
		}
		for c := 0; c < cols; c++ {
			dScores.Data[r*cols+c] = a.attn.Data[r*cols+c] * (dAttn.Data[r*cols+c] - dot) * a.scale
		}
	}
	dq = tensor.MatMul(dScores, a.k)
	dk = tensor.TMatMul(dScores, a.q)
	return dq, dk, dv
}

func (a *SelfAttention) InputGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	dq, dk, dv := a.backThroughScores(gradOut)
	gin := tensor.MatMulT(dq, a.Wq.Value)
	tensor.AddTo(gin, tensor.MatMulT(dk, a.Wk.Value))
	tensor.AddTo(gin, tensor.MatMulT(dv, a.Wv.Value))
	return gin
}

func (a *SelfAttention) WeightGrad(gradOut *tensor.Tensor) {
	dq, dk, dv := a.backThroughScores(gradOut)
	tensor.AddTo(a.Wq.Grad, tensor.TMatMul(a.x, dq))
	tensor.AddTo(a.Wk.Grad, tensor.TMatMul(a.x, dk))
	tensor.AddTo(a.Wv.Grad, tensor.TMatMul(a.x, dv))
}

func (a *SelfAttention) Params() []*Param { return []*Param{a.Wq, a.Wk, a.Wv} }
