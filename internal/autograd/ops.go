package autograd

import (
	"math"

	"oooback/internal/tensor"
)

// MatMul records c = a·b. The VJP w.r.t. b (the typical weight operand) is
// the δW computation; the VJP w.r.t. a is the δO chain.
func MatMul(a, b *Variable) *Variable {
	t := a.tape
	out := t.intermediate(tensor.MatMul(a.Value, b.Value))
	av, bv := a.Value, b.Value
	t.record(out, []*Variable{a, b}, []func(*tensor.Tensor) *tensor.Tensor{
		func(g *tensor.Tensor) *tensor.Tensor { return tensor.MatMulT(g, bv) }, // g·bᵀ, fused
		func(g *tensor.Tensor) *tensor.Tensor { return tensor.TMatMul(av, g) }, // aᵀ·g, fused
	})
	return out
}

// AddBias records y = x + b with b shaped [1, d] broadcast over rows.
func AddBias(x, b *Variable) *Variable {
	t := x.tape
	rows, d := x.Value.Shape[0], x.Value.Shape[1]
	out := tensor.New(rows, d)
	for r := 0; r < rows; r++ {
		for c := 0; c < d; c++ {
			out.Data[r*d+c] = x.Value.Data[r*d+c] + b.Value.Data[c]
		}
	}
	ov := t.intermediate(out)
	t.record(ov, []*Variable{x, b}, []func(*tensor.Tensor) *tensor.Tensor{
		func(g *tensor.Tensor) *tensor.Tensor { return g.Clone() },
		func(g *tensor.Tensor) *tensor.Tensor {
			return tensor.SumRows(g).Reshape(1, g.Shape[1])
		},
	})
	return ov
}

// ReLU records y = max(x, 0).
func ReLU(x *Variable) *Variable {
	t := x.tape
	out := x.Value.Clone()
	mask := make([]bool, len(out.Data))
	for i, v := range out.Data {
		if v > 0 {
			mask[i] = true
		} else {
			out.Data[i] = 0
		}
	}
	ov := t.intermediate(out)
	t.record(ov, []*Variable{x}, []func(*tensor.Tensor) *tensor.Tensor{
		func(g *tensor.Tensor) *tensor.Tensor {
			r := g.Clone()
			for i := range r.Data {
				if !mask[i] {
					r.Data[i] = 0
				}
			}
			return r
		},
	})
	return ov
}

// SoftmaxCE computes the mean softmax cross-entropy of logits against labels
// and returns the loss plus the seed gradient (∂loss/∂logits) for Backward.
func SoftmaxCE(logits *Variable, labels []int) (float64, *tensor.Tensor) {
	lv := logits.Value
	n, c := lv.Shape[0], lv.Shape[1]
	grad := tensor.New(n, c)
	var loss float64
	for i := 0; i < n; i++ {
		row := lv.Data[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		loss += math.Log(sum) + maxV - row[labels[i]]
		for j := 0; j < c; j++ {
			grad.Data[i*c+j] = math.Exp(row[j]-maxV) / sum / float64(n)
		}
		grad.Data[i*c+labels[i]] -= 1 / float64(n)
	}
	return loss / float64(n), grad
}
