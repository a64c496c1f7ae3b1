package nn

import (
	"fmt"
	"math"

	"oooback/internal/tensor"
)

// This file holds the pooled forward and the δW fold of every layer,
// and the chunked loss head.
//
// ForwardWS is Forward into layer-retained buffers (or caller workspace
// scratch), so a warm step performs zero heap allocations in its forward pass
// — one pass per step on the executors and data-parallel replicas, M per stage
// on a pipeline. Forward itself stays the naive allocating form
// Network.Forward walks as the differential reference (for Conv2D the two are
// one body: its Forward never allocated on a warm step).
//
// WeightGradAcc is every engine's δW, and the whole batch is its one-chunk
// case, as SoftmaxCrossEntropyInto is one SoftmaxCrossEntropyChunk call. δW_i
// reads only layer i's stashed input and g_i (the paper's §3), so a batch
// splits into ascending row chunks: each call continues the parameter-gradient
// fold in place (tensor.TMatMulAcc / ConvWeightGradAcc / SumRowsAcc, or the
// in-place scatter and reduce folds), and the calls of a step — one, or one per
// microbatch in ascending order — after ZeroGrads reproduce the serial
// full-batch fold chain bit for bit. From non-zero gradients the fold
// continues the chain rather than adding a finished sum.
//
// The full-batch reference for GEMM-based layers computes Grad = 0 + Σ (the
// finished sum added to the zeroed gradient) while the fold computes Σ
// directly, and 0 + x ≠ x in exactly one case — x = −0. Every fold continues
// from a +0 destination, and a round-to-nearest addition chain seeded at +0
// never yields −0, so the two agree sign bit included at every chunk split
// (TestWeightGradChunkZeroSigns, TestWeightGradChunkMatchesFullBatch).

// ---- Dense ----

func (d *Dense) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	d.x = x
	d.out = tensor.Ensure(d.out, x.Shape[0], d.W.Value.Shape[1])
	return tensor.AddToRows(tensor.MatMulInto(d.out, x, d.W.Value), d.B.Value)
}

func (d *Dense) WeightGradAcc(gradOut *tensor.Tensor) {
	d.checkStash(gradOut)
	tensor.TMatMulAcc(d.W.Grad, d.x, gradOut)
	tensor.SumRowsAcc(d.B.Grad, gradOut)
}

// ---- ReLU ----

func (r *ReLU) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	r.mask = resize(r.mask, len(x.Data))
	// v > 0 is false for −0 and for NaN of either sign, exactly as in Forward;
	// the selected value keeps v's bits, the rest become +0.
	return tensor.ReLUInto(r.out, r.mask, x)
}

func (r *ReLU) WeightGradAcc(*tensor.Tensor) {}

// ---- Conv2D ----

// Conv2D.Forward is already fully pooled: retained lowering and output, GEMM
// written straight into NCHW.
func (l *Conv2D) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	return l.Forward(x)
}

func (l *Conv2D) WeightGradAcc(gradOut *tensor.Tensor) {
	l.checkStash(gradOut)
	// Continue the fold over these images (l.colsT holds this lane's forward
	// lowering) directly into the flat weight gradient.
	tensor.ConvWeightGradAcc(l.W.Grad, gradOut, l.colsT)
}

// ---- MaxPool2 ----

func (l *MaxPool2) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	l.inShape = append(l.inShape[:0], x.Shape...)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	l.out = tensor.Ensure(l.out, n, c, h/2, w/2)
	l.arg = resize(l.arg, l.out.Len())
	return tensor.MaxPool2Into(l.out, l.arg, x)
}

func (l *MaxPool2) WeightGradAcc(*tensor.Tensor) {}

// ---- Flatten ----

func (l *Flatten) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	l.inShape = append(l.inShape[:0], x.Shape...)
	if l.fview == nil {
		l.fview = &tensor.Tensor{Shape: make([]int, 0, 4)}
	}
	n := x.Shape[0]
	l.fview.Shape = append(l.fview.Shape[:0], n, x.Len()/n)
	l.fview.Data = x.Data
	return l.fview
}

func (l *Flatten) WeightGradAcc(*tensor.Tensor) {}

// ---- Embedding ----

// ForwardWS decodes the ids (Restash), then gathers their rows.
func (e *Embedding) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	e.Restash(x)
	e.out = tensor.Ensure(e.out, len(e.ids), e.dim)
	for i, id := range e.ids {
		copy(e.out.Data[i*e.dim:(i+1)*e.dim], e.W.Value.Data[id*e.dim:(id+1)*e.dim])
	}
	return e.out
}

// The plain scatter-add already folds rows ascending directly into W.Grad,
// so delegating to it continues the identical chain.
func (e *Embedding) WeightGradAcc(gradOut *tensor.Tensor) {
	e.WeightGrad(gradOut)
}

// ---- LayerNorm ----

// ForwardWS normalizes (Restash), then applies the gain and bias to the
// normalized rows it kept.
func (l *LayerNorm) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	l.Restash(x)
	l.out = tensor.Ensure(l.out, l.rows, l.width)
	for r := 0; r < l.rows; r++ {
		for c := 0; c < l.width; c++ {
			i := r*l.width + c
			l.out.Data[i] = l.xhat.Data[i]*l.Gain.Value.Data[c] + l.Bias.Value.Data[c]
		}
	}
	return l.out
}

// The plain reduction already folds rows ascending directly into the
// gain/bias gradients; delegating to it continues the identical chain.
func (l *LayerNorm) WeightGradAcc(gradOut *tensor.Tensor) {
	l.WeightGrad(gradOut)
}

// ---- MeanPool1D ----

func (p *MeanPool1D) ForwardWS(x *tensor.Tensor, _ *tensor.Workspace) *tensor.Tensor {
	rows, dim := x.Shape[0], x.Shape[1]
	if rows%p.group != 0 {
		panic(fmt.Sprintf("nn: %d rows not divisible by pool group %d", rows, p.group))
	}
	p.rows, p.fwdRows = rows, rows
	p.out = tensor.Ensure(p.out, rows/p.group, dim)
	p.out.Zero() // Ensure contents are unspecified; the fold below is +=
	for r := 0; r < rows; r++ {
		o := r / p.group
		for c := 0; c < dim; c++ {
			p.out.Data[o*dim+c] += x.Data[r*dim+c] / float64(p.group)
		}
	}
	return p.out
}

func (p *MeanPool1D) WeightGradAcc(*tensor.Tensor) {}

// ---- chunked loss head ----

// SoftmaxCrossEntropyChunk is the loss head over one contiguous chunk of a
// batch of `total` examples (SoftmaxCrossEntropyInto is the one-chunk case). The per-row gradient is
// scaled by 1/total (row-local, so chunking cannot change its bits), and the
// raw loss sum continues from lossAcc and is returned undivided: calling the
// chunks in ascending row order and dividing the final sum by total once
// reproduces the full-batch loss fold chain exactly. lossAcc must be 0 for
// the first chunk.
func SoftmaxCrossEntropyChunk(grad, logits *tensor.Tensor, labels []int, total int, lossAcc float64) float64 {
	if logits.Dims() != 2 || logits.Shape[0] != len(labels) {
		panic(fmt.Sprintf("nn: logits %v vs %d labels", logits.Shape, len(labels)))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	if grad.Dims() != 2 || grad.Shape[0] != n || grad.Shape[1] != c {
		panic(fmt.Sprintf("nn: loss grad buffer %v, want %v", grad.Shape, logits.Shape))
	}
	if total < n {
		panic(fmt.Sprintf("nn: chunk of %d rows in batch of %d", n, total))
	}
	loss := lossAcc
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
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
		logZ := math.Log(sum) + maxV
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		loss += logZ - row[y]
		for j := 0; j < c; j++ {
			p := math.Exp(row[j]-maxV) / sum
			grad.Data[i*c+j] = p / float64(total)
		}
		grad.Data[i*c+y] -= 1 / float64(total)
	}
	return loss
}
