package nn

import (
	"math"
	"testing"

	"oooback/internal/tensor"
)

// chunkRows returns a view over example rows [lo,hi) of x, where x's leading
// dimension is rows·rowsPer (rowsPer > 1 covers NCHW and flattened-token
// inputs).
func chunkRows(x *tensor.Tensor, lo, hi, rowsPer int) *tensor.Tensor {
	per := x.Len() / x.Shape[0] * rowsPer
	sh := append([]int{(hi - lo) * rowsPer}, x.Shape[1:]...)
	return &tensor.Tensor{Shape: sh, Data: x.Data[lo*per : hi*per]}
}

type pipeLayerCase struct {
	name    string
	build   func() Layer
	x       *tensor.Tensor
	rowsPer int // leading-dim rows per example
}

func pipeLayerCases() []pipeLayerCase {
	rng := tensor.NewRNG(3)
	xDense := tensor.Randn(rng, 1, 8, 5)
	xConv := tensor.Randn(rng, 1, 6, 2, 8, 8)
	xNorm := tensor.Randn(rng, 1, 12, 6)
	ids := tensor.New(12)
	for i := range ids.Data {
		ids.Data[i] = float64(i % 7)
	}
	wrng := func(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }
	return []pipeLayerCase{
		{"dense", func() Layer { return NewDense("d", 5, 4, wrng(5)) }, xDense, 1},
		{"relu", func() Layer { return NewReLU("r") }, xDense, 1},
		{"conv", func() Layer { return NewConv2D("c", 3, 2, 3, 3, wrng(7)) }, xConv, 1},
		{"maxpool", func() Layer { return NewMaxPool2("p") }, xConv, 1},
		{"flatten", func() Layer { return NewFlatten("f") }, xConv, 1},
		{"embedding", func() Layer { return NewEmbedding("e", 7, 4, wrng(9)) }, ids, 3},
		{"layernorm", func() Layer { return NewLayerNorm("n", 6, wrng(11)) }, xNorm, 2},
		{"meanpool", func() Layer { return NewMeanPool1D("m", 2) }, xNorm, 2},
	}
}

// TestForwardWSMatchesForward pins the pooled forward to the allocating one,
// bit for bit, including on a second call with reused buffers.
func TestForwardWSMatchesForward(t *testing.T) {
	for _, c := range pipeLayerCases() {
		ref, pooled := c.build(), c.build()
		ws := tensor.NewWorkspace()
		want := ref.Forward(c.x)
		for call := 0; call < 2; call++ {
			got := pooled.ForwardWS(c.x, ws)
			if !tensor.Equal(got, want) {
				t.Fatalf("%s: ForwardWS differs from Forward on call %d", c.name, call)
			}
		}
	}
}

// TestWeightGradChunkMatchesFullBatch is the core δW-fold contract: forward+δW
// per ascending chunk must equal the single full-batch forward+WeightGrad bit
// for bit, sign bits included — for every layer and every chunk split.
// The one-chunk split (chunk = examples) is what the whole-batch engines run;
// the pipeline runs the others.
func TestWeightGradChunkMatchesFullBatch(t *testing.T) {
	grng := tensor.NewRNG(21)
	for _, c := range pipeLayerCases() {
		ref := c.build()
		refOut := ref.Forward(c.x)
		gradOut := tensor.Randn(grng, 1, refOut.Shape...)
		ref.WeightGrad(gradOut)

		examples := c.x.Shape[0] / c.rowsPer
		outRowsPer := refOut.Shape[0] / examples
		for chunk := 1; chunk <= examples; chunk++ {
			lay := c.build()
			ws := tensor.NewWorkspace()
			for lo := 0; lo < examples; lo += chunk {
				hi := lo + chunk
				if hi > examples {
					hi = examples
				}
				lay.ForwardWS(chunkRows(c.x, lo, hi, c.rowsPer), ws)
				lay.WeightGradAcc(chunkRows(gradOut, lo, hi, outRowsPer))
			}
			for i, p := range lay.Params() {
				if !tensor.Equal(p.Grad, ref.Params()[i].Grad) {
					t.Fatalf("%s chunk=%d: %s gradient differs from full batch", c.name, chunk, p.Name)
				}
			}
		}
	}
}

// TestWeightGradChunkZeroSigns pins the −0 corner: a weight column whose δW
// terms are all −0 (dead zero activations against negative gradients). The
// reference computes 0 + Σ, the fold computes Σ directly; both must land on
// +0, sign bit included.
func TestWeightGradChunkZeroSigns(t *testing.T) {
	ref := NewDense("d", 2, 1, tensor.NewRNG(1))
	lay := NewDense("d", 2, 1, tensor.NewRNG(1))
	x := tensor.New(2, 2)
	x.Data = []float64{0, 1, 0, 2} // first input column dead
	g := tensor.New(2, 1)
	g.Data = []float64{-1, -2} // 0·(−1) = −0 terms for W.Grad[0]
	ref.Forward(x)
	ref.WeightGrad(g)
	lay.ForwardWS(x, tensor.NewWorkspace())
	lay.WeightGradAcc(g)
	if r := ref.W.Grad.Data[0]; r != 0 || math.Signbit(r) {
		t.Fatalf("corner not exercised: dead column gradient is %v (neg=%v)", r, math.Signbit(r))
	}
	if !tensor.Equal(lay.W.Grad, ref.W.Grad) {
		t.Fatalf("W.Grad: fold %v (neg=%v) vs ref %v", lay.W.Grad.Data, math.Signbit(lay.W.Grad.Data[0]), ref.W.Grad.Data)
	}
}

// TestSoftmaxCrossEntropyChunkMatchesFull pins chunked loss/grad to the
// full-batch head.
func TestSoftmaxCrossEntropyChunkMatchesFull(t *testing.T) {
	rng := tensor.NewRNG(31)
	n, c := 12, 5
	logits := tensor.Randn(rng, 3, n, c)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % c
	}
	wantGrad := tensor.New(n, c)
	wantLoss := SoftmaxCrossEntropyInto(wantGrad, logits, labels)
	for chunk := 1; chunk <= n; chunk++ {
		gotGrad := tensor.New(n, c)
		var acc float64
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			acc = SoftmaxCrossEntropyChunk(chunkRows(gotGrad, lo, hi, 1),
				chunkRows(logits, lo, hi, 1), labels[lo:hi], n, acc)
		}
		if got := acc / float64(n); got != wantLoss {
			t.Fatalf("chunk=%d: loss %v != %v", chunk, got, wantLoss)
		}
		if !tensor.Equal(gotGrad, wantGrad) {
			t.Fatalf("chunk=%d: loss gradient differs", chunk)
		}
	}
}
