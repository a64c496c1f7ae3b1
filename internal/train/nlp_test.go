package train

import (
	"testing"

	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// tokenModel builds the NLP-shaped stack (TokenNet with a 16-wide head):
// six layers with heterogeneous δW structure (scatter-add, reductions,
// GEMMs) — a stronger semantics check than the CNN/MLP ones.
func tokenModel(seed uint64, vocab, dim, seqLen, classes int) *Network {
	return TokenNet(seed, vocab, dim, seqLen, 16, classes)
}

// tokenBatch is TokenBatch (kept as a short local alias).
func tokenBatch(seed uint64, batch, seqLen, vocab, classes int) (*tensor.Tensor, []int) {
	return TokenBatch(seed, batch, seqLen, vocab, classes)
}

func TestNLPSemanticsPreservation(t *testing.T) {
	const (
		vocab, dim, seqLen, classes = 50, 12, 8, 3
		L                           = 6
	)
	net := tokenModel(21, vocab, dim, seqLen, classes)
	x, labels := tokenBatch(33, 16, seqLen, vocab, classes)

	run := func(s graph.BackwardSchedule) map[string]*tensor.Tensor {
		net.ZeroGrads()
		logits := net.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		if _, err := net.Backward(grad, s); err != nil {
			t.Fatal(err)
		}
		return GradSnapshot(net)
	}
	ref := run(graph.Conventional(L))
	if got := run(core.FastForward(L)); !SnapshotsEqual(ref, got) {
		t.Fatal("fast-forward NLP gradients differ from conventional")
	}
	for _, k := range []int{2, 4, 6} {
		if got := run(reverseKOrder(L, k)); !SnapshotsEqual(ref, got) {
			t.Fatalf("reverse-first-%d NLP gradients differ", k)
		}
	}
	// The embedding gradient must be sparse: only used token rows touched.
	used := map[int]bool{}
	for _, v := range x.Data {
		used[int(v)] = true
	}
	embGrad := ref["emb.W"]
	for row := 0; row < vocab; row++ {
		var norm float64
		for c := 0; c < dim; c++ {
			norm += embGrad.At(row, c) * embGrad.At(row, c)
		}
		if !used[row] && norm != 0 {
			t.Fatalf("unused token row %d has gradient", row)
		}
	}
}

func TestNLPTrainingConvergesIdentically(t *testing.T) {
	const L = 6
	x, labels := tokenBatch(44, 24, 8, 50, 3)
	runTraining := func(s graph.BackwardSchedule) ([]float64, map[string]*tensor.Tensor) {
		net := tokenModel(55, 50, 12, 8, 3)
		opt := &nn.Adam{LR: 0.01}
		var losses []float64
		for it := 0; it < 12; it++ {
			loss, err := Step(net, x, labels, s, opt)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses, ParamSnapshot(net)
	}
	convLoss, convW := runTraining(graph.Conventional(L))
	oooLoss, oooW := runTraining(core.FastForward(L))
	for i := range convLoss {
		if convLoss[i] != oooLoss[i] {
			t.Fatalf("NLP loss diverged at step %d", i)
		}
	}
	if !SnapshotsEqual(convW, oooW) {
		t.Fatal("NLP weights diverged")
	}
	if convLoss[len(convLoss)-1] >= convLoss[0] {
		t.Fatalf("NLP training did not reduce loss: %v", convLoss)
	}
}
