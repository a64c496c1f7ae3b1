package train

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// GradSnapshot deep-copies every parameter gradient, keyed by name.
func GradSnapshot(n *Network) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range n.Params() {
		out[p.Name] = p.Grad.Clone()
	}
	return out
}

// mlp builds a deterministic 5-layer MLP (two Dense→ReLU blocks plus head).
func mlp(seed uint64, dim, classes int) *Network {
	return MLPNet(seed, dim, 32, 2, classes)
}

// cnnEven builds a small conv net over 1×9×9 inputs.
func cnnEven(seed uint64, classes int) *Network {
	rng := tensor.NewRNG(seed)
	return &Network{Layers: []nn.Layer{
		nn.NewConv2D("conv1", 4, 1, 3, 3, rng), // 9→7
		nn.NewReLU("relu1"),
		nn.NewConv2D("conv2", 8, 4, 2, 2, rng), // 7→6
		nn.NewReLU("relu2"),
		nn.NewMaxPool2("pool"), // 6→3
		nn.NewFlatten("flat"),
		nn.NewDense("fc", 8*3*3, classes, rng),
	}}
}

func TestForwardShapes(t *testing.T) {
	net := mlp(1, 8, 3)
	x, _ := data.Vectors(2, 5, 8, 3)
	out := net.Forward(x)
	if out.Shape[0] != 5 || out.Shape[1] != 3 {
		t.Fatalf("logits shape = %v", out.Shape)
	}
}

func TestBackwardRejectsIllegalSchedule(t *testing.T) {
	net := mlp(1, 8, 3)
	x, labels := data.Vectors(2, 4, 8, 3)
	logits := net.Forward(x)
	_, grad := nn.SoftmaxCrossEntropy(logits, labels)
	bad := graph.BackwardSchedule{{Kind: graph.WeightGrad, Layer: 1}}
	if _, err := net.Backward(grad, bad); err == nil {
		t.Fatal("illegal schedule accepted")
	}
}

// TestTrainStepsTrajectory: TrainSteps keeps every step's loss and the final
// weights, Identical tells a weight change from a loss change, and a failed
// step ends the run with its error.
func TestTrainStepsTrajectory(t *testing.T) {
	x, labels := data.Vectors(3, 16, 8, 3)
	run := func(sched graph.BackwardSchedule, lr float64, steps int) Trajectory {
		net := mlp(7, 8, 3)
		opt := &nn.SGD{LR: lr}
		tr, err := TrainSteps(net, steps, func(int) (float64, error) {
			return Step(net, x, labels, sched, opt)
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	const L = 5
	ref := run(graph.Conventional(L), 0.05, 4)
	if len(ref.Losses) != 4 || len(ref.Weights) != 6 || !(ref.Losses[3] < ref.Losses[0]) {
		t.Fatalf("trajectory: %d losses %v, %d weights", len(ref.Losses), ref.Losses, len(ref.Weights))
	}
	for _, c := range []struct {
		name            string
		got, ref        Trajectory
		losses, weights bool
	}{
		{"fast-forward", run(core.FastForward(L), 0.05, 4), ref, true, true},
		{"other rate", run(graph.Conventional(L), 0.1, 4), ref, false, false},
		{"other rate, one step", run(graph.Conventional(L), 0.1, 1), run(graph.Conventional(L), 0.05, 1), true, false},
	} {
		if l, w := c.got.Identical(c.ref); l != c.losses || w != c.weights {
			t.Errorf("%s: Identical = (%v, %v), want (%v, %v)", c.name, l, w, c.losses, c.weights)
		}
	}

	calls := 0
	boom := errors.New("boom")
	_, err := TrainSteps(mlp(7, 8, 3), 5, func(i int) (float64, error) {
		calls++
		if i == 2 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) || err.Error() != "step 2: boom" || calls != 3 {
		t.Fatalf("failed step: err %v after %d calls, want \"step 2: boom\" after 3", err, calls)
	}
}

// TestSemanticsPreservation is the machine check of the paper's §8 claim:
// gradients under conventional, fast-forward, reverse first-k and
// list-scheduled orders are bit-for-bit identical.
func TestSemanticsPreservation(t *testing.T) {
	net := mlp(7, 8, 3)
	x, labels := data.Vectors(3, 16, 8, 3)
	L := len(net.Layers)

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
		t.Fatal("fast-forward gradients differ from conventional")
	}
	for k := 0; k <= L; k++ {
		if got := run(reverseKOrder(L, k)); !SnapshotsEqual(ref, got) {
			t.Fatalf("reverse-first-%d gradients differ from conventional", k)
		}
	}
}

// reverseKOrder mirrors core.ReverseFirstK without the model dependency.
func reverseKOrder(L, k int) graph.BackwardSchedule {
	return graph.ReverseFirstK(L, k)
}

// TestSemanticsPreservationCNN repeats the check on a conv net, including
// pooling and flatten layers.
func TestSemanticsPreservationCNN(t *testing.T) {
	net := cnnEven(11, 4)
	x, labels := data.Images(5, 8, 1, 9, 9, 4)
	L := len(net.Layers)
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
		t.Fatal("fast-forward CNN gradients differ")
	}
	if got := run(reverseKOrder(L, 3)); !SnapshotsEqual(ref, got) {
		t.Fatal("reverse-3 CNN gradients differ")
	}
}

// Property: ANY random legal schedule produces identical gradients.
func TestRandomScheduleSemanticsProperty(t *testing.T) {
	net := mlp(13, 8, 3)
	x, labels := data.Vectors(17, 8, 8, 3)
	L := len(net.Layers)
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
	f := func(seed int64) bool {
		s := randomLegalSchedule(L, rand.New(rand.NewSource(seed)))
		return SnapshotsEqual(ref, run(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func randomLegalSchedule(L int, rng *rand.Rand) graph.BackwardSchedule {
	var s graph.BackwardSchedule
	doneDO := make([]bool, L+2)
	doneDO[L+1] = true
	type opk struct {
		kind  graph.OpKind
		layer int
	}
	var pending []opk
	for i := 1; i <= L; i++ {
		pending = append(pending, opk{graph.OutGrad, i}, opk{graph.WeightGrad, i})
	}
	for len(pending) > 0 {
		var idx []int
		for j, op := range pending {
			if doneDO[op.layer+1] {
				idx = append(idx, j)
			}
		}
		j := idx[rng.Intn(len(idx))]
		op := pending[j]
		pending = append(pending[:j], pending[j+1:]...)
		if op.kind == graph.OutGrad {
			doneDO[op.layer] = true
		}
		s = append(s, graph.Op{Kind: op.kind, Layer: op.layer})
	}
	return s
}

// TestTrainingConvergesIdentically trains the same model for several steps
// under conventional and ooo schedules and requires identical weights and
// losses throughout — the full end-to-end semantics check.
func TestTrainingConvergesIdentically(t *testing.T) {
	x, labels := data.Vectors(23, 32, 8, 3)
	L := 5

	runTraining := func(s graph.BackwardSchedule) ([]float64, map[string]*tensor.Tensor) {
		net := mlp(99, 8, 3)
		opt := &nn.Momentum{LR: 0.05, Beta: 0.9}
		var losses []float64
		for it := 0; it < 10; it++ {
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
			t.Fatalf("loss diverged at step %d: %v vs %v", i, convLoss[i], oooLoss[i])
		}
	}
	if !SnapshotsEqual(convW, oooW) {
		t.Fatal("weights diverged after training")
	}
	if convLoss[len(convLoss)-1] >= convLoss[0] {
		t.Fatalf("training did not reduce loss: %v", convLoss)
	}
}

// TestPeakLiveGradsMatchesScheduleShape: fast-forward retains more gradients
// than conventional, matching the §3 memory discussion.
func TestPeakLiveGradsMatchesScheduleShape(t *testing.T) {
	net := mlp(7, 8, 3)
	x, labels := data.Vectors(29, 8, 8, 3)
	L := len(net.Layers)
	measure := func(s graph.BackwardSchedule) int {
		net.ZeroGrads()
		logits := net.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		st, err := net.Backward(grad, s)
		if err != nil {
			t.Fatal(err)
		}
		return st.PeakLiveGrads
	}
	conv := measure(graph.Conventional(L))
	ff := measure(core.FastForward(L))
	if ff <= conv {
		t.Fatalf("fast-forward peak %d not above conventional %d", ff, conv)
	}
	if conv != 2 {
		t.Fatalf("conventional peak = %d, want 2 (current + next)", conv)
	}
	if ff != L {
		t.Fatalf("fast-forward peak = %d, want L=%d", ff, L)
	}
}

// accuracy is the share of examples whose largest logit is the label.
func accuracy(n *Network, x *tensor.Tensor, labels []int) float64 {
	logits := n.Forward(x)
	classes := logits.Shape[1]
	correct := 0
	for i, y := range labels {
		best, bestV := 0, logits.At(i, 0)
		for c := 1; c < classes; c++ {
			if v := logits.At(i, c); v > bestV {
				best, bestV = c, v
			}
		}
		if best == y {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// TestAccuracyBounds: accuracy is the fraction of examples whose logit
// argmax is the label — 1 when every label is the net's own prediction, 0
// when every label is another class, and within [0, 1] for the dataset's
// labels.
func TestAccuracyBounds(t *testing.T) {
	const classes = 3
	x, labels := data.Vectors(5, 10, 8, classes)
	net := mlp(1, 8, classes)
	if a := accuracy(net, x, labels); a < 0 || a > 1 {
		t.Fatalf("accuracy %v out of range", a)
	}
	logits := net.Forward(x)
	pred := make([]int, len(labels))
	wrong := make([]int, len(labels))
	for i := range pred {
		for c := 1; c < classes; c++ {
			if logits.At(i, c) > logits.At(i, pred[i]) {
				pred[i] = c
			}
		}
		wrong[i] = (pred[i] + 1) % classes
	}
	if a := accuracy(net, x, pred); a != 1 {
		t.Fatalf("accuracy against the net's own predictions = %v, want 1", a)
	}
	if a := accuracy(net, x, wrong); a != 0 {
		t.Fatalf("accuracy against never-predicted labels = %v, want 0", a)
	}
}

func TestAccuracyImprovesWithTraining(t *testing.T) {
	x, labels := data.Vectors(91, 64, 8, 3)
	net := mlp(17, 8, 3)
	before := accuracy(net, x, labels)
	opt := &nn.Momentum{LR: 0.05, Beta: 0.9}
	for it := 0; it < 30; it++ {
		if _, err := Step(net, x, labels, graph.Conventional(5), opt); err != nil {
			t.Fatal(err)
		}
	}
	after := accuracy(net, x, labels)
	if after <= before {
		t.Fatalf("accuracy did not improve: %.2f -> %.2f", before, after)
	}
	if after < 0.9 {
		t.Fatalf("final training accuracy %.2f, want ≥ 0.9 on this separable task", after)
	}
}
