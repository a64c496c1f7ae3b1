package main

import (
	"testing"

	"oooback/internal/calib"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// skewedNet builds a 6-layer MLP whose last two Dense layers dominate the
// compute (8→512→4 against 12→8→8 up front), so a cost-balanced 2-stage
// partition must give the first stage more than half the layers.
func skewedNet() (func() *train.Network, *tensor.Tensor, []int) {
	x, labels := data.Vectors(7, 16, 12, 4)
	build := func() *train.Network {
		rng := tensor.NewRNG(7)
		return &train.Network{Layers: []nn.Layer{
			nn.NewDense("fc1", 12, 8, rng),
			nn.NewReLU("r1"),
			nn.NewDense("fc2", 8, 8, rng),
			nn.NewReLU("r2"),
			nn.NewDense("big1", 8, 512, rng),
			nn.NewDense("big2", 512, 4, rng),
		}}
	}
	return build, x, labels
}

// TestBalancedPartitionSkewed asserts the profiling pre-pass detects the cost
// skew: the even split of 6 layers into 2 stages is [0,3,6], but with the
// expensive layers at the end the balanced boundary must land after layer 3.
func TestBalancedPartitionSkewed(t *testing.T) {
	build, x, labels := skewedNet()
	part, err := balancedPartition(build, x, labels, "sgd", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	if part.Stages() != 2 {
		t.Fatalf("got %d stages, want 2", part.Stages())
	}
	even, _ := graph.PartitionEven(6, 2)
	t.Logf("balanced bounds %v (even %v)", part.Bounds, even.Bounds)
	if part.Bounds[1] <= even.Bounds[1] {
		t.Fatalf("balanced boundary %d not past the even split %d despite the back-loaded cost skew",
			part.Bounds[1], even.Bounds[1])
	}
}

// TestBalancedPartitionBitwise asserts the measured-cost partition only moves
// stage boundaries: a pipeline trained on it matches the serial full-batch
// reference bit for bit.
func TestBalancedPartitionBitwise(t *testing.T) {
	build, x, labels := skewedNet()
	part, err := balancedPartition(build, x, labels, "sgd", 2)
	if err != nil {
		t.Fatal(err)
	}

	net := build()
	pipe, err := train.NewPipeline(net, &nn.SGD{LR: 0.05}, train.PipelineConfig{
		Stages: 2, MicroBatches: 4, Schedule: train.Pipe1F1B, Build: build,
		Partition: part,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	ref := build()
	refOpt := &nn.SGD{LR: 0.05}
	sched := graph.Conventional(len(ref.Layers))
	const steps = 4
	for i := 0; i < steps; i++ {
		loss, _, err := pipe.Step(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		refLoss, err := train.Step(ref, x, labels, sched, refOpt)
		if err != nil {
			t.Fatal(err)
		}
		if loss != refLoss {
			t.Fatalf("step %d: pipeline loss %v != serial reference %v", i, loss, refLoss)
		}
	}
	if !train.SnapshotsEqual(train.ParamSnapshot(net), train.ParamSnapshot(ref)) {
		t.Fatal("balanced-partition pipeline weights differ from the serial reference")
	}
}

// TestLayerCosts checks the profile→cost fold: per-layer kinds sum, step-
// scoped ops (layer 0) are ignored.
func TestLayerCosts(t *testing.T) {
	np := calib.NetProfile{
		Net: "t", Engine: "serial", Layers: 2,
		Ops: []calib.OpStat{
			{Kind: "loss", Layer: 0, MedianNs: 999},
			{Kind: "update", Layer: 0, MedianNs: 999},
			{Kind: "fwd", Layer: 1, MedianNs: 10},
			{Kind: "dO", Layer: 1, MedianNs: 20},
			{Kind: "dW", Layer: 1, MedianNs: 30},
			{Kind: "fwd", Layer: 2, MedianNs: 5},
			{Kind: "dO", Layer: 2, MedianNs: 5},
			{Kind: "dWFill", Layer: 2, MedianNs: 5},
		},
	}
	costs := layerCosts(np)
	if len(costs) != 2 || costs[0] != 60 || costs[1] != 15 {
		t.Fatalf("layerCosts = %v, want [60 15]", costs)
	}
}
