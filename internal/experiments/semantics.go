package experiments

import (
	"fmt"
	"strings"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

func init() {
	register("semantics", "§8 claim check: ooo schedules train bit-identically to conventional backprop", Semantics)
}

// Semantics trains a real CNN on synthetic data under conventional backprop,
// gradient fast-forwarding and reverse first-k orders, and verifies that the
// losses and final weights are bit-for-bit identical — the machine check of
// the paper's "our optimizations do not change the semantics" claim.
func Semantics() string {
	build := func() *train.Network {
		rng := tensor.NewRNG(42)
		return &train.Network{Layers: []nn.Layer{
			nn.NewConv2D("conv1", 8, 1, 3, 3, rng), // 9→7
			nn.NewReLU("relu1"),
			nn.NewConv2D("conv2", 8, 8, 2, 2, rng), // 7→6
			nn.NewReLU("relu2"),
			nn.NewMaxPool2("pool"),
			nn.NewFlatten("flat"),
			nn.NewDense("fc", 8*3*3, 4, rng),
		}}
	}
	x, labels := data.Images(7, 32, 1, 9, 9, 4)
	L := 7

	runTraining := func(sched graph.BackwardSchedule) ([]float64, map[string]*tensor.Tensor) {
		net := build()
		opt := &nn.Momentum{LR: 0.02, Beta: 0.9}
		var losses []float64
		for it := 0; it < 8; it++ {
			loss, err := train.Step(net, x, labels, sched, opt)
			if err != nil {
				panic(err)
			}
			losses = append(losses, loss)
		}
		return losses, train.ParamSnapshot(net)
	}

	convLoss, convW := runTraining(graph.Conventional(L))
	schedules := []struct {
		name  string
		sched graph.BackwardSchedule
	}{
		{"fast-forwarding", core.FastForward(L)},
		{"reverse-first-3", graph.ReverseFirstK(L, 3)},
		{"reverse-first-7", graph.ReverseFirstK(L, 7)},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "conventional losses: ")
	for _, l := range convLoss {
		fmt.Fprintf(&b, "%.6f ", l)
	}
	fmt.Fprintf(&b, "\n(training works: loss fell from %.4f to %.4f)\n\n", convLoss[0], convLoss[len(convLoss)-1])
	for _, sc := range schedules {
		loss, w := runTraining(sc.sched)
		identicalLoss := true
		for i := range convLoss {
			if loss[i] != convLoss[i] {
				identicalLoss = false
			}
		}
		fmt.Fprintf(&b, "%-16s losses identical: %v, final weights identical: %v\n",
			sc.name, identicalLoss, train.SnapshotsEqual(convW, w))
	}
	return b.String()
}
