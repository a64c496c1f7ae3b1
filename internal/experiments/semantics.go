package experiments

import (
	"fmt"
	"strings"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
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
	x, labels := data.Images(7, 32, 1, 9, 9, 4)
	const L = 7
	run := func(sched graph.BackwardSchedule) train.Trajectory {
		net := train.Conv9Net(42, 4)
		opt := &nn.Momentum{LR: 0.02, Beta: 0.9}
		tr, err := train.TrainSteps(net, 8, func(int) (float64, error) {
			return train.Step(net, x, labels, sched, opt)
		})
		if err != nil {
			panic(err)
		}
		return tr
	}

	conv := run(graph.Conventional(L))
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
	for _, l := range conv.Losses {
		fmt.Fprintf(&b, "%.6f ", l)
	}
	fmt.Fprintf(&b, "\n(training works: loss fell from %.4f to %.4f)\n\n", conv.Losses[0], conv.Losses[len(conv.Losses)-1])
	for _, sc := range schedules {
		losses, weights := run(sc.sched).Identical(conv)
		fmt.Fprintf(&b, "%-16s losses identical: %v, final weights identical: %v\n", sc.name, losses, weights)
	}
	return b.String()
}
