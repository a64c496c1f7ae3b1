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
	register("optimizers", "§8.1: training trend across SGD/momentum/RMSProp/Adam, ooo vs conventional", Optimizers)
}

// Optimizers backs the §8.1 statement "we trained the models with multiple
// optimizers (SGD, momentum, RMSProp, and Adam) ... training with other
// optimizers show similar trend": every optimizer converges, and under each
// one the out-of-order schedule is bit-for-bit identical to conventional
// backprop (the schedules only reorder gradient computations; the optimizer
// sees identical gradients).
func Optimizers() string {
	x, labels := data.Vectors(77, 48, 12, 4)
	const L = 5
	opts := []struct {
		name string
		mk   func() nn.Optimizer
	}{
		{"SGD", func() nn.Optimizer { return &nn.SGD{LR: 0.05} }},
		{"momentum", func() nn.Optimizer { return &nn.Momentum{LR: 0.02, Beta: 0.9} }},
		{"RMSProp", func() nn.Optimizer { return &nn.RMSProp{LR: 0.005, Decay: 0.9} }},
		{"Adam", func() nn.Optimizer { return &nn.Adam{LR: 0.01} }},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %s\n", "optimizer", "first loss", "last loss", "converged", "ooo identical")
	for _, o := range opts {
		run := func(s graph.BackwardSchedule) train.Trajectory {
			net := train.MLPNet(1001, 12, 24, 2, 4)
			opt := o.mk()
			tr, err := train.TrainSteps(net, 15, func(int) (float64, error) {
				return train.Step(net, x, labels, s, opt)
			})
			if err != nil {
				panic(err)
			}
			return tr
		}
		conv := run(graph.Conventional(L))
		losses, weights := run(core.FastForward(L)).Identical(conv)
		first, last := conv.Losses[0], conv.Losses[len(conv.Losses)-1]
		fmt.Fprintf(&b, "%-10s %12.6f %12.6f %10v %v\n", o.name, first, last, last < first, losses && weights)
	}
	return b.String()
}
