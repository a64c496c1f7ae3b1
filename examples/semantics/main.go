// Semantics: train a real CNN (CPU tensors, decoupled δO/δW autograd) under
// conventional backprop and out-of-order schedules, and show the losses and
// final weights are bit-for-bit identical — the paper's "does not change the
// semantics" claim, machine-checked.
//
// Run with: go run ./examples/semantics
package main

import (
	"fmt"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/train"
)

func main() {
	x, labels := data.Images(99, 64, 1, 9, 9, 4)
	const L = 7

	schedules := []struct {
		name  string
		sched graph.BackwardSchedule
	}{
		{"conventional", graph.Conventional(L)},
		{"fast-forwarding", core.FastForward(L)},
	}

	runs := make([]train.Trajectory, len(schedules))
	for i, s := range schedules {
		net := train.Conv9Net(1234, 4)
		opt := &nn.Adam{LR: 0.003}
		tr, err := train.TrainSteps(net, 12, func(int) (float64, error) {
			return train.Step(net, x, labels, s.sched, opt)
		})
		if err != nil {
			panic(err)
		}
		runs[i] = tr
		fmt.Printf("%-16s first loss %.6f, last loss %.6f\n", s.name, tr.Losses[0], tr.Losses[len(tr.Losses)-1])
	}

	losses, weights := runs[1].Identical(runs[0])
	conv := runs[0].Losses
	fmt.Printf("\nlosses bit-identical across schedules: %v\n", losses)
	fmt.Printf("final weights bit-identical:           %v\n", weights)
	fmt.Printf("training converged (loss fell):        %v\n", conv[len(conv)-1] < conv[0])
}
