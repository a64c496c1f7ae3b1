package main

import (
	"fmt"
	"os"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// probePoint is one checkpoint interval's measured footprint.
type probePoint struct {
	every int
	stats train.RecomputeStats
}

// probeRecomputeIntervals runs one throwaway training step per checkpoint
// interval and reports each interval's peak live bytes. every = 1 is full
// retention (no recompute); larger intervals store fewer activations and
// re-materialize the rest during backward.
func probeRecomputeIntervals(exec *train.Executor, build func() *train.Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, L int) ([]probePoint, error) {
	points := make([]probePoint, 0, L)
	for every := 1; every <= L; every++ {
		net := build()
		_, stats, err := exec.StepRecompute(net, x, labels, sched, every, &nn.SGD{LR: 0})
		if err != nil {
			return nil, fmt.Errorf("probe interval %d: %w", every, err)
		}
		points = append(points, probePoint{every: every, stats: stats})
	}
	return points, nil
}

// runMemBudget trains under a peak live-byte budget: probe every checkpoint
// interval, pick the smallest one (least recompute) whose ledger peak fits,
// and train the full run with StepRecompute at that interval. Checkpointed
// steps are bitwise identical to plain ones, so -verify compares against the
// conventional-order reference exactly like the plain path.
func runMemBudget(build func() *train.Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, optName string, steps int, budget int64, verify bool, L int) {
	// One pooled serial executor probes and trains: the same bits and the same
	// ledger as the naive walk, without its per-step garbage.
	exec := train.NewExecutor(train.ExecSerial, 0)
	points, err := probeRecomputeIntervals(exec, build, x, labels, sched, L)
	if err != nil {
		fatal("mem-budget: %v", err)
	}
	chosen := -1
	minPeak := points[0].stats.PeakLiveBytes
	for _, p := range points {
		if p.stats.PeakLiveBytes < minPeak {
			minPeak = p.stats.PeakLiveBytes
		}
		if chosen < 0 && p.stats.PeakLiveBytes <= budget {
			chosen = p.every
		}
	}
	fmt.Printf("mem-budget: %d bytes over %d intervals\n", budget, len(points))
	for _, p := range points {
		marker := " "
		if p.every == chosen {
			marker = "*"
		}
		fmt.Printf(" %s every=%-3d peak=%-10d checkpoint=%-10d recomputed=%d\n",
			marker, p.every, p.stats.PeakLiveBytes, p.stats.CheckpointBytes, p.stats.RecomputedLayers)
	}
	if chosen < 0 {
		fatal("mem-budget %d bytes is below the tightest interval this run can meet (%d bytes)", budget, minPeak)
	}

	net := build()
	opt := mkOpt(optName)
	var losses []float64
	var last train.RecomputeStats
	for i := 0; i < steps; i++ {
		loss, stats, err := exec.StepRecompute(net, x, labels, sched, chosen, opt)
		if err != nil {
			fatal("training step: %v", err)
		}
		losses = append(losses, loss)
		last = stats
		fmt.Printf("step %2d  loss %.6f  peak %d B  recomputed %d/%d layers\n",
			i, loss, stats.PeakLiveBytes, stats.RecomputedLayers, L)
	}
	fmt.Printf("loss: %.6f -> %.6f  (interval %d, peak %d B ≤ budget %d B)\n",
		losses[0], losses[len(losses)-1], chosen, last.PeakLiveBytes, budget)

	if verify {
		refLoss, refW := runTraining(build, x, labels, graph.Conventional(L), mkOpt(optName), steps)
		same := train.SnapshotsEqual(train.ParamSnapshot(net), refW)
		lossSame := true
		for i := range losses {
			if losses[i] != refLoss[i] {
				lossSame = false
			}
		}
		fmt.Printf("verify vs conventional: losses identical=%v weights identical=%v\n", lossSame, same)
		if !same || !lossSame {
			os.Exit(1)
		}
	}
}
