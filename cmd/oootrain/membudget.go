package main

import (
	"fmt"

	"oooback/internal/graph"
	"oooback/internal/nn"
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
func probeRecomputeIntervals(exec *train.Executor, j job, sched graph.BackwardSchedule, L int) ([]probePoint, error) {
	points := make([]probePoint, 0, L)
	for every := 1; every <= L; every++ {
		net := j.build()
		_, stats, err := exec.StepRecompute(net, j.x, j.labels, sched, every, &nn.SGD{LR: 0})
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
func runMemBudget(j job, sched graph.BackwardSchedule, budget int64, verify bool, L int) {
	// One pooled serial executor probes and trains: the same bits and the same
	// ledger as the naive walk, without its per-step garbage.
	exec := train.NewExecutor(train.ExecSerial, 0)
	points, err := probeRecomputeIntervals(exec, j, sched, L)
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

	net, opt := j.build(), mkOpt(j.opt)
	var last train.RecomputeStats
	run := j.run("training", net, func(i int) (float64, error) {
		loss, stats, err := exec.StepRecompute(net, j.x, j.labels, sched, chosen, opt)
		if err != nil {
			return 0, err
		}
		last = stats
		fmt.Printf("step %2d  loss %.6f  peak %d B  recomputed %d/%d layers\n",
			i, loss, stats.PeakLiveBytes, stats.RecomputedLayers, L)
		return loss, nil
	})
	fmt.Printf("%s  (interval %d, peak %d B ≤ budget %d B)\n", lossSpan(run), chosen, last.PeakLiveBytes, budget)

	if verify {
		verifyRun("conventional", run, j.reference())
	}
}
