package main

import (
	"fmt"
	"os"
	"time"

	"oooback/internal/graph"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// runPipeline trains with the microbatch pipeline engine, printing the
// per-step bubble report, the pipepar simulator cross-check, and optionally
// verifying bit-for-bit against the serial full-batch reference.
func runPipeline(build func() *train.Network, x *tensor.Tensor, labels []int,
	optName string, steps, stages, micro int, psched train.PipeSchedule,
	partition string, noFill, verify bool) {
	var part graph.Partition
	if partition == "balanced" {
		var err error
		part, err = balancedPartition(build, x, labels, optName, stages)
		if err != nil {
			fatal("balanced partition: %v", err)
		}
		fmt.Printf("balanced partition from measured layer costs: bounds %v\n", part.Bounds)
	}
	net := build()
	pipe, err := train.NewPipeline(net, mkOpt(optName), train.PipelineConfig{
		Stages: stages, MicroBatches: micro, Schedule: psched, Build: build,
		Partition: part, NoDWFill: noFill,
	})
	if err != nil {
		fatal("pipeline: %v", err)
	}
	defer pipe.Close()

	part = pipe.Partition()
	fmt.Printf("pipeline: stages=%d microbatches=%d schedule=%v partition=%s dw-fill=%v\n",
		stages, pipe.MicroBatches(), psched, partitionName(partition), !noFill)
	for s := 0; s < part.Stages(); s++ {
		lo, hi := part.Range(s)
		names := make([]string, 0, hi-lo)
		for _, l := range net.Layers[lo:hi] {
			names = append(names, l.Name())
		}
		fmt.Printf("  stage %d: layers [%d,%d) %v\n", s, lo, hi, names)
	}

	var losses []float64
	history := make([]train.PipeStepStats, 0, steps)
	for i := 0; i < steps; i++ {
		loss, st, err := pipe.Step(x, labels)
		if err != nil {
			fatal("pipeline step: %v", err)
		}
		losses = append(losses, loss)
		history = append(history, copyStats(st))
		fmt.Printf("step %2d  loss %.6f  wall %8s  bubble-exposed %8s  bubble-filled %8s  fill %4.0f%%  occupancy %5.1f%%\n",
			i, loss, st.Wall.Round(time.Microsecond),
			st.BubbleExposed().Round(time.Microsecond), st.BubbleFilled().Round(time.Microsecond),
			100*st.FillRatio(), 100*st.Occupancy())
	}
	fmt.Printf("loss: %.6f -> %.6f\n", losses[0], losses[len(losses)-1])

	var exposed, filled time.Duration
	for _, st := range history {
		exposed += st.BubbleExposed()
		filled += st.BubbleFilled()
	}
	fmt.Printf("bubbles: exposed %s  filled-with-δW %s  mean occupancy %.1f%%\n",
		exposed.Round(time.Microsecond), filled.Round(time.Microsecond), 100*meanOccupancy(history))

	crossCheckSimulator(history, psched, !noFill)

	if verify {
		L := len(net.Layers)
		ref := build()
		refOpt := mkOpt(optName)
		sched := graph.Conventional(L)
		lossSame := true
		for i := 0; i < steps; i++ {
			rl, err := train.Step(ref, x, labels, sched, refOpt)
			if err != nil {
				fatal("reference step: %v", err)
			}
			if rl != losses[i] {
				lossSame = false
			}
		}
		same := train.SnapshotsEqual(train.ParamSnapshot(net), train.ParamSnapshot(ref))
		fmt.Printf("verify vs serial full-batch reference: losses identical=%v weights identical=%v\n", lossSame, same)
		if !same || !lossSame {
			os.Exit(1)
		}
	}
}

func partitionName(p string) string {
	if p == "" {
		return "even"
	}
	return p
}

// copyStats deep-copies a step's stats: PerStage aliases engine-retained
// storage that the next Step overwrites.
func copyStats(st train.PipeStepStats) train.PipeStepStats {
	out := st
	out.PerStage = append([]train.StageStats(nil), st.PerStage...)
	return out
}

func meanOccupancy(history []train.PipeStepStats) float64 {
	if len(history) == 0 {
		return 0
	}
	var sum float64
	for _, st := range history {
		sum += st.Occupancy()
	}
	return sum / float64(len(history))
}
