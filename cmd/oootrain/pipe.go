package main

import (
	"fmt"
	"time"

	"oooback/internal/graph"
	"oooback/internal/train"
)

// runPipeline trains with the microbatch pipeline engine, printing the
// per-step bubble report, the pipepar simulator cross-check, and optionally
// verifying bit-for-bit against the serial full-batch reference.
func runPipeline(j job, stages, micro int, psched train.PipeSchedule, partition string, noFill, verify bool) {
	var part graph.Partition
	if partition == "balanced" {
		var err error
		part, err = balancedPartition(j.build, j.x, j.labels, j.opt, stages)
		if err != nil {
			fatal("balanced partition: %v", err)
		}
		fmt.Printf("balanced partition from measured layer costs: bounds %v\n", part.Bounds)
	}
	net := j.build()
	pipe, err := train.NewPipeline(net, mkOpt(j.opt), train.PipelineConfig{
		Stages: stages, MicroBatches: micro, Schedule: psched, Build: j.build,
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

	history := make([]train.PipeStepStats, 0, j.steps)
	run := j.run("pipeline", net, func(i int) (float64, error) {
		loss, st, err := pipe.Step(j.x, j.labels)
		if err != nil {
			return 0, err
		}
		history = append(history, copyStats(st))
		fmt.Printf("step %2d  loss %.6f  wall %8s  bubble-exposed %8s  bubble-filled %8s  fill %4.0f%%  occupancy %5.1f%%\n",
			i, loss, st.Wall.Round(time.Microsecond),
			st.BubbleExposed().Round(time.Microsecond), st.BubbleFilled().Round(time.Microsecond),
			100*st.FillRatio(), 100*st.Occupancy())
		return loss, nil
	})
	fmt.Println(lossSpan(run))

	var exposed, filled time.Duration
	for _, st := range history {
		exposed += st.BubbleExposed()
		filled += st.BubbleFilled()
	}
	fmt.Printf("bubbles: exposed %s  filled-with-δW %s  mean occupancy %.1f%%\n",
		exposed.Round(time.Microsecond), filled.Round(time.Microsecond), 100*meanOccupancy(history))

	crossCheckSimulator(history, psched, !noFill)

	if verify {
		verifyRun("serial full-batch reference", run, j.reference())
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
