package main

import (
	"fmt"
	"time"

	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/pipepar"
	"oooback/internal/train"
)

// calibBlocks saturates the simulator's occupancy curve so microDur divides a
// full-batch time cleanly by the micro-batch count: blocks/M stays far above
// any profile's SMCapacity for every M we run.
const calibBlocks = 1 << 20

// calibModel turns measured per-stage pipeline timings into a one-layer-per-
// stage cost model for the pipepar simulator. Each layer's Fwd/DO/DW is the
// mean full-step time that stage spent in the corresponding computation,
// which is the full-batch granularity the simulator expects. The first step
// is skipped as warmup when more than one was measured.
func calibModel(history []train.PipeStepStats) *models.Model {
	if len(history) > 1 {
		history = history[1:]
	}
	S := history[0].Stages
	layers := make([]models.Layer, S)
	for s := 0; s < S; s++ {
		var fwd, do, dw time.Duration
		for _, st := range history {
			ss := st.PerStage[s]
			fwd += ss.Fwd
			do += ss.DO
			dw += ss.DWInline + ss.DWFill
		}
		n := time.Duration(len(history))
		layers[s] = models.Layer{
			Name:       fmt.Sprintf("stage%d", s),
			Fwd:        max(fwd/n, time.Nanosecond),
			DO:         do / n,
			DW:         dw / n,
			FwdKernels: 1, DOKernels: 1, DWKernels: 1,
			FwdBlocks: calibBlocks, DOBlocks: calibBlocks, DWBlocks: calibBlocks,
		}
	}
	return &models.Model{
		Name:    "oootrain-measured",
		Batch:   history[0].MicroBatches,
		Profile: models.V100Profile(),
		Layers:  layers,
	}
}

// crossCheckSimulator feeds the measured stage costs through the pipepar
// discrete-event simulator and prints its predicted busy fraction next to
// the measured one. The two use the same schedule family (GPipe trapezoid,
// or DAPPLE for synchronous 1F1B) so on an unloaded multi-core host they
// should land in the same ballpark; the printout is diagnostic, not a gate.
func crossCheckSimulator(history []train.PipeStepStats, psched train.PipeSchedule, fill bool) {
	if len(history) == 0 {
		return
	}
	m := calibModel(history)
	if err := m.Validate(); err != nil {
		fmt.Printf("simulator cross-check skipped: %v\n", err)
		return
	}
	sched := pipepar.GPipe
	if psched == train.Pipe1F1B {
		sched = pipepar.DAPPLE
	}
	S := history[0].Stages
	alloc := make([]int, S)
	for i := range alloc {
		alloc[i] = i
	}
	res := pipepar.Run(m, pipepar.Config{
		GPUs:         S,
		MicroBatches: history[0].MicroBatches,
		Alloc:        alloc,
		FastForward:  fill,
		Schedule:     sched,
		Link:         netsim.NVLink(),
		Iterations:   3,
	})
	fmt.Printf("simulator cross-check (%v, fast-forward=%v): measured occupancy %.1f%%  simulated %.1f%%\n",
		sched, fill, 100*meanOccupancy(history), 100*res.MeanUtil)
}
