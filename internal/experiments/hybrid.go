package experiments

import (
	"fmt"

	"oooback/internal/core"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/pipepar"
	"oooback/internal/stats"
)

func init() {
	register("hybrid", "§6 combined scheduling: data-parallel pipelines with reverse-k + fast-forwarding", Hybrid)
}

// Hybrid reproduces §6's combined-scheduling proposal: BERT-24 trained as 4
// data-parallel replicas of a 4-GPU pipeline (16 GPUs total), NVLink inside
// the pipeline and 10 GbE across replicas. The weight gradients of the first
// k layers run in reverse first-k order so their cross-replica
// synchronizations start earliest, while the remaining layers use gradient
// fast-forwarding; k is swept to locate the optimum the paper leaves as
// future work.
func Hybrid() string {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	L := len(m.Layers)
	run := func(ff bool, k int) pipepar.Result {
		return pipepar.Run(m, pipepar.Config{
			GPUs: 4, MicroBatches: 4,
			Alloc:       core.ModuloAllocation(L, 4, 1),
			FastForward: ff, ReverseK: k,
			Schedule: pipepar.GPipe, Link: netsim.NVLink(),
			Replicas: 4, SyncLink: netsim.Ethernet10G(),
			Iterations: 5,
		})
	}
	conv := run(false, 0)
	ff := run(true, 0)
	t := stats.NewTable("schedule", "global seq/s", "vs conventional")
	t.Add("conventional backward", fmt.Sprintf("%.0f", conv.Throughput), 1.0)
	t.Add("fast-forwarding only", fmt.Sprintf("%.0f", ff.Throughput), ff.Throughput/conv.Throughput)
	bestK, bestV := 0, 0.0
	for _, k := range []int{2, 4, 8, 13, 19, 26} {
		r := run(true, k)
		t.Add(fmt.Sprintf("ff + reverse-first-%d", k), fmt.Sprintf("%.0f", r.Throughput),
			r.Throughput/conv.Throughput)
		if r.Throughput > bestV {
			bestK, bestV = k, r.Throughput
		}
	}
	return t.String() + fmt.Sprintf("\nbest combined schedule: k=%d at %.0f seq/s (%.2fx conventional, %.2fx ff-only)\n",
		bestK, bestV, bestV/conv.Throughput, bestV/ff.Throughput)
}
