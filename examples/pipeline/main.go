// Pipeline: train a BERT-24 across 4 simulated V100s under the pipeline
// schedules of §5.2 and render the execution timelines — cross-layer model
// parallelism, GPipe, gradient fast-forwarding (OOO-Pipe1) and
// fast-forwarding + modulo allocation (OOO-Pipe2).
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"

	"oooback/internal/core"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/pipepar"
)

func main() {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	L := len(m.Layers)

	run := func(name string, micro int, ff, modulo bool) pipepar.Result {
		alloc := pipepar.BalancedContiguous(m, 4)
		if modulo {
			alloc = core.ModuloAllocation(L, 4, 1)
		}
		r := pipepar.Run(m, pipepar.Config{
			GPUs: 4, MicroBatches: micro, Alloc: alloc, FastForward: ff,
			Schedule: pipepar.GPipe, Link: netsim.NVLink(), Iterations: 2,
		})
		fmt.Printf("%-22s %6.0f seq/s  (GPU utilization %.0f%%)\n", name, r.Throughput, 100*r.MeanUtil)
		return r
	}

	fmt.Printf("BERT-24 fine-tuning on 4 simulated V100s (batch %d)\n\n", m.Batch)
	run("cross-layer MP", 1, false, false)
	gp := run("GPipe", 4, false, false)
	run("OOO-Pipe1 (+ff)", 4, true, false)
	p2 := run("OOO-Pipe2 (+modulo)", 4, true, true)
	fmt.Printf("\nOOO-Pipe2 speedup over GPipe: %.2fx\n\n", p2.Throughput/gp.Throughput)

	fmt.Println("OOO-Pipe2 timeline (last iteration; F=forward O=dO W=dW):")
	fmt.Print(p2.Trace.Shifted().Render(100))
}
