package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"oooback/internal/core"
	"oooback/internal/gpusim"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/pipepar"
	"oooback/internal/singlegpu"
	"oooback/internal/trace"
)

// timelineRuns builds the trace of each demo run `oooexp timeline` exports:
// DenseNet-121 under OOO-XLA on one V100, and the last iteration of a
// 4-GPU, 4-microbatch GPipe pipeline of BERT-24 with modulo allocation.
var timelineRuns = map[string]func() *trace.Trace{
	"singlegpu": func() *trace.Trace {
		m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
		return singlegpu.Run(m, singlegpu.OOOXLA(), gpusim.V100()).Trace
	},
	"pipeline": func() *trace.Trace {
		m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
		r := pipepar.Run(m, pipepar.Config{
			GPUs: 4, MicroBatches: 4,
			Alloc:       core.ModuloAllocation(len(m.Layers), 4, 1),
			FastForward: true, Schedule: pipepar.GPipe,
			Link: netsim.NVLink(), Iterations: 2,
		})
		return r.Trace.Shifted()
	},
}

// runTimeline writes DIR/<run>.json, a Chrome trace (load it in
// chrome://tracing or Perfetto), and DIR/<run>.svg, a figure-quality
// timeline, for each named run. Every name is checked before anything runs.
func runTimeline(runs []string, w io.Writer, outDir string) error {
	if outDir == "" || len(runs) == 0 {
		return errors.New("usage: oooexp -o DIR timeline singlegpu|pipeline ...")
	}
	for _, run := range runs {
		if timelineRuns[run] == nil {
			return fmt.Errorf("unknown timeline run %q (want singlegpu|pipeline)", run)
		}
	}
	for _, run := range runs {
		tr := timelineRuns[run]()
		raw, err := tr.ChromeJSON()
		if err != nil {
			return err
		}
		base := filepath.Join(outDir, run)
		if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+".svg", []byte(tr.SVG(1000)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s.json and %s.svg\n", base, base)
	}
	return nil
}
