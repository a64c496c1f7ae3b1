package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"oooback/internal/core"
	"oooback/internal/gpusim"
	"oooback/internal/graph"
	"oooback/internal/microbench"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/nn"
	"oooback/internal/pipepar"
	"oooback/internal/singlegpu"
	"oooback/internal/trace"
	"oooback/internal/train"
)

// timelineRuns builds the trace of each run `oooexp timeline` exports. The
// simulated runs are DenseNet-121 under OOO-XLA on one V100, and the last
// iteration of a 4-GPU, 4-microbatch GPipe pipeline of BERT-24 with modulo
// allocation. The train-* runs are one traced step of a real engine on the
// MLP reference net, after one untraced warm-up step: the concurrent executor
// under reverse first-L, a 2-stage 4-microbatch 1F1B pipeline, and 2
// data-parallel replicas with layer-priority sync.
var timelineRuns = map[string]func() (*trace.Trace, error){
	"singlegpu": func() (*trace.Trace, error) {
		m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
		return singlegpu.Run(m, singlegpu.OOOXLA(), gpusim.V100()).Trace, nil
	},
	"pipeline": func() (*trace.Trace, error) {
		m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
		r := pipepar.Run(m, pipepar.Config{
			GPUs: 4, MicroBatches: 4,
			Alloc:       core.ModuloAllocation(len(m.Layers), 4, 1),
			FastForward: true, Schedule: pipepar.GPipe,
			Link: netsim.NVLink(), Iterations: 2,
		})
		return r.Trace.Shifted(), nil
	},
	"train-ooo": func() (*trace.Trace, error) {
		rn := microbench.MLP()
		net := rn.Build()
		ex := train.NewExecutor(train.ExecConcurrent, 0)
		defer ex.Close()
		L := len(net.Layers)
		return traceStep(ex.Observe, func() error {
			_, err := ex.Step(net, rn.X, rn.Labels, graph.ReverseFirstK(L, L), &nn.SGD{LR: 0.05})
			return err
		})
	},
	"train-pipe2x4": func() (*trace.Trace, error) {
		rn := microbench.MLP()
		pipe, err := train.NewPipeline(rn.Build(), &nn.SGD{LR: 0.05}, train.PipelineConfig{
			Stages: 2, MicroBatches: 4, Schedule: train.Pipe1F1B, Build: rn.Build,
		})
		if err != nil {
			return nil, err
		}
		defer pipe.Close()
		return traceStep(pipe.Observe, func() error {
			_, _, err := pipe.Step(rn.X, rn.Labels)
			return err
		})
	},
	"train-dp2": func() (*trace.Trace, error) {
		rn := microbench.MLP()
		dp, err := train.NewDataParallel(rn.Build(), &nn.SGD{LR: 0.05}, train.DataParallelConfig{
			Replicas: 2, Build: rn.Build, Sync: train.SyncLayerPriority,
		})
		if err != nil {
			return nil, err
		}
		defer dp.Close()
		return traceStep(dp.Observe, func() error {
			_, _, err := dp.Step(rn.X, rn.Labels)
			return err
		})
	},
}

// traceStep runs step once to warm the engine, then once more with a trace
// attached through observe, and returns that trace.
func traceStep(observe func(train.Observer), step func() error) (*trace.Trace, error) {
	if err := step(); err != nil {
		return nil, err
	}
	tr := new(trace.Trace)
	observe(train.TraceObserver(tr))
	if err := step(); err != nil {
		return nil, err
	}
	return tr, nil
}

// runTimeline writes DIR/<run>.json, a Chrome trace (load it in
// chrome://tracing or Perfetto), and DIR/<run>.svg, a figure-quality
// timeline, for each named run. Every name is checked before anything runs.
func runTimeline(runs []string, w io.Writer, outDir string) error {
	var names []string
	for name := range timelineRuns {
		names = append(names, name)
	}
	slices.Sort(names)
	want := strings.Join(names, "|")
	if outDir == "" || len(runs) == 0 {
		return errors.New("usage: oooexp -o DIR timeline " + want + " ...")
	}
	for _, run := range runs {
		if timelineRuns[run] == nil {
			return fmt.Errorf("unknown timeline run %q (want %s)", run, want)
		}
	}
	for _, run := range runs {
		tr, err := timelineRuns[run]()
		if err != nil {
			return fmt.Errorf("timeline %s: %w", run, err)
		}
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
