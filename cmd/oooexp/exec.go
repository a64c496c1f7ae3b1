package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"oooback/internal/graph"
	"oooback/internal/microbench"
	"oooback/internal/nn"
	"oooback/internal/trace"
	"oooback/internal/train"
)

const execRepeats = 20

// runExec compares the serial and concurrent backward engines on real
// networks under conventional and reverse-first-k schedules: walltime per
// pass, PeakLiveGrads, and a bit-identity check of every engine×schedule
// combination against the serial conventional gradients. With -o, one
// Chrome-format trace per combination is written to DIR (load in Perfetto),
// plus per net one step of the 2-stage pipeline and of the 2-replica
// data-parallel engine — all recorded through train.TraceObserver.
//
// Unlike the experiments registry (whose reports must be byte-deterministic),
// this measures real wall-clock execution, so it lives in its own subcommand.
func runExec(nets []microbench.RefNet, w io.Writer, outDir string) error {
	fmt.Fprintf(w, "real backward execution: serial vs concurrent engine (GOMAXPROCS=%d)\n\n", runtime.GOMAXPROCS(0))
	conc := train.NewExecutor(train.ExecConcurrent, 0)
	defer conc.Close()
	serial := train.NewExecutor(train.ExecSerial, 0)

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "net\tschedule\tengine\tpeak grads\tms/pass\tgrads vs serial-conv")
	for _, rn := range nets {
		net := rn.Build()
		L := len(net.Layers)
		logits := net.Forward(rn.X)
		_, lossGrad := nn.SoftmaxCrossEntropy(logits, rn.Labels)

		net.ZeroGrads()
		if _, err := net.Backward(lossGrad, graph.Conventional(L)); err != nil {
			return err
		}
		ref := train.GradSnapshot(net)

		schedules := []struct {
			name  string
			sched graph.BackwardSchedule
		}{
			{"conventional", graph.Conventional(L)},
			{fmt.Sprintf("reverse-first-%d", L), graph.ReverseFirstK(L, L)},
		}
		for _, sc := range schedules {
			for _, eng := range []*train.Executor{serial, conc} {
				net.ZeroGrads()
				st, err := eng.Backward(net, lossGrad, sc.sched) // warm engine state
				if err != nil {
					return err
				}
				match := "ok"
				if !train.SnapshotsEqual(ref, train.GradSnapshot(net)) {
					match = "DIFFER"
				}
				start := time.Now()
				for r := 0; r < execRepeats; r++ {
					if _, err := eng.Backward(net, lossGrad, sc.sched); err != nil {
						return err
					}
				}
				ms := float64(time.Since(start).Microseconds()) / 1000 / execRepeats
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.3f\t%s\n",
					rn.Name, sc.name, eng.Mode(), st.PeakLiveGrads, ms, match)
				if match == "DIFFER" {
					tw.Flush()
					return fmt.Errorf("oooexp exec: %s/%s/%s gradients differ from serial conventional",
						rn.Name, sc.name, eng.Mode())
				}
				if outDir != "" {
					name := fmt.Sprintf("exec-%s-%s-%s.trace.json", rn.Name, sc.name, eng.Mode())
					if err := writeTrace(filepath.Join(outDir, name), eng.Observe, func() error {
						_, err := eng.Backward(net, lossGrad, sc.sched)
						return err
					}); err != nil {
						return err
					}
				}
			}
		}
		if outDir != "" {
			if err := traceParallelEngines(rn, filepath.Join(outDir, "exec-"+rn.Name)); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d timed passes per row; single-core hosts show parity (the δW pool\n", execRepeats)
	fmt.Fprintln(w, "timeshares the one processor) — the concurrent engine wins only with")
	fmt.Fprintln(w, "GOMAXPROCS ≥ 2 of real hardware parallelism underneath.")
	return nil
}

// writeTrace runs pass with a fresh trace attached through observe and writes
// it to path in Chrome format.
func writeTrace(path string, observe func(train.Observer), pass func() error) error {
	var tr trace.Trace
	observe(train.TraceObserver(&tr))
	defer observe(nil)
	if err := pass(); err != nil {
		return err
	}
	buf, err := tr.ChromeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// traceParallelEngines writes prefix-pipeline.trace.json and
// prefix-dp2.trace.json: one step of a 2-stage, 4-microbatch 1F1B pipeline
// and of a 2-replica data-parallel engine on the net.
func traceParallelEngines(rn microbench.RefNet, prefix string) error {
	pipe, err := train.NewPipeline(rn.Build(), &nn.SGD{LR: 0.05}, train.PipelineConfig{
		Stages: 2, MicroBatches: 4, Schedule: train.Pipe1F1B, Build: rn.Build,
	})
	if err != nil {
		return err
	}
	defer pipe.Close()
	dp, err := train.NewDataParallel(rn.Build(), &nn.SGD{LR: 0.05}, train.DataParallelConfig{
		Replicas: 2, Build: rn.Build, Sync: train.SyncLayerPriority,
	})
	if err != nil {
		return err
	}
	defer dp.Close()
	if err := writeTrace(prefix+"-pipeline.trace.json", pipe.Observe, func() error {
		_, _, err := pipe.Step(rn.X, rn.Labels)
		return err
	}); err != nil {
		return err
	}
	return writeTrace(prefix+"-dp2.trace.json", dp.Observe, func() error {
		_, _, err := dp.Step(rn.X, rn.Labels)
		return err
	})
}
