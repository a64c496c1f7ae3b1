package main

import (
	"fmt"
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
// Chrome-format trace per combination is written to DIR (load in Perfetto).
//
// Unlike the experiments registry (whose reports must be byte-deterministic),
// this measures real wall-clock execution, so it lives in its own subcommand.
func runExec(outDir string) error {
	fmt.Printf("real backward execution: serial vs concurrent engine (GOMAXPROCS=%d)\n\n", runtime.GOMAXPROCS(0))
	conc := train.NewExecutor(train.ExecConcurrent, 0)
	defer conc.Close()
	serial := train.NewExecutor(train.ExecSerial, 0)

	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "net\tschedule\tengine\tpeak grads\tms/pass\tgrads vs serial-conv")
	for _, rn := range microbench.RefNets() {
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
					var tr trace.Trace
					eng.SetTrace(&tr)
					_, err := eng.Backward(net, lossGrad, sc.sched)
					eng.SetTrace(nil)
					if err != nil {
						return err
					}
					buf, err := tr.ChromeJSON()
					if err != nil {
						return err
					}
					name := fmt.Sprintf("exec-%s-%s-%s.trace.json", rn.Name, sc.name, eng.Mode())
					if err := os.WriteFile(filepath.Join(outDir, name), buf, 0o644); err != nil {
						return err
					}
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d timed passes per row; single-core hosts show parity (the δW pool\n", execRepeats)
	fmt.Println("timeshares the one processor) — the concurrent engine wins only with")
	fmt.Println("GOMAXPROCS ≥ 2 of real hardware parallelism underneath.")
	return nil
}
