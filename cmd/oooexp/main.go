// Command oooexp regenerates the paper's tables and figures on the simulated
// substrates, benchmarks and calibrates the real training engines, and
// exports timelines of both.
//
// Usage:
//
//	oooexp list                    list available experiment ids
//	oooexp all                     run every experiment
//	oooexp <id> [...]              run specific experiments (fig1 … fig13b,
//	                               mem-single, disc-datapar, semantics,
//	                               search, pareto, …)
//	oooexp -o DIR all              additionally write each report to DIR/<id>.txt
//	oooexp -parallel N all         fan the experiments over N goroutines; the
//	                               output (and any -o files) is byte-identical
//	                               to the serial run
//	oooexp bench                   run the perf micro-benchmarks and emit
//	                               machine-readable JSON (ns/op, allocs/op);
//	                               with -o DIR, also write DIR/BENCH_BASELINE.json
//	oooexp calib                   profile the real networks, fit a cost table,
//	                               validate simulated-vs-measured iteration
//	                               time, and print a what-if estimation table;
//	                               with -o DIR, write DIR/profile.json
//	oooexp -o DIR timeline RUN...  write DIR/<run>.json (Chrome trace) and
//	                               DIR/<run>.svg for each run: the simulated
//	                               singlegpu or pipeline, or one traced step
//	                               of a real engine on the MLP reference net,
//	                               train-ooo, train-pipe2x4 or train-dp2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"oooback/internal/experiments"
	"oooback/internal/microbench"
	"oooback/internal/parexec"
)

func main() {
	outDir := flag.String("o", "", "also write each report to this directory as <id>.txt")
	parallel := flag.Int("parallel", 1, "run experiments on this many goroutines (0 = GOMAXPROCS; identical output, deterministic)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	workers := *parallel
	if workers <= 0 {
		workers = parexec.Default()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "oooexp: %v\n", err)
			os.Exit(1)
		}
	}

	switch args[0] {
	case "list":
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
	case "bench":
		if err := runBench(microbench.Rows(), os.Stdout, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "oooexp: %v\n", err)
			os.Exit(1)
		}
	case "calib":
		if err := runCalib(*outDir); err != nil {
			fmt.Fprintf(os.Stderr, "oooexp: %v\n", err)
			os.Exit(1)
		}
	case "timeline":
		if err := runTimeline(args[1:], os.Stdout, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "oooexp: %v\n", err)
			os.Exit(1)
		}
	case "all":
		runIDs(experiments.IDs(), workers, *outDir)
	default:
		ids := args
		status := 0
		valid := ids[:0:0]
		for _, id := range ids {
			if _, ok := experiments.Get(id); !ok {
				fmt.Fprintf(os.Stderr, "oooexp: unknown experiment %q (try 'oooexp list')\n", id)
				status = 1
				continue
			}
			valid = append(valid, id)
		}
		runIDs(valid, workers, *outDir)
		os.Exit(status)
	}
}

// runIDs evaluates the experiments (in parallel when workers > 1 — the
// reports come back in submission order, so stdout and the -o files are
// byte-identical to a serial run), prints each report, and writes the
// per-experiment files when outDir is set. Any write failure exits non-zero
// after all reports printed.
func runIDs(ids []string, workers int, outDir string) {
	reports := experiments.RunNamedParallel(ids, workers)
	writeFailed := false
	for i, id := range ids {
		e, _ := experiments.Get(id)
		fmt.Printf("==== %s: %s ====\n%s\n", e.ID, e.Title, reports[i])
		if outDir != "" {
			path := filepath.Join(outDir, id+".txt")
			if err := os.WriteFile(path, []byte(reports[i]), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "oooexp: %v\n", err)
				writeFailed = true
			}
		}
	}
	if writeFailed {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: oooexp [-o dir] [-parallel n] list | all | bench | calib | timeline <run>... | <experiment-id>...")
}
