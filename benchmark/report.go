package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runAll runs every workload in both passes, prints every metric by name
// with its unit, and writes the same numbers to results.json in the output
// directory. It fails when any workload's outputs were not correct.
func runAll(opts options) error {
	type workloadReport struct {
		Name      string                `json:"name"`
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		EndToEnd  map[string]metricJSON `json:"end_to_end"`
		PerLayer  map[string]metricJSON `json:"per_layer"`
		Info      map[string]string     `json:"info,omitempty"`
		Problems  []string              `json:"problems,omitempty"`
	}
	report := struct {
		Go         string           `json:"go"`
		NProc      int              `json:"nproc"`
		GOMAXPROCS int              `json:"gomaxprocs"`
		Clients    int              `json:"clients"`
		Seed       uint64           `json:"seed"`
		Seconds    float64          `json:"seconds"`
		Workloads  []workloadReport `json:"workloads"`
	}{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), opts.clients, opts.seed, opts.seconds, nil}
	fmt.Printf("%s nproc=%d GOMAXPROCS=%d clients=%d seed=%d seconds=%g\n",
		report.Go, report.NProc, report.GOMAXPROCS, report.Clients, report.Seed, report.Seconds)

	incorrect := 0
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Correct: true, Info: map[string]string{}}
		for _, traced := range []bool{false, true} {
			o := opts
			o.workload, o.trace = w.name, traced
			out, err := w.run(o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res, err := result(out, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			pass, defs := "end-to-end (tracing off)", endToEndMetrics
			if traced {
				pass, defs = "per-layer (traced pass)", perLayerMetrics
				wr.PerLayer = res.Metrics
			} else {
				wr.EndToEnd = res.Metrics
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Problems = append(wr.Problems, out.problems...)
			fmt.Printf("\n%s  %s  attempted=%d failed=%d correct=%v\n", w.name, pass, res.Attempted, res.Failed, res.Correct)
			for _, p := range out.problems {
				fmt.Printf("  INCORRECT: %s\n", p)
			}
			for _, def := range defs {
				if m := res.Metrics[def.name]; !traced || m.Value != 0 {
					fmt.Printf("  %-36s %14.6g %s\n", def.name, m.Value, def.unit)
				}
			}
			for _, k := range sortedKeys(out.info) {
				wr.Info[k] = out.info[k]
				fmt.Printf("  %s: %s\n", k, out.info[k])
			}
		}
		if !wr.Correct {
			incorrect++
		}
		report.Workloads = append(report.Workloads, wr)
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	path := filepath.Join(opts.outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	fmt.Printf("\nresults written to %s\n", path)
	if incorrect > 0 {
		return fmt.Errorf("%d of %d workloads produced incorrect output", incorrect, len(workloads))
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runRepeat is the tool behind the repeatability criterion. It runs the
// untraced pass of every workload n times, each time on another seed and in
// a process of its own (as the driver does), and prints per (end-to-end
// metric, workload) the values, their spread — the distance between the
// first and third quartile as a share of the median — and the metric's
// bound. It fails when a spread exceeds its bound; setup_s is printed but
// exempt, as in the acceptance rule.
func runRepeat(n int, opts options) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to have a spread")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read the bounds: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate the benchmark binary: %w", err)
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for r := 0; r < n; r++ {
		for _, w := range workloads {
			seed := opts.seed + uint64(r)
			res, err := runChild(self, w.name, seed, opts.seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect output (%d of %d operations failed)", w.name, seed, res.Failed, res.Attempted)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s seed=%d done\n", r+1, n, w.name, seed)
		}
	}

	exceeded := 0
	fmt.Printf("%-18s %-16s %12s %9s %7s  values\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		for _, def := range spec.EndToEnd {
			v := values[w.name][def.Name]
			s := spread(v)
			verdict := ""
			switch {
			case def.Name == "setup_s":
				verdict = " (exempt)"
			case s > def.Bound:
				verdict = " EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-18s %-16s %12.6g %8.2f%% %6.1f%%%s  %s\n", w.name, def.Name, median(v), 100*s, 100*def.Bound, verdict, formatValues(v))
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (metric, workload) pairs spread wider than their bound", exceeded)
	}
	return nil
}

// runChild runs one workload in a child process and parses its result line.
func runChild(self, workload string, seed uint64, seconds float64) (*resultJSON, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, nil
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	last := ""
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}

func formatValues(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}
