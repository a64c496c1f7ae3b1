// Command benchmark is the repository's one benchmark: five workloads over
// the two end-to-end paths (a plan request, a training step), each checked
// for correct output, each measured end to end with tracing off and layer by
// layer in a separate traced pass. BENCHMARK.json at the repository root is
// its contract; README.md in this directory explains every number.
//
//	benchmark -workload plan_cold_time -seed 1 -seconds 10 -trace 0
//	benchmark                      # every workload, both passes, a table
//	benchmark -repeat 10           # the repeatability check behind the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	value float64
	unit  string
}

// outcome is the result of one run of one workload in one pass.
type outcome struct {
	attempted int
	failed    int
	// problems lists every reason the run is not correct; empty means the
	// program's outputs passed every check.
	problems []string
	metrics  map[string]metric
	// info carries what is worth printing but is not a metric: digests,
	// sample counts, file names.
	info map[string]string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(key, format string, args ...any) {
	if o.info == nil {
		o.info = map[string]string{}
	}
	o.info[key] = fmt.Sprintf(format, args...)
}

// options are the inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	clients  int
	// rounds is how many times an untraced run sets up, measures and tears
	// down (see defaultRounds).
	rounds int
}

// workload names one benchmark workload and the function that runs it.
type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"plan_cold_time", func(o options) (*outcome, error) { return runPlan(coldTime, o) }},
	{"plan_cold_memory", func(o options) (*outcome, error) { return runPlan(coldMemory, o) }},
	{"plan_warm_tier", func(o options) (*outcome, error) { return runPlan(warmTier, o) }},
	{"train_small", func(o options) (*outcome, error) { return runTrain(trainSmall, o) }},
	{"train_conv", func(o options) (*outcome, error) { return runTrain(trainConv, o) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// closedLoopClients is the load shape of the plan workloads: min(nproc, 4)
// blocking clients.
func closedLoopClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as one JSON line (default: run all)")
		seed    = flag.Uint64("seed", 1, "input seed: equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase of each run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		repeat  = flag.Int("repeat", 0, "run every workload N times on N seeds and check each metric's spread against its bound in ./BENCHMARK.json")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files and results.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, clients: closedLoopClients(), rounds: defaultRounds}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}

	var err error
	switch {
	case *repeat > 0:
		err = runRepeat(*repeat, opts)
	case *name != "":
		err = runOne(*name, opts)
	default:
		err = runAll(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in a single pass and prints the result line
// the driver reads: the last line of standard output.
func runOne(name string, opts options) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	opts.workload = name
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g trace=%v %s nproc=%d GOMAXPROCS=%d clients=%d\n",
		name, opts.seed, opts.seconds, opts.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), opts.clients)
	out, err := w.run(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "%s: INCORRECT: %s\n", name, p)
	}
	for _, k := range sortedKeys(out.info) {
		fmt.Fprintf(os.Stderr, "%s: %s = %s\n", name, k, out.info[k])
	}
	res, err := result(out, opts.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("%s: encode result: %w", name, err)
	}
	fmt.Println(string(line))
	return nil
}

// resultJSON is the shape of the result line: the last line of standard
// output of a single-workload run.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders an outcome with exactly the metric set of its pass: a
// per-layer metric the workload never touches reads 0, an end-to-end metric
// it failed to produce makes the run incorrect.
func result(out *outcome, traced bool) (resultJSON, error) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	res := resultJSON{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	for _, def := range defs {
		m, ok := out.metrics[def.name]
		switch {
		case !ok && !traced:
			out.fail("end-to-end metric %s was not measured", def.name)
		case ok && m.unit != def.unit:
			return res, fmt.Errorf("metric %s reported in %q, declared in %q", def.name, m.unit, def.unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			out.fail("metric %s is not finite", def.name)
			m.value = 0
		}
		res.Metrics[def.name] = metricJSON{Value: m.value, Unit: def.unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not declared for this pass", name)
		}
	}
	res.Correct = len(out.problems) == 0 && out.failed == 0 && out.attempted > 0
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
