// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated substrates. Each experiment is a named
// function returning a printable report; cmd/oooexp runs them by id and the
// root bench_test.go wraps them in testing.B benchmarks.
//
// Absolute numbers are synthetic (the substrate is a simulator, not the
// authors' testbed); EXPERIMENTS.md records the paper-vs-measured comparison
// for every experiment.
package experiments

import (
	"sort"

	"oooback/internal/parexec"
)

// Experiment is one reproducible evaluation artifact.
type Experiment struct {
	// ID is the lookup key ("fig7", "fig13a", ...).
	ID string
	// Title summarizes what the paper item shows.
	Title string
	// Run produces the report.
	Run func() string
}

var registry = map[string]Experiment{}

func register(id, title string, run func() string) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunNamedParallel runs the given experiment ids on up to `workers`
// goroutines and returns the reports in the ids' order (without headers).
// Unknown ids yield empty strings; callers validate ids up front.
func RunNamedParallel(ids []string, workers int) []string {
	return parexec.Map(len(ids), workers, func(i int) string {
		e, ok := registry[ids[i]]
		if !ok {
			return ""
		}
		return e.Run()
	})
}
