package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"oooback/internal/datapar"
	"oooback/internal/models"
	"oooback/internal/plansearch"
)

// searchDiscipline is a datapar method's channel as a search discipline.
func searchDiscipline(method datapar.Method) plansearch.Discipline {
	prio, preemptive := method.Channel()
	return plansearch.Discipline{Name: method.String(), Prio: prio, Preemptive: preemptive}
}

// runSearch prints the guided-vs-exhaustive schedule-search report across the
// model zoo: per model×method the exact sweep's probe count, the guided
// search's probe count and optimality gap, the predictor's rank correlation,
// whether the admissible bound certified the optimum, and the robust mode's
// pick with its worst-case regret under the default cost perturbations. With
// -o DIR the report is also written to DIR/search.txt.
func runSearch(w io.Writer, outDir string) error {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 16
	methods := []datapar.Method{datapar.OOOBytePS, datapar.OOOHorovod}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Guided schedule search vs exhaustive sweep (zoo, %s, %d GPUs)\n\n", "pub-a", gpus)
	fmt.Fprintf(&sb, "%-16s %-12s %4s  %6s %6s %7s  %6s %5s %7s  %9s %10s\n",
		"model", "method", "L", "exact", "guided", "saved", "gap%", "corr", "proven", "robust-k", "regret%")

	totalExact, totalGuided := 0, 0
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		for _, method := range methods {
			sp := plansearch.Space{
				Model:       m,
				Costs:       datapar.Costs(m, cl, gpus, method),
				Disciplines: []plansearch.Discipline{searchDiscipline(method)},
			}
			exact := plansearch.Search(sp, plansearch.Exact, plansearch.Config{})
			guided := plansearch.Search(sp, plansearch.Guided, plansearch.Config{})
			robust := plansearch.Search(sp, plansearch.Robust, plansearch.Config{})

			gap := 0.0
			if exact.Best.Makespan > 0 {
				gap = 100 * float64(guided.Best.Makespan-exact.Best.Makespan) / float64(exact.Best.Makespan)
			}
			fmt.Fprintf(&sb, "%-16s %-12s %4d  %6d %6d %6.1fx  %6.3f %5.2f %7v  %9d %10.2f\n",
				e.Name, method, m.NumLayers(),
				exact.Probes, guided.Probes, float64(exact.Probes)/float64(guided.Probes),
				gap, guided.RankCorrelation, guided.CutoffProven,
				robust.Best.K, 100*robust.WorstRegret)
			totalExact += exact.Probes
			totalGuided += guided.Probes
		}
	}
	fmt.Fprintf(&sb, "\n%-16s %-12s %4s  %6d %6d %6.1fx\n",
		"TOTAL", "", "", totalExact, totalGuided, float64(totalExact)/float64(totalGuided))
	fmt.Fprintf(&sb, "\nguided = predictor-ranked probing with admissible-bound cutoff; gap%% is vs the\n")
	fmt.Fprintf(&sb, "exhaustive optimum (0 = identical schedule). robust-k re-scores the top\n")
	fmt.Fprintf(&sb, "candidates under dW/bandwidth perturbations and picks the min worst-regret one.\n")

	report := sb.String()
	if _, err := io.WriteString(w, report); err != nil {
		return err
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "search.txt"), []byte(report), 0o644); err != nil {
			return err
		}
	}
	return nil
}
