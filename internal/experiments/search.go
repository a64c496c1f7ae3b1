package experiments

import (
	"fmt"
	"strings"
	"time"

	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/plansearch"
)

func init() {
	register("search", "planner: guided schedule search vs the exhaustive sweep across the model zoo", GuidedSearch)
	register("pareto", "planner: throughput × BFC-replayed peak-memory frontier per zoo model", Pareto)
}

// searchDiscipline is a datapar method's channel as a search discipline.
func searchDiscipline(method datapar.Method) plansearch.Discipline {
	prio, preemptive := method.Channel()
	return plansearch.Discipline{Name: method.String(), Prio: prio, Preemptive: preemptive}
}

// GuidedSearch reports guided-vs-exhaustive schedule search across the model
// zoo: per model×method the exact sweep's probe count, the guided search's
// probe count and optimality gap, the predictor's rank correlation, whether
// the admissible bound certified the optimum, and the robust mode's pick with
// its worst-case regret under the default cost perturbations.
func GuidedSearch() string {
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
	return sb.String()
}

// Pareto reports the joint throughput×peak-memory frontier for every zoo
// model: per model the conventional order's replayed footprint, then each
// frontier point's schedule (k or the memory list schedule), simulated
// iteration time and BFC-replayed fragmented peak.
func Pareto() string {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 8
	method := datapar.OOOBytePS

	var sb strings.Builder
	fmt.Fprintf(&sb, "Throughput × peak-memory Pareto frontier (zoo, pub-a, %d GPUs, %s)\n\n", gpus, method)
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		sp := plansearch.Space{
			Model:       m,
			Costs:       datapar.Costs(m, cl, gpus, method),
			Disciplines: []plansearch.Discipline{searchDiscipline(method)},
		}
		conv := plansearch.MemFootprint(m, graph.Conventional(len(m.Layers)))
		res := plansearch.ParetoSweep(sp, plansearch.Config{})
		head := res.Frontier[0]
		tail := res.Frontier[len(res.Frontier)-1]
		fmt.Fprintf(&sb, "%s (L=%d, %d candidates, conventional peak %s)\n",
			e.Name, m.NumLayers(), res.Probes, mib(conv.FragPeakBytes))
		fmt.Fprintf(&sb, "  %-10s %12s %12s %10s\n", "schedule", "iter-time", "frag-peak", "frag-ratio")
		for _, p := range res.Frontier {
			name := fmt.Sprintf("k=%d", p.K)
			if p.MemSched {
				name = "mem-list"
			}
			fmt.Fprintf(&sb, "  %-10s %12s %12s %10.3f\n",
				name, p.Makespan.Round(time.Microsecond), mib(p.Mem.FragPeakBytes), p.Mem.FragRatio)
		}
		fmt.Fprintf(&sb, "  span: %.2fx time for %.2fx memory\n\n",
			float64(tail.Makespan)/float64(head.Makespan),
			float64(head.Mem.FragPeakBytes)/float64(tail.Mem.FragPeakBytes))
	}
	fmt.Fprintf(&sb, "frontier: ascending iteration time, strictly decreasing BFC-replayed peak;\n")
	fmt.Fprintf(&sb, "first point = time optimum, last = memory optimum (the LESCEA list schedule\n")
	fmt.Fprintf(&sb, "anchors the low-memory end when reverse-first-k cannot reach it).\n")
	return sb.String()
}

// mib renders a byte count as MiB with two decimals.
func mib(b int64) string {
	return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
}
