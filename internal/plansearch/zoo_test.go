package plansearch

import (
	"testing"

	"oooback/internal/datapar"
	"oooback/internal/models"
)

// zooDiscipline is a datapar method's channel as a search discipline.
func zooDiscipline(method datapar.Method) Discipline {
	prio, preemptive := method.Channel()
	return Discipline{Name: method.String(), Prio: prio, Preemptive: preemptive}
}

// TestZooGuidedOptimality is the CI gate of this package: across the whole
// committed model zoo, the guided search must return the exhaustive-sweep
// optimum (equality, not just the 1% contract) while issuing at least 3×
// fewer exact simulator probes in aggregate.
func TestZooGuidedOptimality(t *testing.T) {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 16
	methods := []datapar.Method{datapar.OOOBytePS, datapar.OOOHorovod}

	totalExact, totalGuided := 0, 0
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		for _, method := range methods {
			costs := datapar.Costs(m, cl, gpus, method)
			sp := Space{
				Model:       m,
				Costs:       costs,
				Disciplines: []Discipline{zooDiscipline(method)},
			}
			exact := Search(sp, Exact, Config{})
			guided := Search(sp, Guided, Config{})

			gap := 0.0
			if exact.Best.Makespan > 0 {
				gap = float64(guided.Best.Makespan-exact.Best.Makespan) / float64(exact.Best.Makespan)
			}
			t.Logf("%-16s %-12s L=%3d  exact k=%3d %v (%d probes)  guided k=%3d %v (%d probes, %.1f× saved, corr %.2f, proven %v)  gap %.3f%%",
				e.Name, method, m.NumLayers(),
				exact.Best.K, exact.Best.Makespan, exact.Probes,
				guided.Best.K, guided.Best.Makespan, guided.Probes,
				float64(exact.Probes)/float64(guided.Probes), guided.RankCorrelation, guided.CutoffProven, gap*100)

			if guided.Best != exact.Best {
				t.Errorf("%s/%s: guided best %+v != exhaustive best %+v", e.Name, method, guided.Best, exact.Best)
			}
			totalExact += exact.Probes
			totalGuided += guided.Probes
		}
	}
	ratio := float64(totalExact) / float64(totalGuided)
	t.Logf("zoo total: exhaustive %d probes, guided %d probes, %.2f× reduction", totalExact, totalGuided, ratio)
	if ratio < 3 {
		t.Fatalf("guided search saved only %.2f× probes across the zoo, gate requires ≥ 3×", ratio)
	}
}
