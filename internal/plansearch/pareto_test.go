package plansearch

import (
	"math/rand"
	"reflect"
	"testing"

	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
)

func TestParetoFrontierShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		sp := synthSpace(rng, 8+rng.Intn(40), []Discipline{fifoDisc(), prioDisc()}, 2)
		res := ParetoSweep(sp, Config{})
		if len(res.Frontier) == 0 {
			t.Fatal("empty frontier")
		}
		if res.Probes != len(res.Points) || len(res.Points) != 2*(len(sp.Model.Layers)+1) {
			t.Fatalf("probes %d, points %d", res.Probes, len(res.Points))
		}
		// Frontier: ascending makespan, strictly decreasing fragmented peak.
		for i := 1; i < len(res.Frontier); i++ {
			a, b := res.Frontier[i-1], res.Frontier[i]
			if b.Makespan < a.Makespan {
				t.Fatalf("frontier makespan not ascending: %v after %v", b.Makespan, a.Makespan)
			}
			if b.Mem.FragPeakBytes >= a.Mem.FragPeakBytes {
				t.Fatalf("frontier memory not strictly decreasing: %d after %d",
					b.Mem.FragPeakBytes, a.Mem.FragPeakBytes)
			}
		}
		// Endpoints: first is the global time optimum, last the memory one.
		for _, p := range res.Points {
			if p.Makespan < res.Frontier[0].Makespan {
				t.Fatalf("point %+v faster than frontier head", p)
			}
			if p.Mem.FragPeakBytes < res.Frontier[len(res.Frontier)-1].Mem.FragPeakBytes {
				t.Fatalf("point %+v leaner than frontier tail", p)
			}
		}
		// No frontier point is dominated by any other point.
		for _, f := range res.Frontier {
			for _, p := range res.Points {
				if p.Makespan < f.Makespan && p.Mem.FragPeakBytes <= f.Mem.FragPeakBytes {
					t.Fatalf("frontier point %+v dominated by %+v", f, p)
				}
			}
		}
	}
}

func TestParetoDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sp := synthSpace(rng, 48, []Discipline{fifoDisc(), prioDisc()}, 3)
	base := ParetoSweep(sp, Config{Workers: 1})
	for _, w := range []int{2, 3, 8} {
		got := ParetoSweep(sp, Config{Workers: w})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d sweep differs from serial", w)
		}
	}
	bm := MemorySearch(sp, base.Frontier[len(base.Frontier)-1].Mem.FragPeakBytes, Config{Workers: 1})
	for _, w := range []int{2, 3, 8} {
		if got := MemorySearch(sp, bm.Best.Mem.FragPeakBytes, Config{Workers: w}); !reflect.DeepEqual(bm, got) {
			t.Fatalf("workers=%d memory search differs from serial", w)
		}
	}
}

func TestMemorySearchBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sp := synthSpace(rng, 32, []Discipline{prioDisc()}, 2)
	sweep := ParetoSweep(sp, Config{})
	head := sweep.Frontier[0]
	tail := sweep.Frontier[len(sweep.Frontier)-1]

	// Unconstrained: the time optimum wins.
	free := MemorySearch(sp, 0, Config{})
	if !free.Feasible || free.Best.Makespan != head.Makespan {
		t.Fatalf("unconstrained search returned %+v, want makespan %v", free.Best, head.Makespan)
	}
	// Tightest achievable budget: exactly the memory optimum fits.
	tight := MemorySearch(sp, tail.Mem.FragPeakBytes, Config{})
	if !tight.Feasible {
		t.Fatalf("budget at the achievable minimum reported infeasible")
	}
	if tight.Best.Mem.FragPeakBytes > tail.Mem.FragPeakBytes {
		t.Fatalf("best %+v exceeds budget %d", tight.Best, tail.Mem.FragPeakBytes)
	}
	if tight.MinFragPeakBytes != tail.Mem.FragPeakBytes {
		t.Fatalf("MinFragPeakBytes %d, frontier tail %d", tight.MinFragPeakBytes, tail.Mem.FragPeakBytes)
	}
	// Impossible budget: infeasible, least-infeasible candidate returned.
	infeasible := MemorySearch(sp, tail.Mem.FragPeakBytes-1, Config{})
	if infeasible.Feasible {
		t.Fatalf("budget below the minimum reported feasible")
	}
	if infeasible.Best.Mem.FragPeakBytes != tail.Mem.FragPeakBytes {
		t.Fatalf("least-infeasible best %+v, want frag peak %d", infeasible.Best, tail.Mem.FragPeakBytes)
	}
	// The materialized schedule is legal and reproduces the replayed peak.
	s := sp.MemPointSchedule(tight.Best)
	if err := s.Validate(len(sp.Model.Layers)); err != nil {
		t.Fatal(err)
	}
	if got := MemFootprint(sp.Model, s); got != tight.Best.Mem {
		t.Fatalf("materialized schedule footprint %+v, candidate %+v", got, tight.Best.Mem)
	}
}

// TestZooMemBudget is the mem-pareto CI gate: for every zoo model, a budget
// strictly between the achievable minimum and the conventional schedule's
// fragmented peak must be honoured — the chosen schedule's BFC-replayed
// peak stays at or under budget.
func TestZooMemBudget(t *testing.T) {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 8
	method := datapar.OOOBytePS
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		sp := Space{
			Model:       m,
			Costs:       datapar.Costs(m, cl, gpus, method),
			Disciplines: []Discipline{zooDiscipline(method)},
		}
		conv := MemFootprint(m, graph.Conventional(len(m.Layers)))
		sweep := ParetoSweep(sp, Config{Workers: 4})
		minPeak := sweep.Frontier[len(sweep.Frontier)-1].Mem.FragPeakBytes

		// Midpoint budget (falls back to the minimum when the model has a
		// flat frontier).
		budget := minPeak + (conv.FragPeakBytes-minPeak)/2
		if budget < minPeak {
			budget = minPeak
		}
		res := MemorySearch(sp, budget, Config{Workers: 4})
		if !res.Feasible {
			t.Errorf("%s: budget %d (min %d, conv %d) infeasible", e.Name, budget, minPeak, conv.FragPeakBytes)
			continue
		}
		if res.Best.Mem.FragPeakBytes > budget {
			t.Errorf("%s: schedule peak %d exceeds budget %d", e.Name, res.Best.Mem.FragPeakBytes, budget)
		}
		// Defence in depth: re-replay the materialized schedule.
		if got := MemFootprint(m, sp.MemPointSchedule(res.Best)); got.FragPeakBytes > budget {
			t.Errorf("%s: re-replayed peak %d exceeds budget %d", e.Name, got.FragPeakBytes, budget)
		}
		t.Logf("%-16s min %11d  budget %11d  chosen k=%3d memsched=%-5v peak %11d  makespan %v",
			e.Name, minPeak, budget, res.Best.K, res.Best.MemSched, res.Best.Mem.FragPeakBytes, res.Best.Makespan)
	}
}

// TestZooTimeNotSlower is the other half of the mem-pareto gate: the time
// end of the frontier must never be slower than the existing exhaustive
// reverse-first-k planner on the same space.
func TestZooTimeNotSlower(t *testing.T) {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 8
	method := datapar.OOOBytePS
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		sp := Space{
			Model:       m,
			Costs:       datapar.Costs(m, cl, gpus, method),
			Disciplines: []Discipline{zooDiscipline(method)},
		}
		exact := Search(sp, Exact, Config{})
		sweep := ParetoSweep(sp, Config{Workers: 4})
		if sweep.Frontier[0].Makespan > exact.Best.Makespan {
			t.Errorf("%s: frontier head %v slower than exhaustive best %v",
				e.Name, sweep.Frontier[0].Makespan, exact.Best.Makespan)
		}
	}
}
