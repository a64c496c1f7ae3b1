package plansearch

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"oooback/internal/core"
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

// TestZooMemorySearchBoundOrdered is the mem-pareto gate of the bound-ordered
// memory search. On every zoo model under every GPU profile the service
// plans for, with each datapar method's costs and its channel discipline
// alone (D = 1) and beside the next method's (D = 2), at the tightest, mid
// and loosest budgets, one byte below the tightest (infeasible) and none
// (≤ 0), MemorySearch returns the exhaustive scan's Best, Feasible and
// MinFragPeakBytes, and never probes more than it.
func TestZooMemorySearchBoundOrdered(t *testing.T) {
	methods := []datapar.Method{datapar.WFBP, datapar.Horovod, datapar.P3, datapar.BytePS, datapar.OOOBytePS, datapar.OOOHorovod}
	var sc core.IterScratch
	probes, exhaustive, infeasible := 0, 0, 0
	for _, profile := range []models.GPUProfile{models.V100Profile(), models.TitanXPProfile(), models.P100Profile()} {
		for _, e := range models.Zoo() {
			m := e.Build(profile)
			L := len(m.Layers)
			scheds := refSchedules(m)
			tab := NewMemTable(m)
			lo, hi := tab.Footprint(0).FragPeakBytes, tab.Footprint(0).FragPeakBytes
			for k := range scheds {
				lo, hi = min(lo, tab.Footprint(k).FragPeakBytes), max(hi, tab.Footprint(k).FragPeakBytes)
			}
			budgets := []int64{lo, lo + (hi-lo)/2, hi, lo - 1, 0, -1}
			for i, method := range methods {
				sp := Space{
					Model: m,
					Costs: datapar.Costs(m, datapar.PubA(), 8, method),
					Disciplines: []Discipline{
						zooDiscipline(method),
						zooDiscipline(methods[(i+1)%len(methods)]),
					},
					Mem: tab,
				}
				// Every candidate of the D = 2 space in id order; the D = 1
				// space's are its first L+1.
				var pts []MemPoint
				for d, disc := range sp.Disciplines {
					for k, s := range scheds {
						p := MemPoint{K: k, Discipline: d, Mem: tab.Footprint(k),
							Makespan: sc.SimulateIteration(sp.Costs, s, disc.Prio, disc.Preemptive).Makespan}
						if k == L {
							p.K, p.MemSched = -1, true
						}
						pts = append(pts, p)
					}
				}
				for D := 1; D <= 2; D++ {
					sub := sp
					sub.Disciplines = sp.Disciplines[:D]
					for _, budget := range budgets {
						got, want := MemorySearch(sub, budget, Config{}), scanMemorySearch(pts[:D*(L+1)], budget)
						if !sameMemResult(got, want) {
							t.Fatalf("%s on %s, %s D=%d, budget %d:\n got %+v\nwant %+v",
								e.Name, profile.Name, method, D, budget, got, want)
						}
						probes, exhaustive = probes+got.Probes, exhaustive+want.Probes
						if !got.Feasible {
							infeasible++
							if got.Probes != 1 {
								t.Fatalf("%s on %s, %s D=%d: an infeasible budget took %d probes, want 1",
									e.Name, profile.Name, method, D, got.Probes)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d probes where the exhaustive scan issues %d (%.1f%%); %d infeasible searches",
		probes, exhaustive, 100*float64(probes)/float64(exhaustive), infeasible)
}

// TestMemorySearchTieLowestID: in this space every candidate runs 15 µs, so
// the answer is the lowest id, depth 0 under discipline 0. Its bound is
// 15 µs, but the list schedule's (13 µs) and depth 2's (14 µs) are lower
// under both disciplines, so the first batch holds those four and keeps
// depth 2. Depth 0 ties that makespan; its bound is not above it, so it is
// simulated in the next batch and wins on id.
func TestMemorySearchTieLowestID(t *testing.T) {
	us := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Microsecond
		}
		return out
	}
	c := core.IterCosts{F: us(2, 1, 2), DO: us(0, 1, 2), DW: us(1, 2, 2), SyncW: us(2, 4, 0)}
	sp := Space{Model: synthModel(3, c.F, c.DO, c.DW), Costs: c, Disciplines: []Discipline{prioDisc(), prioDisc()}}
	if kb := computeBounds(c); !slices.Equal(kb.lb, us(15, 15, 14, 13)) {
		t.Fatalf("bounds %v: the case no longer orders depth 0 after a full batch", kb.lb)
	}
	for _, p := range refPoints(sp) {
		if p.Makespan != 15*time.Microsecond {
			t.Fatalf("candidate %+v does not tie", p)
		}
	}
	got := MemorySearch(sp, 0, Config{})
	if got.Best.K != 0 || got.Best.MemSched || got.Best.Discipline != 0 {
		t.Fatalf("best %+v, want depth 0 under discipline 0", got.Best)
	}
	if got.Probes <= probeBatch {
		t.Fatalf("%d probes: depth 0 was in the first batch, so the case tests nothing", got.Probes)
	}
	if want := refMemorySearch(sp, 0); !sameMemResult(got, want) {
		t.Fatalf("got %+v, reference %+v", got, want)
	}
}

// TestMemorySearchWorkersDeterministic: the probe set, and so every field of
// the result, Probes included, is the same at any worker count.
func TestMemorySearchWorkersDeterministic(t *testing.T) {
	for _, name := range []string{"resnet50", "densenet169"} {
		m, err := models.BuildZoo(name, models.V100Profile())
		if err != nil {
			t.Fatal(err)
		}
		sp := zooSpace(m, datapar.OOOBytePS, datapar.P3)
		sp.Mem = NewMemTable(m)
		lo, hi := sp.Mem.Footprint(0).FragPeakBytes, sp.Mem.Footprint(len(m.Layers)-1).FragPeakBytes
		for _, budget := range []int64{0, lo, lo + (hi-lo)/2, lo - 1} {
			base := MemorySearch(sp, budget, Config{Workers: 1})
			for _, w := range []int{2, 8} {
				if got := MemorySearch(sp, budget, Config{Workers: w}); got != base {
					t.Fatalf("%s budget %d: workers=%d %+v, serial %+v", name, budget, w, got, base)
				}
			}
		}
	}
}
