package plansearch

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"oooback/internal/bfc"
	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/parexec"
)

// The naive reference of the memory axis: every schedule materialized, a
// one-shot trace copied into a one-shot replay, an unpooled simulation per
// candidate, the frontier from a library sort. graph and bfc pin their
// one-shot entry points to map-based references of their own.

func refFootprint(m *models.Model, s graph.BackwardSchedule) MemStats {
	tr := graph.TraceAllocs(m, s)
	events := make([]bfc.Event, len(tr.Events))
	for i, ev := range tr.Events {
		events[i] = bfc.Event{ID: ev.ID, Bytes: ev.Bytes, Free: ev.Free}
	}
	res := bfc.Replay(events)
	return MemStats{
		LogicalPeakBytes: res.LogicalPeakBytes,
		AlignedPeakBytes: res.AlignedPeakBytes,
		FragPeakBytes:    res.FragPeakBytes,
		FragRatio:        res.FragRatio,
	}
}

func refSchedules(m *models.Model) []graph.BackwardSchedule {
	L := len(m.Layers)
	out := make([]graph.BackwardSchedule, L+1)
	for k := 0; k < L; k++ {
		out[k] = core.ReverseFirstK(m, k, 0)
	}
	out[L] = core.MemSchedule(m)
	return out
}

func refPoints(sp Space) []MemPoint {
	scheds := refSchedules(sp.Model)
	var pts []MemPoint
	for d, disc := range sp.Disciplines {
		for k, s := range scheds {
			p := MemPoint{
				K:          k,
				Discipline: d,
				Makespan:   core.SimulateIteration(sp.Costs, s, disc.Prio, disc.Preemptive).Makespan,
				Mem:        refFootprint(sp.Model, s),
			}
			if k == len(scheds)-1 {
				p.K, p.MemSched = -1, true
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func refPareto(sp Space) ParetoResult {
	pts := refPoints(sp)
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := pts[ids[i]], pts[ids[j]]
		if a.Makespan != b.Makespan {
			return a.Makespan < b.Makespan
		}
		return a.Mem.FragPeakBytes < b.Mem.FragPeakBytes
	})
	var frontier []MemPoint
	for _, id := range ids {
		if len(frontier) == 0 || pts[id].Mem.FragPeakBytes < frontier[len(frontier)-1].Mem.FragPeakBytes {
			frontier = append(frontier, pts[id])
		}
	}
	return ParetoResult{Frontier: frontier, Points: pts, Probes: len(pts)}
}

func refMemorySearch(sp Space, budget int64) MemResult {
	return scanMemorySearch(refPoints(sp), budget)
}

// scanMemorySearch is the exhaustive memory search over points in candidate
// id order: every candidate probed, the first fastest fitting one kept.
func scanMemorySearch(pts []MemPoint, budget int64) MemResult {
	res := MemResult{Probes: len(pts), Candidates: len(pts)}
	minMem := pts[0]
	for _, p := range pts {
		if p.Mem.FragPeakBytes < minMem.Mem.FragPeakBytes {
			minMem = p
		}
		if (budget <= 0 || p.Mem.FragPeakBytes <= budget) && (!res.Feasible || p.Makespan < res.Best.Makespan) {
			res.Best, res.Feasible = p, true
		}
	}
	res.MinFragPeakBytes = minMem.Mem.FragPeakBytes
	if !res.Feasible {
		res.Best = minMem
	}
	return res
}

// sameMemResult reports whether a bound-ordered search returned what the
// exhaustive reference did, in every field but Probes, while probing no more.
func sameMemResult(got, ref MemResult) bool {
	if got.Probes > ref.Probes {
		return false
	}
	got.Probes = ref.Probes
	return reflect.DeepEqual(got, ref)
}

func zooSpace(m *models.Model, methods ...datapar.Method) Space {
	sp := Space{Model: m, Costs: datapar.Costs(m, datapar.PubA(), 8, methods[0])}
	for _, method := range methods {
		sp.Disciplines = append(sp.Disciplines, zooDiscipline(method))
	}
	return sp
}

// TestZooMemoryAxisMatchesReference: on all zoo models, ParetoSweep and
// MemFootprint return exactly what the naive reference returns, MemorySearch
// (feasible, infeasible and unconstrained budgets) returns it in every field
// but Probes, which is never higher, and ONE evaluator carried across every
// model's L+1 schedules — layer counts rise and fall in zoo order — never
// shows state of an earlier schedule.
func TestZooMemoryAxisMatchesReference(t *testing.T) {
	profile := models.V100Profile()
	var e evaluator
	replays, doubled := 0, 0
	probes, exhaustive := 0, 0
	for _, entry := range models.Zoo() {
		m := entry.Build(profile)
		sp := zooSpace(m, datapar.OOOBytePS, datapar.OOOHorovod)

		want := refPareto(sp)
		if got := ParetoSweep(sp, Config{Workers: 2}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ParetoSweep differs from the reference", entry.Name)
		}
		head, tail := want.Frontier[0], want.Frontier[len(want.Frontier)-1]
		mid := tail.Mem.FragPeakBytes + (head.Mem.FragPeakBytes-tail.Mem.FragPeakBytes)/2
		for _, budget := range []int64{0, mid, tail.Mem.FragPeakBytes, tail.Mem.FragPeakBytes - 1} {
			got, want := MemorySearch(sp, budget, Config{Workers: 2}), refMemorySearch(sp, budget)
			if !sameMemResult(got, want) {
				t.Fatalf("%s budget %d: MemorySearch %+v, reference %+v", entry.Name, budget, got, want)
			}
			probes, exhaustive = probes+got.Probes, exhaustive+want.Probes
		}

		for k, s := range refSchedules(m) {
			want := want.Points[k].Mem
			if got := e.footprint(m, s); got != want {
				t.Fatalf("%s schedule %d: carried evaluator %+v, reference %+v", entry.Name, k, got, want)
			}
			if got := MemFootprint(m, s); got != want {
				t.Fatalf("%s schedule %d: MemFootprint %+v, reference %+v", entry.Name, k, got, want)
			}
			replays++
			if arenaDoublings(bfc.Replay(graph.TraceAllocs(m, s).Events)) > 0 {
				doubled++
			}
		}
	}
	t.Logf("memory searches: %d probes where the exhaustive scan issues %d", probes, exhaustive)
	// The arena-doubling rule is live across the zoo, not a corner case.
	t.Logf("%d of %d zoo replays needed a larger arena than the rounded logical peak", doubled, replays)
	if doubled == 0 {
		t.Fatal("no zoo schedule needed an arena doubling")
	}
}

// TestZooMemTable: on all zoo models, every slot of a footprint table —
// filled in shuffled order by concurrent readers — equals a fresh
// MemFootprint of its schedule, the table's list schedule equals
// core.MemSchedule, and sweeps over the filled table return what sweeps
// replaying into tables of their own return.
func TestZooMemTable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, entry := range models.Zoo() {
		m := entry.Build(models.V100Profile())
		tab := NewMemTable(m)
		perm := rng.Perm(len(m.Layers) + 1)
		parexec.ForEach(len(perm), 4, func(i int) { tab.Footprint(perm[i]) })
		for k, s := range refSchedules(m) {
			if got, want := tab.Footprint(k), MemFootprint(m, s); got != want {
				t.Fatalf("%s slot %d: table %+v, fresh footprint %+v", entry.Name, k, got, want)
			}
		}
		if !slices.Equal(tab.ListSchedule(), core.MemSchedule(m)) {
			t.Fatalf("%s: table's list schedule differs from core.MemSchedule", entry.Name)
		}

		sp := zooSpace(m, datapar.OOOBytePS, datapar.P3)
		sp.Mem = tab
		own := sp
		own.Mem = nil
		if got, want := ParetoSweep(sp, Config{Workers: 2}), ParetoSweep(own, Config{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sweep over the filled table differs", entry.Name)
		}
		budget := MemorySearch(own, 0, Config{}).MinFragPeakBytes
		if got, want := MemorySearch(sp, budget, Config{Workers: 2}), MemorySearch(own, budget, Config{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memory search over the filled table differs", entry.Name)
		}
	}
}

// arenaDoublings counts the steps of the roundUp(logicalPeak)·2ⁿ sequence the
// replay took before the trace fit.
func arenaDoublings(res bfc.ReplayResult) int {
	n := 0
	for arena := (res.LogicalPeakBytes + 255) / 256 * 256; arena < res.Arena; arena *= 2 {
		n++
	}
	return n
}

// TestArenaDoublingOnResNet pins the doubling count of one zoo schedule: the
// footprint is the one in the first fitting arena of the doubling sequence.
func TestArenaDoublingOnResNet(t *testing.T) {
	m, err := models.BuildZoo("resnet50", models.V100Profile())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k, doublings int
		fragPeak     int64
	}{
		{k: 0, doublings: 1, fragPeak: 3835809792},
		{k: 11, doublings: 0, fragPeak: 3994812416},
	} {
		res := bfc.Replay(graph.TraceAllocs(m, core.ReverseFirstK(m, c.k, 0)).Events)
		if got := arenaDoublings(res); got != c.doublings || res.FragPeakBytes != c.fragPeak {
			t.Errorf("resnet50 k=%d: %d doublings to arena %d (logical peak %d), footprint %d; want %d doublings, footprint %d",
				c.k, got, res.Arena, res.LogicalPeakBytes, res.FragPeakBytes, c.doublings, c.fragPeak)
		}
	}
}
