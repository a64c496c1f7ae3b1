// Joint throughput×peak-memory planning: the Pareto sweep evaluates every
// candidate schedule on both axes — exact simulated makespan and allocator-
// replayed peak memory — and returns the frontier; the memory search picks
// the fastest schedule whose *fragmented* peak fits a byte budget, simulating
// only the candidates that fit and whose lower bound can still win.
//
// Memory is scored by replaying the schedule's alloc/free trace
// (graph.TraceAllocs) through a real BFC arena (internal/bfc), so the
// reported peak includes alignment and fragmentation holes, not just the
// logical byte sum. The candidate set is the reverse-first-k family plus the
// LESCEA memory list schedule (core.MemSchedule), which anchors the
// low-memory end of the frontier. A footprint depends on the model alone, so
// it is replayed once per model into a MemTable, and a sweep over a filled
// table only simulates.
package plansearch

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"oooback/internal/bfc"
	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/parexec"
)

// MemStats is the memory footprint of one schedule.
type MemStats struct {
	// LogicalPeakBytes is the plain live-byte high-water mark
	// (graph.PeakMemory's quantity, via the trace).
	LogicalPeakBytes int64 `json:"logical_peak_bytes"`
	// AlignedPeakBytes is the peak after 256-byte alignment.
	AlignedPeakBytes int64 `json:"aligned_peak_bytes"`
	// FragPeakBytes is the BFC-replayed footprint high-water mark — the
	// arena a device would actually need, holes included. Budget checks use
	// this field.
	FragPeakBytes int64 `json:"frag_peak_bytes"`
	// FragRatio is FragPeakBytes/AlignedPeakBytes (≥ 1).
	FragRatio float64 `json:"frag_ratio"`
}

// evaluator is the memory-axis oracle's scratch: the schedule buffer, the
// trace storage and the BFC arena one candidate evaluation works in. A warm
// evaluator allocates nothing.
type evaluator struct {
	sched  graph.BackwardSchedule
	tracer graph.AllocTracer
	replay bfc.Replayer
}

var evaluators = sync.Pool{New: func() any { return new(evaluator) }}

// footprint traces the schedule and replays the trace through the BFC arena.
func (e *evaluator) footprint(m *models.Model, s graph.BackwardSchedule) MemStats {
	res := e.replay.Replay(e.tracer.Trace(m, s).Events)
	return MemStats{
		LogicalPeakBytes: res.LogicalPeakBytes,
		AlignedPeakBytes: res.AlignedPeakBytes,
		FragPeakBytes:    res.FragPeakBytes,
		FragRatio:        res.FragRatio,
	}
}

// MemFootprint replays a schedule's tensor-lifetime trace through an empty
// BFC arena and reports the fragmented footprint. Deterministic: the trace
// and the replay are both pure functions of (model, schedule).
func MemFootprint(m *models.Model, s graph.BackwardSchedule) MemStats {
	e := evaluators.Get().(*evaluator)
	defer evaluators.Put(e)
	return e.footprint(m, s)
}

// MemTable is the memory axis of one model: the footprints of the sweep's
// L+1 candidate schedules, in candidate order (reverse first-k at depths
// 0…L−1, then the LESCEA list schedule), and the list schedule itself. A
// footprint reads only the layers' byte sizes, never a space's costs,
// disciplines or budget, so one table serves every space over its model.
// Each slot is computed on first use; a table is safe for concurrent use.
type MemTable struct {
	m        *models.Model
	slots    []memSlot
	listOnce sync.Once
	list     graph.BackwardSchedule
}

type memSlot struct {
	once sync.Once
	mem  MemStats
}

// NewMemTable returns an empty table over m. The model must not change
// while the table is in use.
func NewMemTable(m *models.Model) *MemTable {
	return &MemTable{m: m, slots: make([]memSlot, len(m.Layers)+1)}
}

// Model returns the model the table describes.
func (t *MemTable) Model() *models.Model { return t.m }

// ListSchedule returns the model's LESCEA list schedule (core.MemSchedule),
// built once. It is shared: callers must not modify it.
func (t *MemTable) ListSchedule() graph.BackwardSchedule {
	t.listOnce.Do(func() { t.list = core.MemSchedule(t.m) })
	return t.list
}

// Footprint returns the footprint of candidate k: reverse first-k for
// k < L, the list schedule for k = L.
func (t *MemTable) Footprint(k int) MemStats {
	slot := &t.slots[k]
	slot.once.Do(func() {
		e := evaluators.Get().(*evaluator)
		defer evaluators.Put(e)
		var s graph.BackwardSchedule
		if L := len(t.m.Layers); k < L {
			e.sched = graph.AppendReverseFirstK(e.sched[:0], L, k)
			s = e.sched
		} else {
			s = t.ListSchedule()
		}
		slot.mem = e.footprint(t.m, s)
	})
	return slot.mem
}

// MemPoint is one candidate of the joint sweep.
type MemPoint struct {
	// K is the reverse-first-k depth; −1 when MemSched.
	K int `json:"k"`
	// MemSched marks the LESCEA memory list schedule.
	MemSched bool `json:"mem_sched,omitempty"`
	// Discipline indexes Space.Disciplines.
	Discipline int `json:"discipline"`
	// Makespan is the exact simulated iteration time.
	Makespan time.Duration `json:"makespan_ns"`
	// Mem is the schedule's replayed memory footprint.
	Mem MemStats `json:"mem"`
}

// ParetoResult reports one joint sweep.
type ParetoResult struct {
	// Frontier is the Pareto set in ascending makespan order: each point's
	// FragPeakBytes is strictly below every faster point's. The first entry
	// is the time optimum, the last the memory optimum.
	Frontier []MemPoint
	// Points is every evaluated candidate, in candidate-id order
	// (discipline-major, k ascending, the memory schedule last).
	Points []MemPoint
	// Probes is the number of exact simulator probes issued.
	Probes int
}

// ParetoSweep evaluates the full (k × discipline) grid plus the memory list
// schedule on both objectives and extracts the Pareto frontier. Schedules
// are NOT clamped by Space.MaxMemoryBytes: the sweep's whole point is to
// expose the memory axis. The result is bit-identical at any Config.Workers
// / GOMAXPROCS: candidates land in fixed slots and the frontier scan is
// serial over a total order.
//
// Memory is a property of the schedule alone, so the pass runs over the L+1
// distinct schedules: each task reads its footprint from the space's table
// (filling the slot on first use), builds its schedule in a pooled scratch
// and simulates it under every discipline, writing the slots of its own k.
func ParetoSweep(sp Space, cfg Config) ParetoResult {
	validateSpace(sp)
	cfg = cfg.withDefaults()
	tab := sp.memTable()
	L, D := sp.Costs.Layers(), len(sp.Disciplines)
	pts := make([]MemPoint, D*(L+1))
	parexec.ForEach(L+1, cfg.Workers, func(k int) {
		sc := cfg.Scratch.Get().(*core.IterScratch)
		defer cfg.Scratch.Put(sc)
		s, p := tab.schedule(sc, k), tab.point(k)
		for d, disc := range sp.Disciplines {
			p.Discipline = d
			p.Makespan = sc.SimulateIteration(sp.Costs, s, disc.Prio, disc.Preemptive).Makespan
			pts[d*(L+1)+k] = p
		}
	})

	// Frontier: sort by (makespan, frag peak, id) and keep the strictly
	// improving memory prefix.
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(
			cmp.Compare(pts[a].Makespan, pts[b].Makespan),
			cmp.Compare(pts[a].Mem.FragPeakBytes, pts[b].Mem.FragPeakBytes),
			cmp.Compare(a, b))
	})
	var frontier []MemPoint
	for _, id := range ids {
		if len(frontier) == 0 ||
			pts[id].Mem.FragPeakBytes < frontier[len(frontier)-1].Mem.FragPeakBytes {
			frontier = append(frontier, pts[id])
		}
	}
	return ParetoResult{Frontier: frontier, Points: pts, Probes: len(pts)}
}

// MemResult reports one budget-constrained memory search.
type MemResult struct {
	// Best is the fastest candidate whose fragmented peak fits the budget;
	// when none fits (Feasible false), the candidate with the smallest
	// fragmented peak — the least-infeasible schedule.
	Best MemPoint
	// Feasible reports whether any candidate fit the budget.
	Feasible bool
	// MinFragPeakBytes is the smallest fragmented peak across the space —
	// the tightest budget this model can meet at all.
	MinFragPeakBytes int64
	// Probes is the number of exact simulator probes issued.
	Probes int
	// Candidates is the size of the space — the probes an exhaustive scan
	// would issue.
	Candidates int
}

// MemorySearch finds the minimum-makespan schedule whose BFC-replayed
// fragmented peak fits maxMemoryBytes (≤ 0 = unconstrained), ties broken by
// candidate id: exactly the exhaustive scan's answer, found by branch and
// bound over the footprint table. Footprints cost no simulation, so only the
// candidates that fit are ordered, by admissible lower bound (bounds.go) and
// then id, and simulated in that order in fixed batches until the next
// bound exceeds the best makespan found: every candidate left is provably
// slower. A candidate that ties the best has a bound at or below it and is
// simulated, so the lowest id still wins. When nothing fits, one simulation
// times the least-infeasible candidate. The probe set depends only on the
// space and the budget, never on Config.Workers.
func MemorySearch(sp Space, maxMemoryBytes int64, cfg Config) MemResult {
	validateSpace(sp)
	cfg = cfg.withDefaults()
	tab := sp.memTable()
	L, D := sp.Costs.Layers(), len(sp.Disciplines)
	kb := computeBounds(sp.Costs)

	type bounded struct {
		lb time.Duration
		id int // d·(L+1) + k, the exhaustive scan order
	}
	order := make([]bounded, 0, D*(L+1))
	minK := 0 // the first depth of the smallest footprint
	for k := 0; k <= L; k++ {
		peak := tab.Footprint(k).FragPeakBytes
		if peak < tab.Footprint(minK).FragPeakBytes {
			minK = k
		}
		if maxMemoryBytes > 0 && peak > maxMemoryBytes {
			continue
		}
		lb := kb.base
		if k < L {
			lb = kb.lb[k]
		}
		for d := range D {
			order = append(order, bounded{lb, d*(L+1) + k})
		}
	}
	res := MemResult{Candidates: D * (L + 1), MinFragPeakBytes: tab.Footprint(minK).FragPeakBytes}
	if len(order) == 0 {
		// The exhaustive scan's least-infeasible candidate is the first id
		// of the smallest footprint: discipline 0 at depth minK.
		order = append(order, bounded{id: minK})
	} else {
		res.Feasible = true
		slices.SortFunc(order, func(a, b bounded) int {
			return cmp.Or(cmp.Compare(a.lb, b.lb), cmp.Compare(a.id, b.id))
		})
	}

	var ms [probeBatch]time.Duration
	best, bestM := -1, time.Duration(0)
	for next := 0; next < len(order); {
		end := next
		for end < len(order) && end-next < probeBatch && (best < 0 || order[end].lb <= bestM) {
			end++
		}
		if end == next {
			break // every candidate left is bounded above the best
		}
		batch := order[next:end]
		parexec.ForEach(len(batch), cfg.Workers, func(i int) {
			sc := cfg.Scratch.Get().(*core.IterScratch)
			defer cfg.Scratch.Put(sc)
			disc := sp.Disciplines[batch[i].id/(L+1)]
			s := tab.schedule(sc, batch[i].id%(L+1))
			ms[i] = sc.SimulateIteration(sp.Costs, s, disc.Prio, disc.Preemptive).Makespan
		})
		for i, c := range batch {
			if best < 0 || better(ms[i], c.id, bestM, best) {
				best, bestM = c.id, ms[i]
			}
		}
		res.Probes += len(batch)
		next = end
	}
	res.Best = tab.point(best % (L + 1))
	res.Best.Discipline, res.Best.Makespan = best/(L+1), bestM
	return res
}

// memTable returns the space's footprint table, or a fresh one for this call
// when the space carries none.
func (sp Space) memTable() *MemTable {
	if sp.Mem != nil {
		return sp.Mem
	}
	return NewMemTable(sp.Model)
}

// point returns sweep candidate k's point with K, MemSched and Mem filled
// in: reverse first-k for k < L, the list schedule for k = L.
func (t *MemTable) point(k int) MemPoint {
	if k < len(t.m.Layers) {
		return MemPoint{K: k, Mem: t.Footprint(k)}
	}
	return MemPoint{K: -1, MemSched: true, Mem: t.Footprint(k)}
}

// schedule returns sweep candidate k's schedule: reverse first-k built in
// sc, or the table's list schedule.
func (t *MemTable) schedule(sc *core.IterScratch, k int) graph.BackwardSchedule {
	if L := len(t.m.Layers); k < L {
		return sc.ReverseFirstK(L, k)
	}
	return t.ListSchedule()
}

// MemPointSchedule materializes a sweep candidate's backward schedule. A
// list schedule comes from the space's table when it has one, and is then
// shared: callers must not modify it.
func (sp Space) MemPointSchedule(p MemPoint) graph.BackwardSchedule {
	switch {
	case !p.MemSched:
		return graph.ReverseFirstK(len(sp.Model.Layers), p.K)
	case sp.Mem != nil:
		return sp.Mem.ListSchedule()
	}
	return core.MemSchedule(sp.Model)
}

// validateSpace panics on a structurally invalid space.
func validateSpace(sp Space) {
	if len(sp.Disciplines) == 0 {
		panic("plansearch: space has no disciplines")
	}
	if sp.Model == nil {
		panic("plansearch: space has no model")
	}
	if sp.Mem != nil && sp.Mem.m != sp.Model {
		panic("plansearch: space's memory table is of another model")
	}
	L := sp.Costs.Layers()
	if L == 0 || len(sp.Model.Layers) != L {
		panic(fmt.Sprintf("plansearch: model has %d layers, costs %d", len(sp.Model.Layers), L))
	}
}
