// Joint throughput×peak-memory planning: the Pareto sweep evaluates every
// candidate schedule on both axes — exact simulated makespan and allocator-
// replayed peak memory — and returns the frontier; the memory search picks
// the fastest schedule whose *fragmented* peak fits a byte budget.
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

// sweep evaluates every candidate — per discipline, every depth k ∈ [0, L)
// plus the memory list schedule — and returns them in candidate-id order.
// Schedules are NOT clamped by Space.MaxMemoryBytes: the sweep's whole point
// is to expose the memory axis; budget filtering happens in MemorySearch.
//
// Memory is a property of the schedule alone, so the pass runs over the L+1
// distinct schedules: each task reads its footprint from the space's table
// (filling the slot on first use), builds its schedule in a pooled scratch
// and simulates it under every discipline, writing the slots of its own k.
func sweep(sp Space, cfg Config) []MemPoint {
	validateSpace(sp)
	cfg = cfg.withDefaults()
	tab := sp.Mem
	if tab == nil {
		tab = NewMemTable(sp.Model)
	}
	L, D := sp.Costs.Layers(), len(sp.Disciplines)
	pts := make([]MemPoint, D*(L+1))
	parexec.ForEach(L+1, cfg.Workers, func(k int) {
		sc := cfg.Scratch.Get().(*core.IterScratch)
		defer cfg.Scratch.Put(sc)

		p := MemPoint{K: k, Mem: tab.Footprint(k)}
		var s graph.BackwardSchedule
		if k < L {
			s = sc.ReverseFirstK(L, k)
		} else {
			s = tab.ListSchedule()
			p.K, p.MemSched = -1, true
		}
		for d, disc := range sp.Disciplines {
			p.Discipline = d
			p.Makespan = sc.SimulateIteration(sp.Costs, s, disc.Prio, disc.Preemptive).Makespan
			pts[d*(L+1)+k] = p
		}
	})
	return pts
}

// ParetoSweep evaluates the full (k × discipline) grid plus the memory list
// schedule on both objectives and extracts the Pareto frontier. The result
// is bit-identical at any Config.Workers / GOMAXPROCS: candidates land in
// fixed slots and the frontier scan is serial over a total order.
func ParetoSweep(sp Space, cfg Config) ParetoResult {
	pts := sweep(sp, cfg)

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
	// Candidates is the size of the space.
	Candidates int
}

// MemorySearch finds the minimum-makespan schedule whose BFC-replayed
// fragmented peak fits maxMemoryBytes (≤ 0 = unconstrained). Ties break by
// candidate id, matching the exhaustive scan order. Deterministic at any
// worker count.
func MemorySearch(sp Space, maxMemoryBytes int64, cfg Config) MemResult {
	pts := sweep(sp, cfg)

	res := MemResult{Probes: len(pts), Candidates: len(pts)}
	bestFit, minMem := -1, -1
	for id, p := range pts {
		if minMem < 0 || p.Mem.FragPeakBytes < pts[minMem].Mem.FragPeakBytes {
			minMem = id
		}
		if maxMemoryBytes > 0 && p.Mem.FragPeakBytes > maxMemoryBytes {
			continue
		}
		if bestFit < 0 || p.Makespan < pts[bestFit].Makespan {
			bestFit = id
		}
	}
	res.MinFragPeakBytes = pts[minMem].Mem.FragPeakBytes
	if bestFit >= 0 {
		res.Best, res.Feasible = pts[bestFit], true
	} else {
		res.Best = pts[minMem]
	}
	return res
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
