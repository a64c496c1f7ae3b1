package plansearch

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"oooback/internal/bfc"
	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
)

// The memory axis. A schedule's memory is scored by replaying its alloc/free
// trace (graph.TraceAllocs) through a real BFC arena (internal/bfc), so the
// reported peak includes alignment and fragmentation holes, not just the
// logical byte sum. The LESCEA list schedule (core.MemSchedule) anchors the
// low-memory end of the frontier. A footprint depends on the model alone, so
// it is replayed once per model into a MemTable, and a search over a filled
// table only simulates.

// MemStats is the memory footprint of one schedule.
type MemStats struct {
	// LogicalPeakBytes is the plain live-byte high-water mark of the
	// replayed trace. The trace books a δW's workspace before that op's
	// frees, so this is never below graph.PeakMemory, which charges the
	// workspace after them, and on most schedules it is above it.
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

// MemTable is the memory axis of one model: the footprints of its
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

// MemPoint is one candidate of the memory axis.
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

// point returns memory-axis candidate id with its makespan and footprint.
func (st *state) point(id int) MemPoint {
	p := MemPoint{K: id % st.S, Discipline: id / st.S, Makespan: st.measured[id], Mem: st.tab.Footprint(id % st.S)}
	if p.K == st.L {
		p.K, p.MemSched = -1, true
	}
	return p
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

// ParetoSweep probes every candidate of the memory axis — the full
// (k × discipline) grid plus the memory list schedule — and extracts the
// frontier. Schedules are NOT clamped by Space.MaxMemoryBytes: the sweep's
// whole point is to expose the memory axis. No bound can prune it (a
// frontier point's nearest lower-footprint rival is too close in makespan),
// so it reads none. The result is bit-identical at any Config.Workers /
// GOMAXPROCS: candidates land in fixed slots and the frontier scan is serial
// over a total order.
func ParetoSweep(sp Space, cfg Config) ParetoResult {
	st := newState(sp, cfg, true)
	st.measureAll()
	ids := st.allIDs()
	pts := make([]MemPoint, st.n)
	for id := range pts {
		pts[id] = st.point(id)
	}

	// Frontier: sort by (makespan, frag peak, id) and keep the strictly
	// improving memory prefix, compacted into the front of ids.
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(
			cmp.Compare(pts[a].Makespan, pts[b].Makespan),
			cmp.Compare(pts[a].Mem.FragPeakBytes, pts[b].Mem.FragPeakBytes),
			cmp.Compare(a, b))
	})
	front := ids[:0]
	for _, id := range ids {
		if len(front) == 0 || pts[id].Mem.FragPeakBytes < pts[front[len(front)-1]].Mem.FragPeakBytes {
			front = append(front, id)
		}
	}
	frontier := make([]MemPoint, len(front))
	for i, id := range front {
		frontier[i] = pts[id]
	}
	return ParetoResult{Frontier: frontier, Points: pts, Probes: st.probes}
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
// candidates that fit are ordered, by admissible lower bound and then id,
// and the bound-ordered loop cuts each batch at the first bound above the
// best makespan found: every candidate left is provably slower. A candidate
// that ties the best has a bound at or below it and is simulated, so the
// lowest id still wins. When nothing fits, one simulation times the
// least-infeasible candidate. The probe set depends only on the space and
// the budget, never on Config.Workers.
func MemorySearch(sp Space, maxMemoryBytes int64, cfg Config) MemResult {
	st := newState(sp, cfg, true)
	st.kb = computeBounds(sp.Costs)
	order := make([]int, 0, st.n)
	minS := 0 // the first schedule of the smallest footprint
	for s := 0; s < st.S; s++ {
		peak := st.tab.Footprint(s).FragPeakBytes
		if peak < st.tab.Footprint(minS).FragPeakBytes {
			minS = s
		}
		if maxMemoryBytes > 0 && peak > maxMemoryBytes {
			continue
		}
		for d := range sp.Disciplines {
			order = append(order, d*st.S+s)
		}
	}
	res := MemResult{Candidates: st.n, MinFragPeakBytes: st.tab.Footprint(minS).FragPeakBytes, Feasible: len(order) > 0}
	if !res.Feasible {
		// The exhaustive scan's least-infeasible candidate is the first id
		// of the smallest footprint: discipline 0 at schedule minS.
		order = append(order, minS)
	}
	lb := func(id int) time.Duration { return st.kb.lb[id%st.S] }
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(lb(a), lb(b)), cmp.Compare(a, b)) })
	best, _ := st.descend(order, -1, func(i, best int) int {
		end := i
		for end < len(order) && end-i < probeBatch && (best < 0 || lb(order[end]) <= st.measured[best]) {
			end++
		}
		return end
	})
	res.Best, res.Probes = st.point(best), st.probes
	return res
}

// MemPointSchedule materializes a memory-axis candidate's backward schedule.
// A list schedule comes from the space's table when it has one, and is then
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
