// Package plansearch is the planner's schedule-search engine. It picks a
// backward schedule for a model under one of three objectives — the fastest
// schedule (Search), the throughput×peak-memory frontier (ParetoSweep), or
// the fastest schedule whose fragmented peak fits a byte budget
// (MemorySearch) — and all three run on one core:
//
//   - A candidate space. Each channel discipline has S schedules, and the
//     candidate id is d·S+s, so id order is the exhaustive scan order and
//     doubles as the tie-break. The time objective has S = L: reverse first-k
//     at k = s under Space.MaxMemoryBytes's clamp, exactly as
//     core.ReverseFirstK applies it. The memory axis has S = L+1: reverse
//     first-k unclamped, then the LESCEA list schedule (core.MemSchedule),
//     each with its footprint in the model's MemTable.
//   - One oracle (state.probe): each candidate's schedule is built in a
//     pooled core.IterScratch and simulated exactly, fanned out through
//     internal/parexec. A whole space (state.measureAll) is simulated as
//     one reverse-first-k family sweep per discipline, exact to the same
//     bit (core.IterScratch.SweepReverseFirstK). The memory clamp is answered from a per-search memo
//     of which depths fit (core.ClampK over an allocation-free
//     graph.PeakMemory), so a depth's peak is measured at most once — and
//     never under a budget no schedule can reach (peakBound).
//   - Per objective, a comparator (better: makespan, then id), an admissible
//     lower bound on the makespan (bounds.go) and a stop rule, walked by one
//     bound-ordered loop (state.descend).
//
// Search's Guided mode ranks the candidates with a predictor fitted to a few
// exactly probed anchors (predictor.go), probes them in rank order until the
// bound proves the optimum or a patience rule fires, and polishes the
// incumbent's ±1 neighbourhood. Robust mode re-scores the best probed
// schedules under calib.WhatIf cost perturbations (robust.go).
//
// Every stage is deterministic: the probe set and tie-breaks depend only on
// the space, the objective and the mode — never on Config.Workers or
// GOMAXPROCS — and each fan-out task writes its own slot, so a parallel
// search is bit-identical to a serial one.
package plansearch

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/parexec"
)

// Discipline is one communication-channel configuration of the candidate
// space: the priority function and preemption flag the analytic simulator
// takes (the datapar method's channel behaviour).
type Discipline struct {
	// Name labels the discipline in results and logs.
	Name string
	// Prio maps a layer to its synchronization priority (lower = more
	// urgent). It must be a pure function of the layer.
	Prio func(layer int) int
	// Preemptive selects chunk-granularity preemption on the channel.
	Preemptive bool
}

// Space is what one search chooses over: the model, its costs, the memory
// budget the time objective clamps to, and the channel disciplines searched
// jointly.
type Space struct {
	// Model supplies layer memory sizes for the reverse-first-k memory clamp.
	Model *models.Model
	// Costs is the per-layer cost vector the simulator probes against.
	Costs core.IterCosts
	// MaxMemoryBytes clamps Search's reverse first-k to schedules whose peak
	// memory fits (0 = unconstrained), exactly as core.ReverseFirstK applies
	// it. ParetoSweep and MemorySearch do not clamp.
	MaxMemoryBytes int64
	// Disciplines lists the channel configurations searched jointly; at
	// least one is required. A single-discipline space is the plansvc
	// planning case; multi-discipline spaces search (k × discipline) grids.
	Disciplines []Discipline
	// Mem, if non-nil, is Model's footprint table, shared by every space
	// over the model. Without one, each ParetoSweep or MemorySearch replays
	// its candidates into a table of its own.
	Mem *MemTable
}

// Mode selects Search's strategy.
type Mode int

const (
	// Exact probes every candidate — the exhaustive sweep, kept as the
	// differential-testing baseline.
	Exact Mode = iota
	// Guided prunes the sweep with the fitted predictor and the admissible
	// bound cutoff.
	Guided
	// Robust is Guided plus worst-case scoring under perturbed cost models.
	Robust
)

// String returns the mode's request-vocabulary name.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Guided:
		return "guided"
	case Robust:
		return "robust"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config carries what a caller can vary about a search: its parallelism and
// a shared simulator pool. The zero value means defaults everywhere, and
// Workers never affects results.
type Config struct {
	// Workers bounds the parexec fan-out of one probe batch (≤ 1 = serial).
	Workers int
	// Scratch, if non-nil, is a pool of *core.IterScratch shared with the
	// caller (plansvc's warm pool); otherwise the search allocates its own.
	Scratch *sync.Pool
}

// The search's tuning. These are constants — not Config fields — because no
// caller ever varied them, and the probe sequence (and therefore the chosen
// schedule) must not depend on the parallelism the search runs at.
const (
	// probeBatch is the bound-ordered loop's batch size.
	probeBatch = 4
	// anchors is the number of evenly spaced depths probed per discipline to
	// fit the predictor; the least-squares fit needs more than numFeatures.
	anchors = 8
	// patience is the number of consecutive non-improving ranked probes after
	// which the heuristic stop fires, once minProbes have been issued.
	patience  = 8
	minProbes = anchors + patience
	// exhaustiveBelow short-circuits to the exact sweep when the candidate
	// count is at or below it — tiny spaces are cheaper to sweep than to model.
	exhaustiveBelow = 20
	// robustTopN is how many near-optimal schedules are re-scored under the
	// perturbations.
	robustTopN = 4
)

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Scratch == nil {
		c.Scratch = &sync.Pool{New: func() any { return new(core.IterScratch) }}
	}
	return c
}

// Candidate is one point of the time objective's space with its exact
// simulated makespan.
type Candidate struct {
	// K is the reverse-first-k deferral depth.
	K int
	// Discipline indexes Space.Disciplines.
	Discipline int
	// Makespan is the exact simulated iteration time at this candidate.
	Makespan time.Duration
	// Depth is the depth the candidate's schedule ran at: K under the
	// space's memory clamp.
	Depth int
}

// Alternative is one robust-mode schedule with its worst-case score.
type Alternative struct {
	Candidate
	// WorstRegret is the candidate's largest relative regret across the
	// perturbations: (makespan − best makespan in the pool) / best, under
	// the perturbation where the candidate looks worst.
	WorstRegret float64
}

// Result reports one search.
type Result struct {
	// Best is the chosen schedule. In Exact and Guided modes it minimizes
	// the nominal makespan (ties: lowest discipline index, then lowest k —
	// the exhaustive scan order); in Robust mode it minimizes worst-case
	// regret over the perturbations.
	Best Candidate
	// Probes is the number of exact simulator probes issued against the
	// nominal costs (the quantity guided search exists to reduce).
	Probes int
	// RobustProbes counts the additional simulations against perturbed cost
	// vectors (robust mode only).
	RobustProbes int
	// Candidates is the size of the space — the probes an exhaustive sweep
	// would issue.
	Candidates int
	// CutoffProven reports that the admissible-bound cutoff certified the
	// optimum (every unprobed candidate's lower bound exceeded the best
	// exact makespan), or that the search was exhaustive. When false, the
	// patience rule stopped the search and optimality is empirical.
	CutoffProven bool
	// RankCorrelation is the Spearman correlation between the predictor's
	// ranking and the measured makespans over the probed candidates
	// (guided/robust modes; 1 for exhaustive runs, where no predictor ran).
	RankCorrelation float64
	// WorstRegret is Best's worst-case regret (robust mode only).
	WorstRegret float64
	// Alternatives lists the robust mode's re-scored near-optimal pool,
	// ordered by ascending worst-case regret (Best first).
	Alternatives []Alternative
}

// Search runs one time-objective search over the space. It panics on a
// structurally invalid space (no disciplines, inconsistent cost lengths),
// mirroring the simulator's contract; every other input yields a result.
func Search(sp Space, mode Mode, cfg Config) Result {
	st := newState(sp, cfg, false)
	switch mode {
	case Exact:
		return st.searchExact()
	case Guided:
		return st.searchGuided()
	case Robust:
		return st.searchRobust()
	}
	panic(fmt.Sprintf("plansearch: unknown mode %d", int(mode)))
}

// state is the working set of one search, whatever its objective.
type state struct {
	sp  Space
	cfg Config
	L   int       // layers
	S   int       // schedules per discipline: L (time) or L+1 (memory axis)
	n   int       // candidates = S · len(Disciplines)
	tab *MemTable // the memory axis's footprints; nil for the time objective

	measured []time.Duration // by candidate id; −1 until probed
	depth    []int           // by candidate id: the depth its schedule ran at
	probes   int

	// fit memoises, per depth, whether reverse first-k fits MaxMemoryBytes:
	// 0 not yet evaluated, +1 fits, −1 does not. Only a time objective with
	// a budget has one; only clamp writes it, on the searching goroutine.
	fit []int8

	kb           *kBounds  // admissible bounds, for the objectives that read them
	pred         []float64 // predicted makespan ns, by candidate id (guided)
	sinceImprove int       // consecutive probes descend found no better
}

func newState(sp Space, cfg Config, memAxis bool) *state {
	validateSpace(sp)
	L := sp.Costs.Layers()
	st := &state{sp: sp, cfg: cfg.withDefaults(), L: L, S: L}
	switch {
	case memAxis:
		st.S, st.tab = L+1, sp.Mem
		if st.tab == nil {
			st.tab = NewMemTable(sp.Model)
		}
	case sp.MaxMemoryBytes > 0:
		st.fit = make([]int8, L)
		if sp.MaxMemoryBytes >= peakBound(sp.Model) {
			for j := range st.fit {
				st.fit[j] = 1
			}
		}
	}
	st.n = st.S * len(sp.Disciplines)
	st.measured = make([]time.Duration, st.n)
	for id := range st.measured {
		st.measured[id] = -1
	}
	st.depth = make([]int, st.n)
	return st
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

// peakBound bounds graph.PeakMemory over every schedule of m: with sizes
// non-negative (models.Validate), no schedule holds more live than every
// activation and gradient plus the largest δW workspace. A budget at or
// above it cannot bind, so the search marks every depth as fitting for one
// sum instead of a peak walk per probed depth.
func peakBound(m *models.Model) int64 {
	var live, work int64
	for i := range m.Layers {
		l := &m.Layers[i]
		live += l.ActBytes + l.OutBytes
		work = max(work, l.WorkBytes)
	}
	return live + work
}

// clamp is the depth candidate schedule s runs at. On the memory axis, or
// without a budget, that is s itself; otherwise it is core.ReverseFirstK's
// memory clamp — the first fit scanning down from s — answered from the fit
// memo, with a depth not seen before built and its peak measured once.
func (st *state) clamp(s int) int {
	if st.fit == nil {
		return s
	}
	return core.ClampK(st.L, s, st.sp.MaxMemoryBytes, func(j int) bool {
		if st.fit[j] == 0 {
			sc := st.cfg.Scratch.Get().(*core.IterScratch)
			st.fit[j] = -1
			if graph.PeakMemory(st.sp.Model, sc.ReverseFirstK(st.L, j)) <= st.sp.MaxMemoryBytes {
				st.fit[j] = 1
			}
			st.cfg.Scratch.Put(sc)
		}
		return st.fit[j] > 0
	})
}

// schedule builds the schedule at depth k in sc: reverse first-k, or for
// k = L the table's list schedule.
func (st *state) schedule(sc *core.IterScratch, k int) graph.BackwardSchedule {
	if k < st.L {
		return sc.ReverseFirstK(st.L, k)
	}
	return st.tab.ListSchedule()
}

// probe is the oracle: it simulates the listed candidates under costs and
// stores each makespan into out, by candidate id. Clamps resolve first,
// serially, because they fill the fit memo; the parexec fan-out then builds
// each schedule in a borrowed scratch and simulates it, and on the memory
// axis fills the candidate's footprint slot. Each task writes its own
// index, so the results are identical at any worker count.
func (st *state) probe(costs core.IterCosts, out []time.Duration, ids []int) {
	for _, id := range ids {
		st.depth[id] = st.clamp(id % st.S)
	}
	parexec.ForEach(len(ids), st.cfg.Workers, func(i int) {
		id := ids[i]
		disc := st.sp.Disciplines[id/st.S]
		sc := st.cfg.Scratch.Get().(*core.IterScratch)
		out[id] = sc.SimulateIteration(costs, st.schedule(sc, st.depth[id]), disc.Prio, disc.Preemptive).Makespan
		st.cfg.Scratch.Put(sc)
		if st.tab != nil {
			st.tab.Footprint(st.depth[id])
		}
	})
}

// measureAll probes every candidate under the space's own costs, each
// discipline's reverse-first-k depths as one family sweep
// (core.IterScratch.SweepReverseFirstK) — split into contiguous chunks of
// depths across the workers, each writing its own slots — and the memory
// axis's list schedule one-shot. A clamped candidate reads the family's
// makespan at the depth it runs at. Every candidate counts as a probe.
// Scattered probes stay one-shot (measure): a family of one depth shares
// no prefix with anything.
func (st *state) measureAll() {
	for id := range st.n {
		st.depth[id] = st.clamp(id % st.S)
	}
	D, L := len(st.sp.Disciplines), st.L
	fam, stride := st.measured, st.S // without a clamp, depth k is candidate d·S+k
	if st.fit != nil {
		fam, stride = make([]time.Duration, D*L), L
	}
	chunks := max(1, min(st.cfg.Workers, L))
	lists := 0
	if st.tab != nil {
		lists = D
	}
	parexec.ForEach(D*chunks+lists, st.cfg.Workers, func(i int) {
		sc := st.cfg.Scratch.Get().(*core.IterScratch)
		if i >= D*chunks {
			id := (i-D*chunks)*st.S + L
			disc := st.sp.Disciplines[id/st.S]
			st.measured[id] = sc.SimulateIteration(st.sp.Costs, st.tab.ListSchedule(), disc.Prio, disc.Preemptive).Makespan
			st.cfg.Scratch.Put(sc)
			st.tab.Footprint(L)
			return
		}
		d, j := i/chunks, i%chunks
		lo, hi := j*L/chunks, (j+1)*L/chunks
		disc := st.sp.Disciplines[d]
		sc.SweepReverseFirstK(st.sp.Costs, disc.Prio, disc.Preemptive, lo, hi, fam[d*stride+lo:d*stride+hi])
		st.cfg.Scratch.Put(sc)
		if st.tab != nil {
			for k := lo; k < hi; k++ {
				st.tab.Footprint(k)
			}
		}
	})
	if st.fit != nil {
		for id := range st.n {
			st.measured[id] = fam[id/st.S*L+st.depth[id]]
		}
	}
	st.probes += st.n
}

// measure probes the listed candidates under the space's own costs: the
// probes a result reports.
func (st *state) measure(ids []int) {
	st.probe(st.sp.Costs, st.measured, ids)
	st.probes += len(ids)
}

// allIDs returns every candidate id in scan order.
func (st *state) allIDs() []int {
	ids := make([]int, st.n)
	for id := range ids {
		ids[id] = id
	}
	return ids
}

// better reports whether candidate a beats candidate b: smaller makespan,
// ties broken by id — discipline index, then schedule — exactly the winner
// an exhaustive scan in id order with a strict-less comparison would keep.
func better(aM time.Duration, aID int, bM time.Duration, bID int) bool {
	if aM != bM {
		return aM < bM
	}
	return aID < bID
}

// bestOf scans the probed candidates in id order and returns the winner.
func (st *state) bestOf() int {
	best := -1
	for id, m := range st.measured {
		if m >= 0 && (best < 0 || better(m, id, st.measured[best], best)) {
			best = id
		}
	}
	return best
}

// descend is the bound-ordered loop: it probes order in batches, keeping the
// best candidate, until the objective's stop rule ends the walk. next
// returns where the batch that starts at i ends, given the incumbent (−1
// before any probe); a batch that ends where it starts stops the walk.
// descend returns the incumbent and the index the walk stopped at.
func (st *state) descend(order []int, best int, next func(i, best int) int) (int, int) {
	i := 0
	for i < len(order) {
		end := next(i, best)
		if end == i {
			break
		}
		st.measure(order[i:end])
		for _, id := range order[i:end] {
			if best < 0 || better(st.measured[id], id, st.measured[best], best) {
				best, st.sinceImprove = id, 0
			} else {
				st.sinceImprove++
			}
		}
		i = end
	}
	return best, i
}

// candidate returns the time objective's candidate id.
func (st *state) candidate(id int) Candidate {
	return Candidate{K: id % st.S, Discipline: id / st.S, Makespan: st.measured[id], Depth: st.depth[id]}
}

// result reports a time-objective search that chose best.
func (st *state) result(best int, proven bool, rankCorrelation float64) Result {
	return Result{
		Best:            st.candidate(best),
		Probes:          st.probes,
		Candidates:      st.n,
		CutoffProven:    proven,
		RankCorrelation: rankCorrelation,
	}
}

// searchExact probes the whole space.
func (st *state) searchExact() Result {
	st.measureAll()
	return st.result(st.bestOf(), true, 1)
}

// searchGuided runs the predictor-guided coarse-to-fine search.
func (st *state) searchGuided() Result {
	if st.n <= exhaustiveBelow {
		return st.searchExact()
	}
	st.kb = computeBounds(st.sp.Costs)

	// Stage 1: anchor probes + predictor fit, one model per discipline.
	anchors := st.anchorIDs()
	st.measure(anchors)
	st.fitPredictor(anchors)

	// Stage 2: probe the unprobed candidates in predicted-makespan order
	// until the bound cutoff proves the optimum or patience runs out, both
	// checked once per batch. suffixLB[i] is the smallest admissible bound
	// among ranked[i:]: once it exceeds the best exact makespan, no unprobed
	// candidate can win.
	ranked := st.rankUnprobed()
	suffixLB := make([]time.Duration, len(ranked)+1)
	suffixLB[len(ranked)] = 1<<63 - 1
	for i := len(ranked) - 1; i >= 0; i-- {
		suffixLB[i] = min(st.kb.lb[ranked[i]%st.S], suffixLB[i+1])
	}
	best, stop := st.descend(ranked, st.bestOf(), func(i, best int) int {
		if suffixLB[i] > st.measured[best] || st.probes >= minProbes && st.sinceImprove >= patience {
			return i
		}
		return min(i+probeBatch, len(ranked))
	})
	// A walk that probed everything stops at suffixLB's sentinel: exhaustive,
	// so proven too.
	proven := suffixLB[stop] > st.measured[best]

	// Stage 3: ±1 local polish around the incumbent. On piecewise monotone
	// makespan landscapes this closes the gap a mis-ranked neighbour would
	// leave; it terminates because each step strictly improves.
	if !proven {
		best = st.polish(best)
	}
	return st.result(best, proven, st.rankCorrelation())
}

// anchorIDs returns the evenly spaced anchor candidates of every discipline,
// discipline-major (always including k = 0 and k = L−1). With at most S
// anchors per discipline the spacing is at least one, so no depth repeats.
func (st *state) anchorIDs() []int {
	per := min(anchors, st.S)
	ids := make([]int, 0, per*len(st.sp.Disciplines))
	for d := range st.sp.Disciplines {
		for i := range per {
			ids = append(ids, d*st.S+i*(st.S-1)/max(per-1, 1))
		}
	}
	return ids
}

// rankUnprobed returns the unprobed candidate ids ordered by ascending
// predicted makespan, ties by id. The sort key is fully deterministic.
func (st *state) rankUnprobed() []int {
	ids := make([]int, 0, st.n)
	for id, m := range st.measured {
		if m < 0 {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(st.pred[a], st.pred[b]), cmp.Compare(a, b))
	})
	return ids
}

// polish walks the incumbent's ±1 neighbourhood (same discipline) until no
// neighbour improves on it, probing the ones not probed yet.
func (st *state) polish(best int) int {
	for {
		d, k := best/st.S, best%st.S
		improved := false
		for _, nk := range [2]int{k - 1, k + 1} {
			if nk < 0 || nk >= st.S {
				continue
			}
			id := d*st.S + nk
			if st.measured[id] < 0 {
				st.measure([]int{id})
			}
			if better(st.measured[id], id, st.measured[best], best) {
				best, improved = id, true
				break
			}
		}
		if !improved {
			return best
		}
	}
}

// Schedule materializes a search candidate's backward schedule: reverse
// first-k at the depth the search ran it at.
func (sp Space) Schedule(c Candidate) graph.BackwardSchedule {
	return graph.ReverseFirstK(len(sp.Model.Layers), c.Depth)
}
