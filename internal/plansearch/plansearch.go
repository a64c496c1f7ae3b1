// Package plansearch is the guided schedule-search engine: it finds the best
// reverse-first-k backward schedule for a model without paying an exhaustive
// simulator sweep on every search.
//
// The exhaustive baseline probes every candidate depth k ∈ [0, L) (under
// every channel discipline of the space) with the exact analytic simulator
// (core.IterScratch.SimulateIteration) — L·D probes. Guided search replaces
// the sweep with three stages:
//
//  1. A cheap cost predictor: a handful of evenly spaced anchor depths are
//     probed exactly, and a small linear model over closed-form features of
//     the cost vector (deferred δW compute mass, deferred synchronization
//     mass, the first layer's δW completion time, the admissible lower
//     bound, k itself) is least-squares fitted to the anchor makespans.
//     Every feature is O(1) per candidate after one O(L) prefix-sum pass.
//  2. Coarse-to-fine probing: the remaining candidates are ranked by
//     predicted makespan and probed exactly in rank order, in fixed-size
//     batches fanned out through internal/parexec. An admissible lower
//     bound LB(k) ≤ makespan(k) (see bounds.go) lets the search stop with a
//     proof: once every unprobed candidate's bound exceeds the best exact
//     makespan found, the optimum is certainly probed. When the bound is
//     too loose to fire, a patience rule stops after a fixed number of
//     consecutive non-improving probes, followed by a ±1 local polish
//     around the incumbent — on smooth (piecewise monotone) makespan
//     landscapes this retains the exhaustive optimum while probing a small
//     fraction of the space.
//  3. Robust selection (Mode Robust): the top-N probed schedules are
//     re-scored under calib.WhatIf cost perturbations; the schedule with the
//     smallest worst-case regret wins instead of the nominal argmin.
//
// Every stage is deterministic: the probe set and tie-breaks depend only on
// the space and mode — never on Config.Workers or GOMAXPROCS — and parexec
// merges batch results in submission order, so a parallel search is
// bit-identical to a serial one.
//
// One probe costs one simulation: its order is built in the borrowed
// scratch's schedule buffer, and the memory clamp (core.ClampK over an
// allocation-free graph.PeakMemory) is answered from a per-search memo of
// which depths fit, so a search evaluates each depth's peak at most once —
// and none under a budget no schedule can reach (peakBound).
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

// Space is the candidate space of one search: every reverse-first-k depth
// k ∈ [0, L) under every listed discipline.
type Space struct {
	// Model supplies layer memory sizes for the reverse-first-k memory clamp.
	Model *models.Model
	// Costs is the per-layer cost vector the simulator probes against.
	Costs core.IterCosts
	// MaxMemoryBytes clamps reverse first-k to schedules whose peak memory
	// fits (0 = unconstrained), exactly as core.ReverseFirstK applies it.
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

// Mode selects the search strategy.
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
	// probeBatch is the ranked-probing batch size.
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

// Candidate is one point of the space with its exact simulated makespan.
type Candidate struct {
	// K is the reverse-first-k deferral depth.
	K int
	// Discipline indexes Space.Disciplines.
	Discipline int
	// Makespan is the exact simulated iteration time at this candidate.
	Makespan time.Duration
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

// Search runs one schedule search over the space. It panics on a
// structurally invalid space (no disciplines, inconsistent cost lengths),
// mirroring the simulator's contract; every other input yields a result.
func Search(sp Space, mode Mode, cfg Config) Result {
	validateSpace(sp)
	st := newState(sp, cfg.withDefaults())
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

// state is the working set of one search.
type state struct {
	sp  Space
	cfg Config
	L   int // layers
	D   int // disciplines
	n   int // candidates = L·D

	bounds *kBounds // per-k admissible bounds and feature rows

	measured []time.Duration // by candidate id; valid where probed
	probed   []bool
	probes   int

	// fit memoises, per depth, whether reverse first-k fits MaxMemoryBytes:
	// 0 not yet evaluated, +1 fits, −1 does not. Written only by clamp, on
	// the searching goroutine.
	fit []int8
	ks  []int // clamped depths of the batch being probed

	pred []float64 // predicted makespan ns, by candidate id (guided)
}

// Candidate ids are d·L + k: discipline-major, matching the exhaustive scan
// order so id order doubles as the tie-break order.
func (s *state) id(d, k int) int      { return d*s.L + k }
func (s *state) dk(id int) (d, k int) { return id / s.L, id % s.L }

func newState(sp Space, cfg Config) *state {
	L := sp.Costs.Layers()
	D := len(sp.Disciplines)
	s := &state{
		sp:       sp,
		cfg:      cfg,
		L:        L,
		D:        D,
		n:        L * D,
		bounds:   computeBounds(sp.Costs),
		measured: make([]time.Duration, L*D),
		probed:   make([]bool, L*D),
		fit:      make([]int8, L),
	}
	if sp.MaxMemoryBytes > 0 && sp.MaxMemoryBytes >= peakBound(sp.Model) {
		for j := range s.fit {
			s.fit[j] = 1
		}
	}
	return s
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

// probe measures the listed candidate ids exactly, fanning out through
// parexec. Each task writes a distinct index, so the fan-out is race-free
// and the stored results are identical at any worker count.
func (s *state) probe(ids []int) {
	s.probeCosts(s.sp.Costs, s.measured, ids)
	for _, id := range ids {
		s.probed[id] = true
	}
	s.probes += len(ids)
}

// probeCosts simulates the listed candidates under the given cost vector,
// storing makespans into out (indexed by candidate id). The memory clamp is
// resolved first, serially, because it fills the fit memo; the fan-out then
// only builds each order in its borrowed scratch and simulates it.
func (s *state) probeCosts(costs core.IterCosts, out []time.Duration, ids []int) {
	sc := s.cfg.Scratch.Get().(*core.IterScratch)
	s.ks = s.ks[:0]
	for _, id := range ids {
		_, k := s.dk(id)
		s.ks = append(s.ks, s.clamp(sc, k))
	}
	s.cfg.Scratch.Put(sc)
	parexec.ForEach(len(ids), s.cfg.Workers, func(i int) {
		d, _ := s.dk(ids[i])
		disc := s.sp.Disciplines[d]
		sc := s.cfg.Scratch.Get().(*core.IterScratch)
		r := sc.SimulateIteration(costs, sc.ReverseFirstK(s.L, s.ks[i]), disc.Prio, disc.Preemptive)
		s.cfg.Scratch.Put(sc)
		out[ids[i]] = r.Makespan
	})
}

// clamp is core.ReverseFirstK's memory clamp for depth k — the same first
// fit scanning down from k — answered from the fit memo; a depth not seen
// before has its schedule built in sc and its peak measured once.
func (s *state) clamp(sc *core.IterScratch, k int) int {
	return core.ClampK(s.L, k, s.sp.MaxMemoryBytes, func(j int) bool {
		if s.fit[j] == 0 {
			s.fit[j] = -1
			if graph.PeakMemory(s.sp.Model, sc.ReverseFirstK(s.L, j)) <= s.sp.MaxMemoryBytes {
				s.fit[j] = 1
			}
		}
		return s.fit[j] > 0
	})
}

// better reports whether candidate a beats candidate b: smaller makespan,
// ties broken by discipline index then k — exactly the winner an exhaustive
// scan in id order with a strict-less comparison would keep.
func better(aM time.Duration, aID int, bM time.Duration, bID int) bool {
	if aM != bM {
		return aM < bM
	}
	return aID < bID
}

// bestOf scans the probed candidates in id order and returns the winner.
func (s *state) bestOf() (int, time.Duration) {
	bestID, bestM := -1, time.Duration(0)
	for id := 0; id < s.n; id++ {
		if !s.probed[id] {
			continue
		}
		if bestID < 0 || better(s.measured[id], id, bestM, bestID) {
			bestID, bestM = id, s.measured[id]
		}
	}
	return bestID, bestM
}

func (s *state) candidate(id int) Candidate {
	d, k := s.dk(id)
	return Candidate{K: k, Discipline: d, Makespan: s.measured[id]}
}

// searchExact probes the whole space.
func (s *state) searchExact() Result {
	ids := make([]int, s.n)
	for i := range ids {
		ids[i] = i
	}
	s.probe(ids)
	bestID, _ := s.bestOf()
	return Result{
		Best:            s.candidate(bestID),
		Probes:          s.probes,
		Candidates:      s.n,
		CutoffProven:    true,
		RankCorrelation: 1,
	}
}

// searchGuided runs the predictor-guided coarse-to-fine search.
func (s *state) searchGuided() Result {
	if s.n <= exhaustiveBelow {
		return s.searchExact()
	}

	// Stage 1: anchor probes + predictor fit, one model per discipline.
	anchors := s.anchorIDs()
	s.probe(anchors)
	s.fitPredictor(anchors)

	// Stage 2: rank the unprobed candidates by predicted makespan (ties by
	// id) and probe in fixed batches until the bound cutoff proves the
	// optimum or patience runs out.
	ranked := s.rankUnprobed()
	// suffixLB[i] is the smallest admissible lower bound among ranked[i:]:
	// once it exceeds the best exact makespan, no unprobed candidate can win.
	suffixLB := make([]time.Duration, len(ranked)+1)
	suffixLB[len(ranked)] = 1<<63 - 1
	for i := len(ranked) - 1; i >= 0; i-- {
		_, k := s.dk(ranked[i])
		lb := s.bounds.lb[k]
		if lb < suffixLB[i+1] {
			suffixLB[i] = lb
		} else {
			suffixLB[i] = suffixLB[i+1]
		}
	}

	bestID, bestM := s.bestOf()
	proven := false
	sinceImprove := 0
	next := 0
	for next < len(ranked) {
		if suffixLB[next] > bestM {
			proven = true
			break
		}
		if s.probes >= minProbes && sinceImprove >= patience {
			break
		}
		end := next + probeBatch
		if end > len(ranked) {
			end = len(ranked)
		}
		batch := ranked[next:end]
		s.probe(batch)
		for _, id := range batch {
			if better(s.measured[id], id, bestM, bestID) {
				bestID, bestM = id, s.measured[id]
				sinceImprove = 0
			} else {
				sinceImprove++
			}
		}
		next = end
	}
	if next >= len(ranked) {
		// The whole space is probed — exhaustively optimal by construction.
		proven = true
	}

	// Stage 3: ±1 local polish around the incumbent. On piecewise monotone
	// makespan landscapes this closes the gap a mis-ranked neighbour would
	// leave; it terminates because each step strictly improves.
	if !proven {
		bestID, bestM = s.polish(bestID, bestM)
	}

	return Result{
		Best:            s.candidate(bestID),
		Probes:          s.probes,
		Candidates:      s.n,
		CutoffProven:    proven,
		RankCorrelation: s.rankCorrelation(),
	}
}

// anchorIDs returns the evenly spaced anchor candidates of every discipline
// (always including k = 0 and k = L−1).
func (s *state) anchorIDs() []int {
	per := min(anchors, s.L)
	ks := make([]int, 0, per)
	if per == 1 {
		ks = append(ks, 0)
	} else {
		prev := -1
		for i := 0; i < per; i++ {
			k := i * (s.L - 1) / (per - 1)
			if k != prev {
				ks = append(ks, k)
				prev = k
			}
		}
	}
	ids := make([]int, 0, len(ks)*s.D)
	for d := 0; d < s.D; d++ {
		for _, k := range ks {
			ids = append(ids, s.id(d, k))
		}
	}
	return ids
}

// rankUnprobed returns the unprobed candidate ids ordered by ascending
// predicted makespan, ties by id. The sort key is fully deterministic.
func (s *state) rankUnprobed() []int {
	ids := make([]int, 0, s.n)
	for id := 0; id < s.n; id++ {
		if !s.probed[id] {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.pred[a], s.pred[b]), cmp.Compare(a, b))
	})
	return ids
}

// polish walks the incumbent's ±1 neighbourhood (same discipline) until no
// unprobed neighbour improves on it.
func (s *state) polish(bestID int, bestM time.Duration) (int, time.Duration) {
	for {
		d, k := s.dk(bestID)
		improved := false
		for _, nk := range [2]int{k - 1, k + 1} {
			if nk < 0 || nk >= s.L {
				continue
			}
			id := s.id(d, nk)
			if !s.probed[id] {
				s.probe([]int{id})
			}
			if better(s.measured[id], id, bestM, bestID) {
				bestID, bestM = id, s.measured[id]
				improved = true
				break
			}
		}
		if !improved {
			return bestID, bestM
		}
	}
}

// Depth is the reverse-first-k depth a candidate's schedule runs at: its K
// under the memory clamp the probes applied.
func (sp Space) Depth(c Candidate) int {
	L := len(sp.Model.Layers)
	if sp.MaxMemoryBytes >= peakBound(sp.Model) {
		return core.ClampK(L, c.K, 0, nil) // a budget that cannot bind
	}
	var buf graph.BackwardSchedule
	return core.ClampK(L, c.K, sp.MaxMemoryBytes, func(j int) bool {
		buf = graph.AppendReverseFirstK(buf[:0], L, j)
		return graph.PeakMemory(sp.Model, buf) <= sp.MaxMemoryBytes
	})
}

// Schedule materializes a candidate's backward schedule — the same memory
// clamp the probes applied.
func (sp Space) Schedule(c Candidate) graph.BackwardSchedule {
	return graph.ReverseFirstK(len(sp.Model.Layers), sp.Depth(c))
}
