package core

import (
	"fmt"
	"math"
	"time"

	"oooback/internal/graph"
	"oooback/internal/models"
)

// ReverseFirstK implements Algorithm 2 (§5.1). It returns the backward
// schedule that runs layers L..k+1 conventionally (with δW_i hoisted just
// before δO_i, exactly as the pseudocode's lines 3–5 emit), defers the weight
// gradients of the first k layers, and finally runs δW_1 … δW_k in ascending
// layer order so that δW_1's synchronization — the most critical one, needed
// by the very first forward computation of the next iteration — starts as
// early as possible.
//
// k is clamped to max_k, the largest deferral whose peak memory stays under
// maxMem bytes (Algorithm 2 lines 1–2); pass maxMem ≤ 0 for no constraint.
func ReverseFirstK(m *models.Model, k int, maxMem int64) graph.BackwardSchedule {
	L := len(m.Layers)
	buf := make(graph.BackwardSchedule, 0, 2*L)
	k = ClampK(L, k, maxMem, func(j int) bool {
		buf = graph.AppendReverseFirstK(buf[:0], L, j)
		return graph.PeakMemory(m, buf) <= maxMem
	})
	return graph.AppendReverseFirstK(buf[:0], L, k)
}

// ClampK is Algorithm 2's lines 1–2, the one clamp behind ReverseFirstK and
// plansearch's probes: k is brought into [0, L] and, when maxMem > 0,
// lowered to max_k — the first depth j ≤ k, scanning down from k, whose
// schedule fits(j) reports within the bound (depth 0 is taken to fit). The scan is a first fit rather than a bisection
// because peak memory is nondecreasing in j on every zoo model
// (TestZooPeakMonotoneInK) but not by theorem: the transient δW workspace
// (WorkBytes) is charged where its op runs, and deferral moves it.
func ClampK(L, k int, maxMem int64, fits func(j int) bool) int {
	k = max(0, min(k, L))
	if maxMem > 0 {
		for ; k > 0 && !fits(k); k-- {
		}
	}
	return k
}

// SweepReverseFirstK sets out[k−lo] to the makespan SimulateIteration
// returns for graph.ReverseFirstK(L, k) under c, prio and preemptive, bit
// for bit, for every depth k in [lo, hi); depths run 0…L, so 0 ≤ lo ≤ hi ≤
// L+1 and out must hold hi−lo results. It panics on inconsistent costs or an
// out-of-range sweep. prio is consulted once per layer. A warm scratch
// allocates nothing.
//
// The family is nested (Algorithm 2): depth k's schedule runs layers
// L…k+1 conventionally — a prefix shared with every shallower depth — then
// the suffix δO_k…δO_1, δW_1…δW_k. The sweep walks k from L down, extending
// the prefix by δW_{k+1} and δO_{k+1} to the clock T_k and queueing layer
// k+1's sync, and advances the channel to T_k, deciding only at times before
// it: a one-class channel serves the whole prefix, because its completions
// do not depend on later arrivals; a multi-class one stops at T_k, cutting a
// preemptive task still in service there. Each depth then runs its suffix
// and the forward pass on a copy of that state. This is exact when every δW
// is positive and every δO non-negative: arrivals are then strictly
// increasing, every prefix arrival is at or before T_k and every suffix
// arrival after it, so no decision before T_k saw a suffix arrival and
// nothing arrives at a cut. Otherwise each depth runs SimulateIteration.
func (s *IterScratch) SweepReverseFirstK(c IterCosts, prio func(layer int) int, preemptive bool, lo, hi int, out []time.Duration) {
	if err := c.validate(); err != nil {
		panic(err)
	}
	L := c.Layers()
	if lo < 0 || lo > hi || hi > L+1 || len(out) < hi-lo {
		panic(fmt.Sprintf("core: reverse-first-k sweep of depths [%d, %d) into %d results, L = %d", lo, hi, len(out), L))
	}
	if lo == hi {
		return
	}
	if prio == nil {
		prio = zeroPrio
	}
	if !strictArrivals(c) {
		for k := lo; k < hi; k++ {
			out[k-lo] = s.SimulateIteration(c, s.ReverseFirstK(L, k), prio, preemptive).Makespan
		}
		return
	}

	// Every depth queues the same synced layers, so their classes are
	// fixed once, under the one-shot's rule.
	s.tasks = s.tasks[:0]
	for i := 1; i <= L; i++ {
		s.addSync(i, prio(i), 0, c.SyncW[i-1])
	}
	classes := s.classify(s.tasks)
	s.class = append(s.class[:0], make([]int, L+1)...)
	for _, tk := range s.tasks {
		s.class[tk.layer] = tk.prio
	}
	s.reset(L, classes, len(s.tasks))
	s.tasks = s.tasks[:0]

	var t, sumDO time.Duration // T_k, and δO_1 + … + δO_k
	for _, d := range c.DO {
		sumDO += d
	}
	for k := L; ; k-- {
		if k < hi {
			out[k-lo] = s.suffix(&c, preemptive, classes, k, t+sumDO)
		}
		if k == lo {
			return
		}
		t += c.DW[k-1]
		if c.SyncW[k-1] > 0 {
			s.tasks = append(s.tasks, commTask{layer: k, prio: s.class[k], ready: t, remaining: c.SyncW[k-1]})
		}
		t += c.DO[k-1]
		sumDO -= c.DO[k-1]
		s.segs = s.segs[:0]
		s.serve(&c, preemptive, classes, t)
	}
}

// strictArrivals reports whether every δW is positive and every δO
// non-negative: the family sweep's precondition.
func strictArrivals(c IterCosts) bool {
	for i := range c.DW {
		if c.DW[i] <= 0 || c.DO[i] < 0 {
			return false
		}
	}
	return true
}

// suffix finishes depth k on a copy of the shared prefix's channel: the
// syncs of δW_1…δW_k, run from t — the prefix clock plus δO_k…δO_1 — join
// the queue, the channel drains, and the forward pass runs.
func (s *IterScratch) suffix(c *IterCosts, preemptive bool, classes, k int, t time.Duration) time.Duration {
	f := &s.fork
	f.copyFrom(&s.channel)
	for j := 1; j <= k; j++ {
		t += c.DW[j-1]
		if c.SyncW[j-1] > 0 {
			f.tasks = append(f.tasks, commTask{layer: j, prio: s.class[j], ready: t, remaining: c.SyncW[j-1]})
		}
	}
	f.serve(c, preemptive, classes, math.MaxInt64)
	for i, d := range f.done[1:] {
		t = max(t, d) + c.F[i]
	}
	return t
}

// SearchK finds the k that maximizes a throughput measurement, using the
// paper's coarse-to-fine heuristic (§5.1): sweep k in steps of Δk = L/10,
// then repeatedly halve Δk and re-probe around the best k found, assuming
// throughput is roughly concave in k. measure is memoized, so repeated
// probes of the same k are free. Probes run strictly in order on the calling
// goroutine; measure need not be safe for concurrent use. Ties resolve to the
// k probed first: grid order in the coarse phase, then best−Δk before best+Δk.
func SearchK(L int, measure func(k int) float64) int {
	if L <= 0 {
		return 0
	}
	memo := make(map[int]float64)
	probe := func(k int) float64 {
		if v, ok := memo[k]; ok {
			return v
		}
		v := measure(k)
		memo[k] = v
		return v
	}

	dk := L / 10
	if dk < 1 {
		dk = 1
	}
	// Coarse phase: the grid {0, Δk, 2Δk, ...} ∩ [0, L).
	best, bestV := 0, probe(0)
	for k := dk; k < L; k += dk {
		if v := probe(k); v > bestV {
			best, bestV = k, v
		}
	}
	// Refinement phase: halving around the incumbent.
	for dk > 1 {
		dk /= 2
		for _, k := range []int{best - dk, best + dk} {
			if k < 0 || k >= L {
				continue
			}
			if v := probe(k); v > bestV {
				best, bestV = k, v
			}
		}
	}
	return best
}
