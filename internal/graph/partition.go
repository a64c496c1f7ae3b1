package graph

import (
	"fmt"
	"slices"
	"time"
)

// Partition is a contiguous split of an L-layer network into pipeline stages.
// Stage s owns the 0-based layers [Bounds[s], Bounds[s+1]); Bounds therefore
// has Stages+1 entries, starts at 0, ends at L, and is strictly increasing
// (every stage owns at least one layer). It is the one contiguous placement:
// the pipeline simulator, the planner's pipeline baseline and the real
// pipeline all take their stages from PartitionEven or PartitionBalanced.
type Partition struct {
	L      int
	Bounds []int
}

// Stages returns the number of stages.
func (p Partition) Stages() int { return len(p.Bounds) - 1 }

// Range returns the layer range [lo, hi) of stage s.
func (p Partition) Range(s int) (lo, hi int) { return p.Bounds[s], p.Bounds[s+1] }

// Alloc returns the layer → stage map: entry i is the stage owning 0-based
// layer i, the form the pipeline simulator's Config.Alloc takes.
func (p Partition) Alloc() []int {
	out := make([]int, p.L)
	for s := 0; s < p.Stages(); s++ {
		lo, hi := p.Range(s)
		for i := lo; i < hi; i++ {
			out[i] = s
		}
	}
	return out
}

// Validate checks the structural invariants.
func (p Partition) Validate() error {
	if p.L < 1 {
		return fmt.Errorf("graph: partition of %d layers", p.L)
	}
	if len(p.Bounds) < 2 {
		return fmt.Errorf("graph: partition needs ≥ 1 stage, got bounds %v", p.Bounds)
	}
	if p.Bounds[0] != 0 || p.Bounds[len(p.Bounds)-1] != p.L {
		return fmt.Errorf("graph: partition bounds %v must span [0,%d]", p.Bounds, p.L)
	}
	for s := 1; s < len(p.Bounds); s++ {
		if p.Bounds[s] <= p.Bounds[s-1] {
			return fmt.Errorf("graph: partition bounds %v not strictly increasing (empty stage %d)", p.Bounds, s-1)
		}
	}
	return nil
}

// PartitionEven splits L layers into S stages of near-equal layer count
// (stage s gets layers [s·L/S, (s+1)·L/S) — the same deterministic split
// parallelRows uses for row ranges).
func PartitionEven(L, S int) (Partition, error) {
	if L < 1 || S < 1 || S > L {
		return Partition{}, fmt.Errorf("graph: cannot split %d layers into %d stages", L, S)
	}
	bounds := make([]int, S+1)
	for s := 0; s <= S; s++ {
		bounds[s] = s * L / S
	}
	return Partition{L: L, Bounds: bounds}, nil
}

// PartitionBalanced splits L = len(costs) layers into S stages minimizing the
// maximum per-stage cost sum (what PipeDream's profiler-driven partitioner
// does). It binary-searches the bottleneck cost, packs stages greedily under
// it, then splits the last stage that still holds more than one layer until
// all S stages are used. Every step is deterministic, so equal costs always
// give equal boundaries.
func PartitionBalanced(costs []time.Duration, S int) (Partition, error) {
	L := len(costs)
	if L < 1 || S < 1 || S > L {
		return Partition{}, fmt.Errorf("graph: cannot split %d layers into %d stages", L, S)
	}
	var total, maxc time.Duration
	for i, c := range costs {
		if c < 0 {
			return Partition{}, fmt.Errorf("graph: negative layer cost %v at %d", c, i)
		}
		total += c
		maxc = max(maxc, c)
	}
	// feasible reports whether a partition with stage cost ≤ cap exists
	// using at most S stages.
	feasible := func(cap time.Duration) bool {
		stages, cur := 1, time.Duration(0)
		for _, c := range costs {
			if cur+c > cap {
				stages++
				cur = 0
			}
			cur += c
		}
		return stages <= S
	}
	lo, hi := maxc, total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Pack at the optimal cap; the greedy can use fewer than S stages.
	bounds := make([]int, 1, S+1)
	cur := time.Duration(0)
	for i, c := range costs {
		if cur+c > lo && len(bounds) < S {
			bounds = append(bounds, i)
			cur = 0
		}
		cur += c
	}
	bounds = append(bounds, L)
	// Until S stages are used, the last stage holding more than one layer
	// gives its final layer a stage of its own.
	for len(bounds) < S+1 {
		s := len(bounds) - 2
		for bounds[s+1]-bounds[s] == 1 {
			s--
		}
		bounds = slices.Insert(bounds, s+1, bounds[s+1]-1)
	}
	return Partition{L: L, Bounds: bounds}, nil
}
