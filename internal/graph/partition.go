package graph

import "fmt"

// Partition is a contiguous split of an L-layer network into pipeline stages.
// Stage s owns the 0-based layers [Bounds[s], Bounds[s+1]); Bounds therefore
// has Stages+1 entries, starts at 0, ends at L, and is strictly increasing
// (every stage owns at least one layer).
type Partition struct {
	L      int
	Bounds []int
}

// Stages returns the number of stages.
func (p Partition) Stages() int { return len(p.Bounds) - 1 }

// Range returns the layer range [lo, hi) of stage s.
func (p Partition) Range(s int) (lo, hi int) { return p.Bounds[s], p.Bounds[s+1] }

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
	p := Partition{L: L, Bounds: bounds}
	if err := p.Validate(); err != nil {
		return Partition{}, err
	}
	return p, nil
}

// PartitionBounds builds a partition from explicit interior boundaries
// (ascending 0-based layer indices where each new stage starts), e.g.
// L=7, interior [2,5] → stages [0,2) [2,5) [5,7).
func PartitionBounds(L int, interior []int) (Partition, error) {
	bounds := make([]int, 0, len(interior)+2)
	bounds = append(bounds, 0)
	bounds = append(bounds, interior...)
	bounds = append(bounds, L)
	p := Partition{L: L, Bounds: bounds}
	if err := p.Validate(); err != nil {
		return Partition{}, err
	}
	return p, nil
}

// PartitionBalanced splits L = len(costs) layers into S stages minimizing the
// maximum per-stage cost sum (the classic linear-partition problem, solved
// exactly by DP) — the training-side analogue of the simulator's
// core.BalancedAllocation for profiled real layer costs. Ties prefer the
// earliest feasible boundary, so the result is deterministic.
func PartitionBalanced(costs []float64, S int) (Partition, error) {
	L := len(costs)
	if L < 1 || S < 1 || S > L {
		return Partition{}, fmt.Errorf("graph: cannot split %d layers into %d stages", L, S)
	}
	prefix := make([]float64, L+1)
	for i, c := range costs {
		if c < 0 {
			return Partition{}, fmt.Errorf("graph: negative layer cost %v at %d", c, i)
		}
		prefix[i+1] = prefix[i] + c
	}
	// best[s][i]: minimal max-stage-cost splitting the first i layers into s
	// stages, with every stage nonempty. cut[s][i]: the chosen boundary.
	const inf = 1e308
	best := make([][]float64, S+1)
	cut := make([][]int, S+1)
	for s := 0; s <= S; s++ {
		best[s] = make([]float64, L+1)
		cut[s] = make([]int, L+1)
		for i := range best[s] {
			best[s][i] = inf
		}
	}
	for i := 1; i <= L; i++ {
		best[1][i] = prefix[i]
	}
	for s := 2; s <= S; s++ {
		for i := s; i <= L; i++ {
			for j := s - 1; j < i; j++ { // last stage = layers [j, i)
				if best[s-1][j] >= inf {
					continue
				}
				cand := best[s-1][j]
				if last := prefix[i] - prefix[j]; last > cand {
					cand = last
				}
				if cand < best[s][i] {
					best[s][i] = cand
					cut[s][i] = j
				}
			}
		}
	}
	bounds := make([]int, S+1)
	bounds[S] = L
	for s := S; s >= 2; s-- {
		bounds[s-1] = cut[s][bounds[s]]
	}
	p := Partition{L: L, Bounds: bounds}
	if err := p.Validate(); err != nil {
		return Partition{}, err
	}
	return p, nil
}
