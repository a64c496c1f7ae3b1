package graph

import (
	"math"
	"testing"
)

func TestPartitionEven(t *testing.T) {
	for L := 1; L <= 12; L++ {
		for S := 1; S <= L; S++ {
			p, err := PartitionEven(L, S)
			if err != nil {
				t.Fatalf("L=%d S=%d: %v", L, S, err)
			}
			if p.Stages() != S {
				t.Fatalf("L=%d S=%d: got %d stages", L, S, p.Stages())
			}
			covered := 0
			for s := 0; s < S; s++ {
				lo, hi := p.Range(s)
				if hi <= lo {
					t.Fatalf("L=%d S=%d: empty stage %d", L, S, s)
				}
				covered += hi - lo
				// Near-equal: no stage differs from another by more than one layer.
				if d := (hi - lo) - (p.Bounds[1] - p.Bounds[0]); d > 1 || d < -1 {
					t.Fatalf("L=%d S=%d: uneven stage sizes %v", L, S, p.Bounds)
				}
			}
			if covered != L {
				t.Fatalf("L=%d S=%d: covered %d layers", L, S, covered)
			}
		}
	}
	if _, err := PartitionEven(3, 4); err == nil {
		t.Fatal("expected error for more stages than layers")
	}
	if _, err := PartitionEven(3, 0); err == nil {
		t.Fatal("expected error for zero stages")
	}
}

func TestPartitionBounds(t *testing.T) {
	p, err := PartitionBounds(7, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.Range(1); lo != 2 || hi != 5 {
		t.Fatalf("stage 1 = [%d,%d)", lo, hi)
	}
	for _, bad := range [][]int{{0, 3}, {3, 3}, {5, 2}, {7}, {-1}} {
		if _, err := PartitionBounds(7, bad); err == nil {
			t.Fatalf("expected error for interior bounds %v", bad)
		}
	}
}

// bruteMaxCost enumerates all partitions to find the optimal max stage cost.
func bruteMaxCost(costs []float64, S int) float64 {
	L := len(costs)
	best := math.Inf(1)
	var rec func(start, stagesLeft int, worst float64)
	rec = func(start, stagesLeft int, worst float64) {
		if stagesLeft == 1 {
			var sum float64
			for _, c := range costs[start:] {
				sum += c
			}
			if sum > worst {
				worst = sum
			}
			if worst < best {
				best = worst
			}
			return
		}
		var sum float64
		for end := start + 1; end <= L-stagesLeft+1; end++ {
			sum += costs[end-1]
			w := worst
			if sum > w {
				w = sum
			}
			rec(end, stagesLeft-1, w)
		}
	}
	rec(0, S, 0)
	return best
}

func TestPartitionBalancedOptimal(t *testing.T) {
	cases := [][]float64{
		{1, 1, 1, 1, 1, 1},
		{5, 1, 1, 1, 1, 5},
		{1, 2, 3, 4, 5, 6, 7},
		{10, 1, 10, 1, 10},
		{0, 0, 3, 0, 0, 3},
	}
	for _, costs := range cases {
		for S := 1; S <= len(costs); S++ {
			p, err := PartitionBalanced(costs, S)
			if err != nil {
				t.Fatalf("costs=%v S=%d: %v", costs, S, err)
			}
			var got float64
			for s := 0; s < p.Stages(); s++ {
				lo, hi := p.Range(s)
				var sum float64
				for _, c := range costs[lo:hi] {
					sum += c
				}
				if sum > got {
					got = sum
				}
			}
			if want := bruteMaxCost(costs, S); got != want {
				t.Fatalf("costs=%v S=%d: max stage cost %v, optimal %v (bounds %v)", costs, S, got, want, p.Bounds)
			}
		}
	}
	if _, err := PartitionBalanced([]float64{1, -2, 1}, 2); err == nil {
		t.Fatal("expected error for negative cost")
	}
}
