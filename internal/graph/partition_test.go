package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
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

func TestPartitionValidate(t *testing.T) {
	p := Partition{L: 7, Bounds: []int{0, 2, 5, 7}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.Range(1); lo != 2 || hi != 5 {
		t.Fatalf("stage 1 = [%d,%d)", lo, hi)
	}
	for _, bad := range []Partition{
		{L: 7, Bounds: []int{0, 0, 3, 7}},
		{L: 7, Bounds: []int{0, 3, 3, 7}},
		{L: 7, Bounds: []int{0, 5, 2, 7}},
		{L: 7, Bounds: []int{0, 7, 7}},
		{L: 7, Bounds: []int{0, -1, 7}},
		{L: 7, Bounds: []int{1, 7}},
		{L: 7, Bounds: []int{0, 6}},
		{L: 7, Bounds: []int{0}},
		{L: 0, Bounds: []int{0, 0}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("expected error for %+v", bad)
		}
	}
}

func TestPartitionAlloc(t *testing.T) {
	p := Partition{L: 7, Bounds: []int{0, 2, 5, 7}}
	if got, want := p.Alloc(), []int{0, 0, 1, 1, 1, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("Alloc = %v, want %v", got, want)
	}
}

// bruteMaxCost enumerates all partitions to find the optimal max stage cost.
func bruteMaxCost(costs []time.Duration, S int) time.Duration {
	L := len(costs)
	best := time.Duration(math.MaxInt64)
	var rec func(start, stagesLeft int, worst time.Duration)
	rec = func(start, stagesLeft int, worst time.Duration) {
		if stagesLeft == 1 {
			var sum time.Duration
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
		var sum time.Duration
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
	cases := [][]time.Duration{
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
			if err := p.Validate(); err != nil || p.Stages() != S {
				t.Fatalf("costs=%v S=%d: bounds %v (%v)", costs, S, p.Bounds, err)
			}
			var got time.Duration
			for s := 0; s < p.Stages(); s++ {
				lo, hi := p.Range(s)
				var sum time.Duration
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
	if _, err := PartitionBalanced([]time.Duration{1, -2, 1}, 2); err == nil {
		t.Fatal("expected error for negative cost")
	}
}

func TestPartitionBalancedUniform(t *testing.T) {
	costs := make([]time.Duration, 8)
	for i := range costs {
		costs[i] = time.Millisecond
	}
	p, err := PartitionBalanced(costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform costs: two layers per stage.
	if want := []int{0, 2, 4, 6, 8}; !slices.Equal(p.Bounds, want) {
		t.Fatalf("bounds = %v, want %v", p.Bounds, want)
	}
}

func TestPartitionBalancedHeavyTail(t *testing.T) {
	// One huge layer at the end: it must get its own stage, and the light
	// layers share the other.
	p, err := PartitionBalanced([]time.Duration{1, 1, 1, 1, 1, 1, 1, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 7, 8}; !slices.Equal(p.Bounds, want) {
		t.Fatalf("bounds = %v, want %v", p.Bounds, want)
	}
}

func TestPartitionBalancedRejectsStageCount(t *testing.T) {
	for _, S := range []int{-1, 0, 3, 8} {
		if _, err := PartitionBalanced([]time.Duration{5, 5}, S); err == nil {
			t.Fatalf("expected error for %d stages over 2 layers", S)
		}
	}
	if _, err := PartitionBalanced(nil, 1); err == nil {
		t.Fatal("expected error for no layers")
	}
}

// Property: the partition is valid, uses exactly S stages, and its
// bottleneck stage cost is within 2× of the ideal (total/S) plus the largest
// layer (a standard greedy bound).
func TestPartitionBalancedProperty(t *testing.T) {
	f := func(raw []uint8, sRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		S := min(int(sRaw%8)+1, len(raw))
		costs := make([]time.Duration, len(raw))
		var total, maxc time.Duration
		for i, r := range raw {
			costs[i] = time.Duration(r) + 1
			total += costs[i]
			maxc = max(maxc, costs[i])
		}
		p, err := PartitionBalanced(costs, S)
		if err != nil || p.Validate() != nil || p.Stages() != S || p.L != len(costs) {
			return false
		}
		var bottleneck time.Duration
		for s := 0; s < S; s++ {
			lo, hi := p.Range(s)
			var sum time.Duration
			for _, c := range costs[lo:hi] {
				sum += c
			}
			bottleneck = max(bottleneck, sum)
		}
		return bottleneck <= 2*total/time.Duration(S)+maxc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
