package core

import (
	"math"
	"testing"
)

// tieMeasures are measures full of exact ties: plateaus, and deterministic
// noise on which the heuristic may settle on a local optimum — but always the
// same one.
var tieMeasures = []struct {
	name string
	fn   func(L int) func(k int) float64
}{
	{"plateau", func(L int) func(int) float64 {
		return func(int) float64 { return 1 }
	}},
	{"two-plateaus", func(L int) func(int) float64 {
		// Half the grid shares the top value: the first grid point of the
		// upper plateau must win.
		return func(k int) float64 {
			if k >= L/2 {
				return 2
			}
			return 1
		}
	}},
	{"quantized-noise", func(L int) func(int) float64 {
		// Deterministic pseudo-noise collapsed onto 3 levels: many exact
		// ties at every scale the refinement probes.
		return func(k int) float64 {
			h := uint64(k)*2654435761 + 0x9e3779b9
			h ^= h >> 13
			return float64(h % 3)
		}
	}},
	{"concave-with-ties", func(L int) func(int) float64 {
		// Concave ridge flattened by quantization, the usual shape the
		// planner sees plus plateaus around the peak.
		return func(k int) float64 {
			x := float64(k) / float64(L)
			return math.Floor(20 * (1 - (x-0.6)*(x-0.6)))
		}
	}},
}

// TestSearchKTieBreak: among the depths it probed, SearchK returns the one
// probed first with the highest value — a later tie never displaces the
// incumbent — so the winner is a function of the measure alone.
func TestSearchKTieBreak(t *testing.T) {
	for _, L := range []int{5, 37, 128} {
		for _, m := range tieMeasures {
			fn := m.fn(L)
			var order []int
			got := SearchK(L, func(k int) float64 {
				order = append(order, k)
				return fn(k)
			})
			want := order[0]
			for _, k := range order[1:] {
				if fn(k) > fn(want) {
					want = k
				}
			}
			if got != want {
				t.Errorf("L=%d measure=%s: SearchK picked k=%d, first-probed maximum is k=%d (probes %v)",
					L, m.name, got, want, order)
			}
		}
	}
	if got := SearchK(128, tieMeasures[0].fn(128)); got != 0 {
		t.Errorf("plateau: SearchK picked k=%d, want the first grid point 0", got)
	}
	if got := SearchK(128, tieMeasures[1].fn(128)); got != 72 {
		t.Errorf("two-plateaus: SearchK picked k=%d, want 72, the first grid point ≥ L/2", got)
	}
}

// TestSearchKProbeSet: the probe set — the planner's cost, and the count
// ablation-ksweep prints — holds every coarse grid point, stays inside
// [0, L), and never measures a depth twice.
func TestSearchKProbeSet(t *testing.T) {
	for _, L := range []int{1, 2, 9, 50, 101, 152} {
		for _, m := range tieMeasures {
			fn := m.fn(L)
			seen := make(map[int]int)
			SearchK(L, func(k int) float64 {
				seen[k]++
				return fn(k)
			})
			for k, n := range seen {
				if k < 0 || k >= L {
					t.Fatalf("L=%d measure=%s: probed k=%d outside [0, %d)", L, m.name, k, L)
				}
				if n != 1 {
					t.Fatalf("L=%d measure=%s: measured k=%d %d times, want memoized", L, m.name, k, n)
				}
			}
			dk := max(L/10, 1)
			for k := 0; k < L; k += dk {
				if seen[k] == 0 {
					t.Fatalf("L=%d measure=%s: coarse grid point k=%d not probed", L, m.name, k)
				}
			}
		}
	}
}
