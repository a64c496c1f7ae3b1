package core

import (
	"testing"
	"testing/quick"
	"time"

	"oooback/internal/graph"
	"oooback/internal/models"
)

func TestModuloAllocationDefaultsGroup(t *testing.T) {
	out := ModuloAllocation(4, 2, 0) // group ≤ 0 defaults to 1
	want := []int{0, 1, 0, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("alloc = %v", out)
		}
	}
}

func TestPairSpeedupStarvedFloor(t *testing.T) {
	// Main kernels saturate the device; the floor keeps the speedup ≥ 1.
	s := PairSpeedup(5000, 5000, 1520, 100*time.Microsecond, 100*time.Microsecond)
	if s < 1 {
		t.Fatalf("speedup %v below 1", s)
	}
}

// Property: PairSpeedup is always in [1, 2].
func TestPairSpeedupRangeProperty(t *testing.T) {
	f := func(mb, sb uint16, tm, ts uint8) bool {
		s := PairSpeedup(int(mb)+1, int(sb)+1, 1520,
			time.Duration(tm)*time.Microsecond, time.Duration(ts)*time.Microsecond)
		return s >= 1 && s <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRegionJointEmptyInput(t *testing.T) {
	out := MultiRegionJoint(JointInput{TMain: []time.Duration{10}})
	if len(out.Regions) != 1 || len(out.Regions[0]) != 0 || len(out.Overflow) != 0 {
		t.Fatalf("empty input output: %+v", out)
	}
}

func TestMakespanLowerBoundNoSync(t *testing.T) {
	c := unitCosts(4, 0)
	if got := MakespanLowerBound(c); got != 12*time.Millisecond {
		t.Fatalf("bound = %v, want pure compute 12ms", got)
	}
}

// Property: no legal schedule, priority policy or preemption setting beats
// the lower bound.
func TestMakespanNeverBeatsBoundProperty(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 8, 512, 64)
	f := func(sync uint16, kRaw, prioSel uint8, preemptive bool) bool {
		L := 8
		c := unitCosts(L, time.Duration(sync)*10*time.Microsecond)
		bound := MakespanLowerBound(c)
		k := int(kRaw) % (L + 1)
		var prio func(int) int
		if prioSel%2 == 0 {
			prio = func(l int) int { return l }
		} else {
			prio = func(int) int { return 0 }
		}
		for _, order := range []graph.BackwardSchedule{
			graph.Conventional(L),
			ReverseFirstK(m, k, 0),
			FastForward(L),
			ListSchedule(c),
		} {
			r := SimulateIteration(c, order, prio, preemptive)
			if r.Makespan < bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateIterationOverlappedBounds(t *testing.T) {
	L := 6
	c := unitCosts(L, 2*time.Millisecond)
	prio := func(l int) int { return l }
	order := graph.Conventional(L)
	all := SimulateIteration(c, order, prio, true)
	var s IterScratch
	none := s.SimulateIterationOverlapped(c, order, prio, true, func(int) bool { return false })
	some := s.SimulateIterationOverlapped(c, order, prio, true, func(l int) bool { return l > 3 })
	if none.Makespan != all.Makespan {
		t.Fatalf("no-overlap variant diverged: %v vs %v", none.Makespan, all.Makespan)
	}
	if some.Makespan > all.Makespan {
		t.Fatalf("overlapping δW lengthened the iteration: %v vs %v", some.Makespan, all.Makespan)
	}
}
