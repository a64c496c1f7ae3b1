package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBusyTimeMergesOverlaps(t *testing.T) {
	tr := &Trace{}
	tr.Add("g0", "a", "fwd", 0, 10)
	tr.Add("g0", "b", "fwd", 5, 15)  // overlaps a
	tr.Add("g0", "c", "fwd", 20, 30) // disjoint
	if got := tr.BusyTime("g0"); got != 25 {
		t.Fatalf("BusyTime = %v, want 25", got)
	}
}

func TestBusyTimeTouchingSpans(t *testing.T) {
	tr := &Trace{}
	tr.Add("g0", "a", "fwd", 0, 10)
	tr.Add("g0", "b", "fwd", 10, 20)
	if got := tr.BusyTime("g0"); got != 20 {
		t.Fatalf("BusyTime = %v, want 20", got)
	}
}

func TestUtilization(t *testing.T) {
	tr := &Trace{}
	tr.Add("g0", "a", "fwd", 0, 50)
	tr.Add("g1", "b", "fwd", 0, 100)
	if got := tr.Utilization("g0"); got != 0.5 {
		t.Fatalf("Utilization(g0) = %v, want 0.5", got)
	}
}

func TestMakespan(t *testing.T) {
	tr := &Trace{}
	tr.Add("g0", "a", "dW", 0, 7)
	tr.Add("g1", "b", "dW", 3, 12)
	if tr.Makespan() != 12 {
		t.Fatalf("Makespan = %v, want 12", tr.Makespan())
	}
}

func TestLanesOrder(t *testing.T) {
	tr := &Trace{}
	tr.Add("b", "x", "fwd", 0, 1)
	tr.Add("a", "y", "fwd", 1, 2)
	tr.Add("b", "z", "fwd", 2, 3)
	lanes := tr.Lanes()
	if len(lanes) != 2 || lanes[0] != "b" || lanes[1] != "a" {
		t.Fatalf("Lanes = %v, want [b a]", lanes)
	}
}

func TestAddBackwardsSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for backwards span")
		}
	}()
	tr := &Trace{}
	tr.Add("g0", "bad", "fwd", 10, 5)
}

func TestRenderContainsLanesAndMakespan(t *testing.T) {
	tr := &Trace{}
	tr.Add("GPU0", "1", "fwd", 0, time.Microsecond)
	tr.Add("GPU1", "2", "dO", time.Microsecond, 2*time.Microsecond)
	out := tr.Render(20)
	if !strings.Contains(out, "GPU0") || !strings.Contains(out, "GPU1") {
		t.Fatalf("render missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "F") || !strings.Contains(out, "O") {
		t.Fatalf("render missing span cells:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Fatalf("render missing makespan:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	tr := &Trace{}
	if got := tr.Render(0); got != "(empty trace)\n" {
		t.Fatalf("empty render = %q", got)
	}
}

// Property: BusyTime never exceeds makespan, and utilization is within [0,1],
// for arbitrary span sets on one lane.
func TestBusyTimeBoundsProperty(t *testing.T) {
	f := func(pairs []struct{ A, B uint16 }) bool {
		tr := &Trace{}
		for _, p := range pairs {
			lo, hi := time.Duration(p.A), time.Duration(p.B)
			if lo > hi {
				lo, hi = hi, lo
			}
			tr.Add("lane", "s", "fwd", lo, hi)
		}
		busy := tr.BusyTime("lane")
		if busy < 0 || busy > tr.Makespan() {
			return false
		}
		u := tr.Utilization("lane")
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: BusyTime of a union of disjoint unit spans equals their count.
func TestBusyTimeDisjointProperty(t *testing.T) {
	f := func(n uint8) bool {
		tr := &Trace{}
		for i := 0; i < int(n); i++ {
			start := time.Duration(i * 2)
			tr.Add("lane", "s", "fwd", start, start+1)
		}
		return tr.BusyTime("lane") == time.Duration(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
