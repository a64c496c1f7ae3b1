package gpusim

import (
	"testing"
	"testing/quick"
	"time"

	"oooback/internal/sim"
)

func testGPU(eng *sim.Engine) *GPU {
	return New(eng, Config{Name: "test", SMCapacity: 1000, KernelSetup: 0})
}

func TestSingleKernelRunsForItsDuration(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	s := g.NewStream("main", 0)
	var done sim.Time
	s.Submit(&Kernel{Name: "k", Blocks: 100, Dur: 10 * time.Microsecond,
		OnDone: func() { done = eng.Now() }})
	eng.Run()
	if done != 10*time.Microsecond {
		t.Fatalf("done at %v, want 10µs", done)
	}
}

func TestKernelSetupOverhead(t *testing.T) {
	eng := sim.New()
	g := New(eng, Config{Name: "t", SMCapacity: 1000, KernelSetup: 2 * time.Microsecond})
	s := g.NewStream("main", 0)
	var done sim.Time
	for i := 0; i < 3; i++ {
		s.Submit(&Kernel{Name: "k", Blocks: 10, Dur: 10 * time.Microsecond,
			OnDone: func() { done = eng.Now() }})
	}
	eng.Run()
	// 3 × (2µs setup + 10µs exec), back to back on one stream.
	if want := 36 * time.Microsecond; done != want {
		t.Fatalf("done at %v, want %v", done, want)
	}
}

func TestStreamInOrder(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	s := g.NewStream("main", 0)
	var order []string
	s.Submit(&Kernel{Name: "a", Blocks: 1, Dur: 5 * time.Microsecond,
		OnDone: func() { order = append(order, "a") }})
	s.Submit(&Kernel{Name: "b", Blocks: 1, Dur: 1 * time.Microsecond,
		OnDone: func() { order = append(order, "b") }})
	eng.Run()
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestLowOccupancyKernelsOverlapPerfectly(t *testing.T) {
	// Two 400-block kernels on a 1000-slot GPU co-run at full rate:
	// makespan 10µs, not 20µs. This is the §8.2 R5 effect.
	eng := sim.New()
	g := testGPU(eng)
	s1 := g.NewStream("main", 0)
	s2 := g.NewStream("sub", 1)
	var ends []sim.Time
	mk := func() *Kernel {
		return &Kernel{Name: "k", Blocks: 400, Dur: 10 * time.Microsecond,
			OnDone: func() { ends = append(ends, eng.Now()) }}
	}
	s1.Submit(mk())
	s2.Submit(mk())
	end := eng.Run()
	if end != 10*time.Microsecond {
		t.Fatalf("makespan = %v, want 10µs (full overlap)", end)
	}
	if len(ends) != 2 {
		t.Fatalf("completions = %d, want 2", len(ends))
	}
}

func TestSaturatingKernelsShareCapacity(t *testing.T) {
	// Two kernels each demanding the full 1000 slots: equal priority
	// processor sharing means both finish at 20µs.
	eng := sim.New()
	g := testGPU(eng)
	s1 := g.NewStream("a", 0)
	s2 := g.NewStream("b", 0)
	var ends []sim.Time
	mk := func() *Kernel {
		return &Kernel{Name: "k", Blocks: 1000, Dur: 10 * time.Microsecond,
			OnDone: func() { ends = append(ends, eng.Now()) }}
	}
	s1.Submit(mk())
	s2.Submit(mk())
	end := eng.Run()
	if end != 20*time.Microsecond {
		t.Fatalf("makespan = %v, want 20µs (halved rate)", end)
	}
}

func TestPriorityStreamGetsCapacityFirst(t *testing.T) {
	// Main stream (prio 0) saturates the GPU; the sub stream (prio 1) only
	// scavenges the tail slots while main runs, then finishes alone. Main is
	// never slowed.
	eng := sim.New()
	g := testGPU(eng)
	main := g.NewStream("main", 0)
	sub := g.NewStream("sub", 1)
	var mainEnd, subEnd sim.Time
	main.Submit(&Kernel{Name: "big", Blocks: 1000, Dur: 10 * time.Microsecond,
		OnDone: func() { mainEnd = eng.Now() }})
	sub.Submit(&Kernel{Name: "starved", Blocks: 1000, Dur: 5 * time.Microsecond,
		OnDone: func() { subEnd = eng.Now() }})
	eng.Run()
	if mainEnd != 10*time.Microsecond {
		t.Fatalf("main end = %v, want 10µs (undisturbed)", mainEnd)
	}
	// Tail slots let sub progress ~7% during main: done between the
	// serialized bound (15µs) and main's end.
	if subEnd <= 10*time.Microsecond || subEnd >= 15*time.Microsecond {
		t.Fatalf("sub end = %v, want in (10µs, 15µs)", subEnd)
	}
}

func TestPartialOverlapWithPriority(t *testing.T) {
	// Main uses 600/1000 blocks, sub demands 1000: sub gets 400 slots → rate
	// 0.4 while main runs. Main: 10µs. Sub work 5µs: 10µs×0.4 = 4µs done,
	// 1µs left at full rate → ends at 11µs.
	eng := sim.New()
	g := testGPU(eng)
	main := g.NewStream("main", 0)
	sub := g.NewStream("sub", 1)
	var subEnd sim.Time
	main.Submit(&Kernel{Name: "m", Blocks: 600, Dur: 10 * time.Microsecond})
	sub.Submit(&Kernel{Name: "s", Blocks: 1000, Dur: 5 * time.Microsecond,
		OnDone: func() { subEnd = eng.Now() }})
	eng.Run()
	if subEnd != 11*time.Microsecond {
		t.Fatalf("sub end = %v, want 11µs", subEnd)
	}
}

func TestEventsOrderAcrossStreams(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	s1 := g.NewStream("a", 0)
	s2 := g.NewStream("b", 0)
	ev := g.NewEvent()
	var order []string
	s2.Submit(&Kernel{Name: "second", Blocks: 1, Dur: time.Microsecond, Waits: []*Event{ev},
		OnDone: func() { order = append(order, "second") }})
	s1.Submit(&Kernel{Name: "first", Blocks: 1, Dur: 5 * time.Microsecond, Record: []*Event{ev},
		OnDone: func() { order = append(order, "first") }})
	eng.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

func TestEventFireTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double fire")
		}
	}()
	e := &Event{}
	e.Fire()
	e.Fire()
}

func TestIssueGraphAmortizesLaunch(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	s := g.NewStream("main", 0)
	l := NewLauncher(eng, time.Microsecond)
	var items []GraphItem
	for i := 0; i < 5; i++ {
		items = append(items, GraphItem{Stream: s, Kernel: &Kernel{Name: "k", Blocks: 10, Dur: time.Microsecond}})
	}
	l.IssueGraph("step", items)
	end := eng.Run()
	// One 1µs graph launch + 5 sequential 1µs kernels.
	if want := 6 * time.Microsecond; end != want {
		t.Fatalf("makespan = %v, want %v (exec bound)", end, want)
	}
}

func TestSpanSinkObservesExecution(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	var spans []string
	g.SpanSink = func(stream, kernel string, start, end sim.Time) {
		spans = append(spans, stream+"/"+kernel)
	}
	s := g.NewStream("main", 0)
	s.Submit(&Kernel{Name: "k1", Blocks: 1, Dur: time.Microsecond})
	eng.Run()
	if len(spans) != 1 || spans[0] != "main/k1" {
		t.Fatalf("spans = %v", spans)
	}
}

// Property: for any batch of kernels on one stream with zero setup, makespan
// equals the sum of durations (in-order execution, no overlap on one stream).
func TestSingleStreamMakespanProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		eng := sim.New()
		g := testGPU(eng)
		s := g.NewStream("main", 0)
		var total time.Duration
		for _, d := range durs {
			dur := time.Duration(d) * time.Microsecond
			total += dur
			s.Submit(&Kernel{Name: "k", Blocks: 500, Dur: dur})
		}
		return eng.Run() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: co-scheduling a sub-stream kernel never delays an equal-length
// main-stream kernel beyond its standalone time when the main stream has
// higher priority.
func TestPriorityIsolationProperty(t *testing.T) {
	f := func(mainBlocks, subBlocks uint16, durUS uint8) bool {
		if durUS == 0 {
			durUS = 1
		}
		mb := int(mainBlocks%2000) + 1
		sb := int(subBlocks%2000) + 1
		dur := time.Duration(durUS) * time.Microsecond
		eng := sim.New()
		g := testGPU(eng)
		main := g.NewStream("main", 0)
		sub := g.NewStream("sub", 1)
		var mainEnd sim.Time
		main.Submit(&Kernel{Name: "m", Blocks: mb, Dur: dur, OnDone: func() { mainEnd = eng.Now() }})
		sub.Submit(&Kernel{Name: "s", Blocks: sb, Dur: dur})
		eng.Run()
		return mainEnd == dur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceConfigs(t *testing.T) {
	for _, cfg := range []Config{V100(), TitanXP(), P100()} {
		if cfg.SMCapacity <= 0 || cfg.KernelSetup <= 0 || cfg.MemoryBytes <= 0 {
			t.Fatalf("degenerate config %+v", cfg)
		}
	}
	if V100().SMCapacity <= P100().SMCapacity {
		t.Fatal("V100 should have more thread-block slots than P100")
	}
}

func TestWaitOnAlreadyFiredEvent(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	s := g.NewStream("main", 0)
	ev := g.NewEvent()
	ev.Fire()
	done := false
	s.Submit(&Kernel{Name: "k", Blocks: 1, Dur: time.Microsecond, Waits: []*Event{ev},
		OnDone: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("kernel waiting on fired event never ran")
	}
}

func TestNegativeKernelDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng := sim.New()
	g := testGPU(eng)
	g.NewStream("main", 0).Submit(&Kernel{Name: "bad", Dur: -1})
}

func TestZeroSMCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.New(), Config{Name: "bad"})
}

func TestSMUtilization(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng) // capacity 1000
	s := g.NewStream("main", 0)
	// 500 blocks for 10µs, then idle 10µs (one kernel, makespan measured at 20µs).
	s.Submit(&Kernel{Name: "half", Blocks: 500, Dur: 10 * time.Microsecond})
	eng.Run()
	// Over 20µs: 500/1000 busy for half the window = 0.25.
	if got := g.SMUtilization(20 * time.Microsecond); got < 0.24 || got > 0.26 {
		t.Fatalf("SM utilization = %v, want ≈ 0.25", got)
	}
	// Over the exact 10µs busy window: 0.5.
	if got := g.SMUtilization(10 * time.Microsecond); got < 0.49 || got > 0.51 {
		t.Fatalf("SM utilization = %v, want ≈ 0.5", got)
	}
}

func TestSMUtilizationOverlapCounts(t *testing.T) {
	eng := sim.New()
	g := testGPU(eng)
	a := g.NewStream("a", 0)
	b := g.NewStream("b", 1)
	a.Submit(&Kernel{Name: "x", Blocks: 600, Dur: 10 * time.Microsecond})
	b.Submit(&Kernel{Name: "y", Blocks: 400, Dur: 10 * time.Microsecond})
	end := eng.Run()
	// Both co-run at full rate: 1000/1000 for the whole makespan.
	if got := g.SMUtilization(end); got < 0.99 {
		t.Fatalf("SM utilization = %v, want ≈ 1.0", got)
	}
}
