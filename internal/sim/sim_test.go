package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie break not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var fired []time.Duration
	e.Schedule(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("nested fire times = %v, want [15]", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestStepFiresOneEventAtATime(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on an empty queue reported an event")
	}
	var got []int
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(30, func() { got = append(got, 3) })
	if !e.Step() || !e.Step() {
		t.Fatal("Step with events queued reported none")
	}
	if len(got) != 2 || e.Now() != 20 {
		t.Fatalf("two Steps fired %v and left Now = %v, want [1 2] at 20", got, e.Now())
	}
	if n := len(e.heap); n != 1 {
		t.Fatalf("queued after two Steps = %d, want 1", n)
	}
	if end := e.Run(); end != 30 || len(got) != 3 {
		t.Fatalf("Run after Steps fired %v and ended at %v, want [1 2 3] at 30", got, end)
	}
	if e.Step() || e.Now() != 30 {
		t.Fatalf("Step on the drained queue moved the clock to %v", e.Now())
	}
}

func TestAfterNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-time.Nanosecond, func() {})
}

func TestServerFIFOWithinPriority(t *testing.T) {
	e := New()
	s := NewServer(e)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(0, 10, func(start, end Time) { order = append(order, i) })
	}
	end := e.Run()
	if end != 50 {
		t.Fatalf("makespan = %v, want 50", end)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestServerPriorityPreemptsQueueNotService(t *testing.T) {
	e := New()
	s := NewServer(e)
	var order []string
	s.Submit(1, 10, func(_, _ Time) { order = append(order, "low1") })
	s.Submit(1, 10, func(_, _ Time) { order = append(order, "low2") })
	// Arrives while low1 is in service; must jump ahead of low2 but not
	// preempt low1.
	e.Schedule(5, func() {
		s.Submit(0, 10, func(start, _ Time) {
			if start != 10 {
				t.Errorf("high started at %v, want 10", start)
			}
			order = append(order, "high")
		})
	})
	e.Run()
	want := []string{"low1", "high", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestServerIdleThenBusy(t *testing.T) {
	e := New()
	s := NewServer(e)
	var starts []Time
	s.Submit(0, 5, func(start, _ Time) { starts = append(starts, start) })
	e.Schedule(100, func() {
		s.Submit(0, 5, func(start, _ Time) { starts = append(starts, start) })
	})
	e.Run()
	if starts[0] != 0 || starts[1] != 100 {
		t.Fatalf("starts = %v, want [0 100]", starts)
	}
}

func TestGate(t *testing.T) {
	fired := false
	g := NewGate(3, func() { fired = true })
	g.Done()
	g.Done()
	if fired {
		t.Fatal("gate fired early")
	}
	g.Done()
	if !fired {
		t.Fatal("gate did not fire")
	}
	g.Done() // extra Done is a no-op
}

func TestGateZero(t *testing.T) {
	fired := false
	NewGate(0, func() { fired = true })
	if !fired {
		t.Fatal("zero gate did not fire immediately")
	}
}

// Property: for any set of non-negative service times submitted at time zero
// with equal priority, the server's makespan equals their sum and service is
// back-to-back.
func TestServerMakespanProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		e := New()
		s := NewServer(e)
		var total Time
		prevEnd := Time(0)
		ok := true
		for _, d := range durs {
			d := Time(d)
			total += d
			s.Submit(0, d, func(start, end Time) {
				if start != prevEnd {
					ok = false
				}
				prevEnd = end
			})
		}
		end := e.Run()
		return ok && end == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing time order regardless of insertion
// order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var fired []Time
		for _, at := range times {
			e.Schedule(Time(at), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineReset(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(10, func() { fired = true })
	e.Schedule(20, func() { fired = true })
	e.Reset()
	if n := len(e.heap); n != 0 {
		t.Fatalf("%d events queued after Reset, want 0", n)
	}
	if end := e.Run(); end != 0 || fired {
		t.Fatalf("Reset did not drop events: end=%v fired=%v", end, fired)
	}
	// The engine is fully reusable: time and sequence restart.
	var got []int
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 2) })
	if end := e.Run(); end != 5 {
		t.Fatalf("end after reuse = %v, want 5", end)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired after Reset = %v, want [1 2] in FIFO order", got)
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	h1 := e.Schedule(10, func() {})
	e.Run() // h1 fires; its slot returns to the free list
	fired := false
	e.Reset()
	e.Schedule(30, func() { fired = true }) // reuses h1's slot
	h1.Cancel()                             // stale: must not cancel the new event
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled a recycled event")
	}
}

func TestCancelledHandleAfterReset(t *testing.T) {
	e := New()
	h := e.Schedule(10, func() { t.Error("dropped event fired") })
	e.Reset()
	h.Cancel() // stale after Reset: no-op, must not corrupt the queue
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event scheduled after Reset did not fire")
	}
}

func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := New()
	var evs []Event
	for i := 0; i < 5; i++ {
		evs = append(evs, e.Schedule(Time(10*(i+1)), func() {}))
	}
	if n := len(e.heap); n != 5 {
		t.Fatalf("queued = %d, want 5", n)
	}
	evs[1].Cancel()
	evs[3].Cancel()
	evs[3].Cancel() // double cancel is a no-op
	if n := len(e.heap); n != 3 {
		t.Fatalf("queued after cancels = %d, want 3", n)
	}
	e.Step()
	if n := len(e.heap); n != 2 {
		t.Fatalf("queued after step = %d, want 2", n)
	}
	e.Run()
	if n := len(e.heap); n != 0 {
		t.Fatalf("queued after drain = %d, want 0", n)
	}
}

func TestCancelMiddleKeepsOrder(t *testing.T) {
	e := New()
	var got []int
	var h Event
	for i := 0; i < 10; i++ {
		i := i
		ev := e.Schedule(Time(i%3), func() { got = append(got, i) })
		if i == 4 {
			h = ev
		}
	}
	h.Cancel()
	e.Run()
	want := []int{0, 3, 6, 9, 1, 7, 2, 5, 8} // by (time, seq), minus i=4
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleAllocsAmortizedZero(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the arena.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	e.Run()
	e.Reset()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(Time(i), fn)
		}
		e.Run()
		e.Reset()
	})
	if avg != 0 {
		t.Fatalf("warm Schedule/Run/Reset allocated %.1f per run, want 0", avg)
	}
}

func TestServerSubmitAllocsAmortizedZero(t *testing.T) {
	e := New()
	s := NewServer(e)
	done := func(start, end Time) {}
	for i := 0; i < 32; i++ {
		s.Submit(i%4, 1, done)
	}
	e.Run()
	e.Reset()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.Submit(i%4, 1, done)
		}
	})
	// The queue heap itself must not allocate; the dispatch closure in the
	// engine event is the only allocation left (2 words per service).
	if avg > 3 {
		t.Fatalf("warm Submit allocated %.1f per run, want ≤ 3", avg)
	}
	e.Run()
}
