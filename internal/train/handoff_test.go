package train

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
)

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestRecvSoon pins the poll helper's contract: a waiting value is returned;
// a closed channel reads as closed, never as a value; an empty channel gives
// up within the bound and backs off — 1, 3, 7, … receives skipped after
// consecutive misses, reset by the first hit; one processor never polls.
func TestRecvSoon(t *testing.T) {
	atProcs(2, func() {
		var p poller
		ch := make(chan int, 1)
		ch <- 7
		if v, ok := recvSoon(ch, &p); !ok || v != 7 {
			t.Fatalf("waiting value: got %d, %v", v, ok)
		}

		closed := make(chan int)
		close(closed)
		if v, ok := recvSoon(closed, &p); ok || v != 0 {
			t.Fatalf("closed channel read as a value: %d, %v", v, ok)
		}
		if _, ok := recvHot(closed, &p); ok {
			t.Fatal("recvHot reports a closed channel as open")
		}
		if p.misses != 0 || p.skip != 0 {
			t.Fatalf("a close counted as a miss: %+v", p)
		}

		for miss, wantSkip := range []uint8{1, 3, 7} {
			t0 := time.Now()
			if _, ok := recvSoon(ch, &p); ok {
				t.Fatal("empty channel produced a value")
			}
			if d := time.Since(t0); d < handoffPoll {
				t.Fatalf("miss %d: poll gave up after %v, bound %v", miss, d, handoffPoll)
			}
			if p.skip != wantSkip {
				t.Fatalf("miss %d: skipping %d receives, want %d", miss, p.skip, wantSkip)
			}
			for left := p.skip; left > 0; left-- {
				// A backed-off receive does not poll: it leaves the miss count
				// alone and only counts itself off.
				if _, ok := recvSoon(ch, &p); ok || p.skip != left-1 || p.misses != uint8(miss+1) {
					t.Fatalf("backed-off receive: ok=%v %+v, want skip %d", ok, p, left-1)
				}
			}
		}
		ch <- 1
		if _, ok := recvSoon(ch, &p); !ok || p.misses != 0 {
			t.Fatalf("hit after misses: ok=%v %+v", ok, p)
		}

		// A value sent while the poll is running is picked up without a park.
		go func() {
			time.Sleep(handoffPoll / 5)
			ch <- 9
		}()
		if v, ok := recvHot(ch, &p); !ok || v != 9 {
			t.Fatalf("recvHot: got %d, %v", v, ok)
		}
	})
	atProcs(1, func() {
		var p poller
		if _, ok := recvSoon(make(chan int), &p); ok || p != (poller{}) {
			t.Fatalf("one processor: polled (ok=%v, %+v)", ok, p)
		}
	})
}

// TestExecutorSharedDrainRunsEachDWOnce: the caller and the pool workers drain
// one queue, and over 1 000 passes at GOMAXPROCS 1, 2 and 4 every layer's δW
// runs exactly once per pass — counted by the event stream — with gradients
// equal to the serial walk's on the last pass. Run
// under -race it is also the proof that a δW on the caller and one on a worker
// share nothing.
func TestExecutorSharedDrainRunsEachDWOnce(t *testing.T) {
	net := MLPNet(11, 16, 24, 3, 3)
	L := len(net.Layers)
	x, labels := data.Vectors(3, 12, 16, 3)
	_, lossGrad := nn.SoftmaxCrossEntropy(net.Forward(x), labels)
	sched := graph.ReverseFirstK(L, L/2)
	net.ZeroGrads()
	if _, err := net.Backward(lossGrad, sched); err != nil {
		t.Fatal(err)
	}
	want := GradSnapshot(net)

	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			e := NewExecutor(ExecConcurrent, 2)
			defer e.Close()
			events := make([]atomic.Int32, L+1)
			var onCaller atomic.Int32
			e.Observe(func(ev OpEvent) {
				if ev.Kind == OpDW {
					events[ev.Layer].Add(1)
					if ev.Lane == 0 {
						onCaller.Add(1)
					}
				}
			})
			const passes = 1000
			for p := 0; p < passes; p++ {
				net.ZeroGrads()
				if _, err := e.Backward(net, lossGrad, sched); err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= L; i++ {
					if ev := events[i].Load(); ev != int32(p+1) {
						t.Fatalf("GOMAXPROCS=%d pass %d layer %d: δW ran %d times by the events, want %d", procs, p, i, ev, p+1)
					}
				}
			}
			if !SnapshotsEqual(want, GradSnapshot(net)) {
				t.Fatalf("GOMAXPROCS=%d: gradients differ from the serial walk", procs)
			}
			t.Logf("GOMAXPROCS=%d: %d of %d δW ops ran on the caller", procs, onCaller.Load(), passes*L)
		})
	}
}

// TestExecutorCloseDuringPoll: Close while the workers are inside their
// post-task poll returns promptly — the poll is bounded and the blocking
// receive behind it watches the quit channel — and the executor then answers
// ErrClosed as before.
func TestExecutorCloseDuringPoll(t *testing.T) {
	atProcs(2, func() {
		net := MLPNet(11, 16, 24, 3, 3)
		x, labels := data.Vectors(3, 12, 16, 3)
		_, lossGrad := nn.SoftmaxCrossEntropy(net.Forward(x), labels)
		sched := graph.Conventional(len(net.Layers))
		for i := 0; i < 20; i++ {
			e := NewExecutor(ExecConcurrent, 2)
			if _, err := e.Backward(net, lossGrad, sched); err != nil {
				t.Fatal(err)
			}
			t0 := time.Now() // the workers have just finished a task: they are polling
			e.Close()
			if d := time.Since(t0); d > time.Second {
				t.Fatalf("Close took %v with workers polling (bound %v)", d, handoffPoll)
			}
			if _, err := e.Backward(net, lossGrad, sched); !errors.Is(err, ErrClosed) {
				t.Fatalf("Backward after Close: %v, want ErrClosed", err)
			}
			if _, err := e.Step(net, x, labels, sched, &nn.SGD{LR: 0.1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Step after Close: %v, want ErrClosed", err)
			}
		}
	})
}
