package train

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"oooback/internal/calib"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
)

// evKey identifies an op within a step; want maps it to its expected count.
type evKey struct {
	kind         OpKind
	layer, micro int
}

// observedEngine is one engine under TestObserver: a fresh network and engine
// per start call, stepped through step and observed through observe. tables
// returns, per lane that runs one, the table its steps execute.
type observedEngine struct {
	name  string
	lanes int // events report on lanes [0, lanes)
	start func(t *testing.T) (net *Network, step func() error, observe func(Observer), want map[evKey]int, tables func() map[int][]row)
}

func observedEngines() []observedEngine {
	x, labels := data.Vectors(3, 12, 16, 3)
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	const L = 7
	// perLayer is the schedule every engine shares: each layer's fwd/δO/δW
	// reps times — no table runs δO_1, which feeds nothing (stepRows) — plus
	// the step-scoped ops.
	perLayer := func(reps int, dw OpKind, micro int) map[evKey]int {
		want := map[evKey]int{{OpUpdate, 0, 0}: 1, {OpStep, 0, 0}: 1}
		for l := 1; l <= L; l++ {
			want[evKey{OpFwd, l, micro}] = reps
			want[evKey{dw, l, micro}] = reps
			if l > 1 {
				want[evKey{OpDO, l, micro}] = reps
			}
		}
		return want
	}
	executor := func(mode ExecMode) observedEngine {
		return observedEngine{mode.String(), 3, func(t *testing.T) (*Network, func() error, func(Observer), map[evKey]int, func() map[int][]row) {
			net, e, opt := build(), NewExecutor(mode, 2), &nn.SGD{LR: 0.05}
			t.Cleanup(e.Close)
			sched := graph.ReverseFirstK(L, 2)
			want := perLayer(1, OpDW, 0)
			want[evKey{OpZero, 0, 0}], want[evKey{OpLoss, 0, 0}] = 1, 1
			return net, func() error { _, err := e.Step(net, x, labels, sched, opt); return err }, e.Observe, want,
				func() map[int][]row { return map[int][]row{0: e.cachedRows} }
		}}
	}
	// A checkpointed step is the serial schedule plus one restash or reFwd
	// per stash its backward pass rebuilds. All stashes are dropped after the
	// forward pass. At every = 2 every one rebuilds from a checkpoint on this
	// Dense/ReLU stack — each Dense from its input, each ReLU from its output
	// — so every layer restashes once and no forward re-runs. At every = 3
	// a_1, a_2, a_4 and a_5 are gone: layer 4 re-runs to give layer 5 its
	// input, and layers 1 and 2 re-run to give layer 3 its input.
	recompute := func(name string, every int, restashed, refwd []int) observedEngine {
		return observedEngine{name, 1, func(t *testing.T) (*Network, func() error, func(Observer), map[evKey]int, func() map[int][]row) {
			net, e, opt := build(), NewExecutor(ExecSerial, 0), &nn.SGD{LR: 0.05}
			sched := graph.ReverseFirstK(L, 2)
			want := perLayer(1, OpDW, 0)
			want[evKey{OpZero, 0, 0}], want[evKey{OpLoss, 0, 0}] = 1, 1
			for _, l := range restashed {
				want[evKey{OpRestash, l, 0}] = 1
			}
			for _, l := range refwd {
				want[evKey{OpRefwd, l, 0}] = 1
			}
			step := func() error {
				_, st, err := e.StepRecompute(net, x, labels, sched, every, opt)
				if err == nil && (st.RestashedLayers != len(restashed) || st.RecomputedLayers != len(refwd)) {
					err = fmt.Errorf("step reports %d restashed and %d recomputed layers, the event table expects %d and %d",
						st.RestashedLayers, st.RecomputedLayers, len(restashed), len(refwd))
				}
				return err
			}
			return net, step, e.Observe, want, func() map[int][]row { return map[int][]row{0: e.cachedRows} }
		}}
	}
	// short engines step a batch too small to split: the serial table on
	// replica 0's lane (data-parallel) or the caller's (pipeline), and the
	// update and the step on the caller's like any other step.
	serialOnce := func() map[evKey]int {
		want := perLayer(1, OpDW, 0)
		want[evKey{OpZero, 0, 0}], want[evKey{OpLoss, 0, 0}] = 1, 1
		return want
	}
	dp2 := func(short bool) observedEngine {
		name, bx, bl := "dp2", x, labels
		if short {
			name = "dp2/short"
			bx, bl = data.Vectors(3, 1, 16, 3)
		}
		return observedEngine{name, 4, func(t *testing.T) (*Network, func() error, func(Observer), map[evKey]int, func() map[int][]row) {
			net := build()
			dp, err := NewDataParallel(net, &nn.SGD{LR: 0.05}, DataParallelConfig{
				Replicas: 2, Build: build, Schedule: graph.ReverseFirstK(L, 2), Sync: SyncLayerPriority, BucketBytes: 4 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(dp.Close)
			step := func() error { _, _, err := dp.Step(bx, bl); return err }
			if short {
				return net, step, dp.Observe, serialOnce(), func() map[int][]row { return map[int][]row{0: dp.serial} }
			}
			want := perLayer(2, OpDW, 0)
			want[evKey{OpZero, 0, 0}], want[evKey{OpLoss, 0, 0}] = 2, 2
			for _, b := range dp.Plan() {
				want[evKey{OpReduce, b.Layers[0], 0}] = 1
			}
			return net, step, dp.Observe, want, func() map[int][]row { return map[int][]row{0: dp.rows, 1: dp.rows} }
		}}
	}
	pipe2x4 := func(sched PipeSchedule, fill, short bool) observedEngine {
		name, bx, bl := fmt.Sprintf("pipe2x4/%v/fill=%v", sched, fill), x, labels
		if short {
			name = "pipe2x4/short"
			bx, bl = data.Vectors(3, 3, 16, 3)
		}
		return observedEngine{name, 3, func(t *testing.T) (*Network, func() error, func(Observer), map[evKey]int, func() map[int][]row) {
			pipe, err := NewPipeline(build(), &nn.SGD{LR: 0.05}, PipelineConfig{
				Stages: 2, MicroBatches: 4, Schedule: sched, Build: build, NoDWFill: !fill,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(pipe.Close)
			step := func() error { _, _, err := pipe.Step(bx, bl); return err }
			if short {
				return pipe.proto, step, pipe.Observe, serialOnce(), func() map[int][]row { return map[int][]row{2: pipe.serial} }
			}
			dw := OpDW
			if fill {
				dw = OpDWFill
			}
			want := map[evKey]int{{OpZero, 0, 0}: 1}
			for m := 1; m <= 4; m++ {
				for k, c := range perLayer(1, dw, m) {
					want[k] = c
				}
				want[evKey{OpLoss, 0, m}] = 1
			}
			return pipe.proto, step, pipe.Observe, want, func() map[int][]row {
				return map[int][]row{0: pipe.crew.rows[0], 1: pipe.crew.rows[1], 2: zeroRows}
			}
		}}
	}
	engines := []observedEngine{executor(ExecSerial), executor(ExecConcurrent),
		recompute("recompute", 2, []int{1, 2, 3, 4, 5, 6, 7}, nil), recompute("recompute-every3", 3, []int{3, 5, 6, 7}, []int{1, 2, 4}), dp2(false), dp2(true), pipe2x4(Pipe1F1B, true, true)}
	for _, sched := range []PipeSchedule{PipeGPipe, Pipe1F1B} {
		for _, fill := range []bool{true, false} {
			engines = append(engines, pipe2x4(sched, fill, false))
		}
	}
	return engines
}

// tableEvents is the event sequence a lane reports for a table: one event per
// op row it runs itself, in table order. δW rows handed to the pool or the
// FIFO run whenever and wherever they are taken.
func tableEvents(rows []row) (seq []evKey, inlineDW bool) {
	kinds := map[rowKind]OpKind{rowZero: OpZero, rowFwd: OpFwd, rowRestash: OpRestash, rowLoss: OpLoss, rowDO: OpDO, rowDW: OpDW}
	for _, r := range rows {
		kind, op := kinds[r.kind]
		switch {
		case !op, r.flags&(dwPooled|dwDeferred) != 0:
			continue
		case r.flags&reFwd != 0:
			kind = OpRefwd
		}
		inlineDW = inlineDW || r.kind == rowDW
		seq = append(seq, evKey{kind, r.layer, r.micro})
	}
	return seq, inlineDW
}

// TestObserver pins the op-event seam on every engine, the checkpointed step
// and both small-batch fallbacks included: (a) observing changes no parameter
// bit, (b) one step's events are exactly its schedule (plus RecomputedLayers
// reFwd and RestashedLayers restash spans when checkpointed) and, per lane,
// arrive in the order of the
// lane's table, (c) spans are well-formed and never overlap on a lane, (d) a
// warm step with ProfileObserver attached allocates exactly what an
// unobserved one does — nothing, on every engine: forward, loss, backward,
// the reduction or the stage hand-offs and the update all run on retained
// buffers.
func TestObserver(t *testing.T) {
	const steps = 3
	for _, eng := range observedEngines() {
		t.Run(eng.name, func(t *testing.T) {
			run := func(obs Observer, beforeLast func()) (*Network, map[evKey]int, func() map[int][]row) {
				net, step, observe, want, tables := eng.start(t)
				observe(obs)
				for s := 0; s < steps; s++ {
					if s == steps-1 && beforeLast != nil {
						beforeLast()
					}
					if err := step(); err != nil {
						t.Fatalf("step %d: %v", s, err)
					}
				}
				return net, want, tables
			}
			var mu sync.Mutex
			var events []OpEvent
			plain, _, _ := run(nil, nil)
			observed, want, tables := run(func(ev OpEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}, func() { events = events[:0] })
			if !SnapshotsEqual(ParamSnapshot(plain), ParamSnapshot(observed)) {
				t.Fatal("observed run diverged from unobserved run")
			}

			got := map[evKey]int{}
			byLane := map[int][]OpEvent{}
			for _, ev := range events {
				if ev.End.Before(ev.Start) {
					t.Fatalf("%v ends before it starts", ev)
				}
				if ev.Lane < 0 || ev.Lane >= eng.lanes {
					t.Fatalf("%v outside lanes [0,%d)", ev, eng.lanes)
				}
				if ev.Kind != OpIdle {
					got[evKey{ev.Kind, ev.Layer, ev.Micro}]++
				}
				if ev.Kind != OpStep {
					byLane[ev.Lane] = append(byLane[ev.Lane], ev)
				}
			}
			for k, c := range want {
				if got[k] != c {
					t.Errorf("%v layer %d micro %d: %d events, want %d", k.kind, k.layer, k.micro, got[k], c)
				}
			}
			for k, c := range got {
				if want[k] == 0 {
					t.Errorf("unexpected %d× %v layer %d micro %d", c, k.kind, k.layer, k.micro)
				}
			}
			for lane, rows := range tables() {
				wantSeq, inlineDW := tableEvents(rows)
				var gotSeq []evKey
				for _, ev := range byLane[lane] { // a lane's events arrive in its own order
					switch ev.Kind {
					case OpZero, OpFwd, OpRefwd, OpRestash, OpLoss, OpDO:
					case OpDW:
						if !inlineDW {
							continue
						}
					default:
						continue
					}
					gotSeq = append(gotSeq, evKey{ev.Kind, ev.Layer, ev.Micro})
				}
				if !slices.Equal(gotSeq, wantSeq) {
					t.Errorf("lane %d reported\n%v, its table says\n%v", lane, gotSeq, wantSeq)
				}
			}
			for lane, evs := range byLane {
				sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start.Before(evs[j].Start) })
				for i := 1; i < len(evs); i++ {
					if evs[i].Start.Before(evs[i-1].End) {
						t.Fatalf("lane %d: %v overlaps %v", lane, evs[i], evs[i-1])
					}
				}
			}

			warmAllocs := func(profiled bool) float64 {
				net, step, observe, _, _ := eng.start(t)
				if profiled {
					observe(ProfileObserver(calib.NewProfiler("mlp", eng.name, len(net.Layers), 1), net))
				}
				op := func() {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				op()
				op() // past warmup: profiler slots and step buffers retained
				return testing.AllocsPerRun(10, op)
			}
			plainAllocs, prof := warmAllocs(false), warmAllocs(true)
			if prof != plainAllocs {
				t.Fatalf("warm profiled step allocates %v times vs %v unprofiled, want equal", prof, plainAllocs)
			}
			if plainAllocs != 0 {
				t.Fatalf("warm step allocates %v times, want 0", plainAllocs)
			}
		})
	}
}

// TestUseAfterClose: every engine entry point returns ErrClosed once Close
// stopped its goroutines, instead of panicking on a closed channel or — the
// concurrent executor — queueing δW tasks nobody will ever run.
func TestUseAfterClose(t *testing.T) {
	x, labels := data.Vectors(3, 12, 16, 3)
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	sched, opt := graph.Conventional(7), &nn.SGD{LR: 0.05}
	net := build()
	_, lossGrad := nn.SoftmaxCrossEntropy(net.Forward(x), labels)
	e := NewExecutor(ExecConcurrent, 2)
	e.Close()
	pipe, err := NewPipeline(build(), opt, PipelineConfig{Stages: 2, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	dp, err := NewDataParallel(build(), opt, DataParallelConfig{Replicas: 2, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	dp.Close()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Executor.Step", func() error { _, err := e.Step(net, x, labels, sched, opt); return err }},
		{"Executor.Backward", func() error { _, err := e.Backward(net, lossGrad, sched); return err }},
		{"Pipeline.Step", func() error { _, _, err := pipe.Step(x, labels); return err }},
		{"DataParallel.Step", func() error { _, _, err := dp.Step(x, labels); return err }},
		{"DataParallel.ReferenceStep", func() error { _, err := dp.ReferenceStep(x, labels); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- tc.call() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("got %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("call after Close hung")
			}
		})
	}
}

// TestCloseStopsEveryGoroutine pins shutdown on the three engines that own
// goroutines: the concurrent executor's pool, a 2-stage × 4-microbatch
// pipeline and four data-parallel replicas with their reducer. Each engine is
// closed twice, once fresh and once after a step, and the goroutine count must
// come back to what it was before the engine was built.
func TestCloseStopsEveryGoroutine(t *testing.T) {
	x, labels := data.Vectors(3, 16, 16, 3)
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	sched, opt := graph.Conventional(7), &nn.SGD{LR: 0.05}
	engines := []struct {
		name  string
		start func(t *testing.T) (step func() error, close func())
	}{
		{"executor", func(t *testing.T) (func() error, func()) {
			e, net := NewExecutor(ExecConcurrent, 2), build()
			return func() error { _, err := e.Step(net, x, labels, sched, opt); return err }, e.Close
		}},
		{"pipe2x4", func(t *testing.T) (func() error, func()) {
			pipe, err := NewPipeline(build(), opt, PipelineConfig{Stages: 2, MicroBatches: 4, Build: build})
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, _, err := pipe.Step(x, labels); return err }, pipe.Close
		}},
		{"dp4", func(t *testing.T) (func() error, func()) {
			dp, err := NewDataParallel(build(), opt, DataParallelConfig{Replicas: 4, Build: build})
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, _, err := dp.Step(x, labels); return err }, dp.Close
		}},
	}
	for _, eng := range engines {
		for _, stepped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stepped=%v", eng.name, stepped), func(t *testing.T) {
				before := runtime.NumGoroutine()
				step, closeEngine := eng.start(t)
				if stepped {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				closeEngine()
				closeEngine()
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Close, %d before the engine was built", runtime.NumGoroutine(), before)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
