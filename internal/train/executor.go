package train

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// ExecMode selects the backward execution engine of an Executor.
type ExecMode int

const (
	// ExecSerial walks the schedule on the calling goroutine, like
	// Network.Backward but without δO_1, which feeds nothing (stepRows).
	ExecSerial ExecMode = iota
	// ExecConcurrent keeps the δO_L → δO_2 chain on the calling goroutine and
	// dispatches each δW op to a bounded worker pool at its schedule position
	// (its input gradient exists from that point on, per graph.Analyze).
	ExecConcurrent
)

func (m ExecMode) String() string {
	switch m {
	case ExecSerial:
		return "serial"
	case ExecConcurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// taskQueueCap bounds the δW dispatch queue. A full queue back-pressures the
// δO chain (a send blocks until a worker frees a slot), which only throttles;
// workers always drain, so no deadlock is possible.
const taskQueueCap = 1024

// Executor runs training steps and backward passes of a Network under a
// chosen execution engine.
//
// The paper's §3 observation is that every δW_i is off the critical path:
// it needs only δO_{i+1}, and nothing inside the iteration needs δW_i back.
// ExecConcurrent exploits that on real parallel hardware: the calling
// goroutine executes the δO chain in schedule order while each δW op is
// handed to a persistent bounded worker pool the moment the schedule issues
// it; once the chain is done the caller works the queue off alongside the pool.
// Backward returns once the chain and every dispatched δW finished, so callers
// observe the same completion semantics as the serial walk.
//
// Both modes run the same step table (stepRows) through the same loop
// (lane.run); they differ in one flag on its δW rows. From zeroed gradients
// their gradients are bit-identical to Network.Backward's for every legal
// schedule: each δW is the layer's one fold (nn.Layer.WeightGradAcc) and
// touches only its own layer's parameter gradients, each runs exactly once per
// pass, and the accumulation order within a layer is unchanged — reordering across
// layers never reorders floating-point additions into the same accumulator.
// The reported PeakLiveGrads is the schedule's retention-plan peak from
// graph.Analyze, identical to what the serial walk reports.
//
// An Executor is reusable across steps and networks; the warm path performs
// no allocations. It is not safe for concurrent use: one call at a time, and
// Close only after the last one returned; a concurrent executor returns
// ErrClosed from then on. The naive reference the engines are compared with is
// train.Step and Network.Backward.
type Executor struct {
	mode    ExecMode
	workers int

	tasks  chan dwTask
	quit   chan struct{}
	poolWG sync.WaitGroup
	once   sync.Once
	closed bool

	// dwWG counts outstanding δW ops of the in-flight run.
	dwWG sync.WaitGroup

	// lane is the calling goroutine's: forward and the δO chain run on its
	// workspace. A δW op needs none — its fold writes straight into its own
	// layer's Grad — so pooled δW ops share no buffers, whoever runs them.
	lane lane

	// led is StepRecompute's ledger, retained so a warm step allocates nothing.
	led ledger

	// srcs holds StepRecompute's per-layer stash sources, filled every step.
	srcs []nn.StashSource

	// The table of the most recent (layer count, stash sources, schedule,
	// checkpoint interval): steady-state loops use one for thousands of steps;
	// re-validating and re-generating would allocate.
	cachedSched graph.BackwardSchedule
	cachedSrcs  []nn.StashSource
	cachedL     int
	cachedEvery int
	cachedRows  []row
	cachedPeak  int

	// obs receives the executor's op events (nil = none). Pool workers read it
	// after a task-channel receive, which orders the read after Observe.
	obs Observer
}

// NewExecutor creates an executor. workers bounds the δW pool for
// ExecConcurrent; workers ≤ 0 picks GOMAXPROCS−1 (at least 1), leaving one
// processor for the δO chain. Serial executors spawn no goroutines.
func NewExecutor(mode ExecMode, workers int) *Executor {
	if workers <= 0 {
		workers = max(runtime.GOMAXPROCS(0)-1, 1)
	}
	e := &Executor{mode: mode, workers: workers}
	e.lane = newLane(0, &e.obs)
	if mode == ExecConcurrent {
		e.lane.pool = e
		e.tasks = make(chan dwTask, taskQueueCap)
		e.quit = make(chan struct{})
		e.poolWG.Add(workers)
		for i := 0; i < workers; i++ {
			go e.worker(i)
		}
	}
	return e
}

// Close stops the worker pool; later Backward and Step calls return
// ErrClosed. Idempotent; must not overlap a Backward call. Serial executors
// own no goroutines, so closing one is a no-op.
func (e *Executor) Close() {
	if e.mode != ExecConcurrent {
		return
	}
	e.once.Do(func() {
		e.closed = true
		close(e.quit)
		e.poolWG.Wait()
	})
}

// Observe attaches the executor's observer (nil detaches). Lane 0 is the
// calling goroutine — the δO chain, then the δW ops it drains after the
// chain's last δO — lane 1+w pool worker w; see OpEvent.
func (e *Executor) Observe(obs Observer) { e.obs = obs }

// worker is one pool goroutine, with a lane of its own to report on. After a
// task it polls the queue briefly before it parks (recvSoon): the chain issues
// the next δW one δO later, usually sooner than a parked worker would wake. On
// quit it drains any queued tasks (their dwWG entries are owed to a caller)
// before exiting.
func (e *Executor) worker(id int) {
	defer e.poolWG.Done()
	l := lane{id: 1 + id, obs: &e.obs}
	var poll poller
	for {
		t, ok := recvSoon(e.tasks, &poll)
		if !ok {
			select {
			case t = <-e.tasks:
			case <-e.quit:
				e.drainDW(&l)
				return
			}
		}
		e.runDW(&l, t)
	}
}

// drainDW runs queued δW tasks on lane l's goroutine until the queue is
// empty. Workers and the caller may drain concurrently: a task is one channel
// message, so each still runs exactly once.
func (e *Executor) drainDW(l *lane) {
	for {
		select {
		case t := <-e.tasks:
			e.runDW(l, t)
		default:
			return
		}
	}
}

func (e *Executor) runDW(l *lane, t dwTask) {
	l.mark()
	l.weightGrad(t, OpDW)
	e.dwWG.Done()
}

// table returns the executor's step table for an L-layer network under sched
// — stepRows with δW rows in the executor's hand-off mode, or recomputeRows
// over the stash sources srcs when every > 0 — and the schedule's
// retention-plan peak, validating, generating and caching them when any of the
// four changed. The steady-state re-check does not allocate.
func (e *Executor) table(L int, srcs []nn.StashSource, sched graph.BackwardSchedule, every int) ([]row, int, error) {
	if e.closed {
		return nil, 0, ErrClosed
	}
	if L == e.cachedL && every == e.cachedEvery && slices.Equal(e.cachedSrcs, srcs) && slices.Equal(e.cachedSched, sched) {
		return e.cachedRows, e.cachedPeak, nil
	}
	a, err := graph.Analyze(L, sched)
	if err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	var rows []row
	switch {
	case every > 0:
		if rows, err = recomputeRows(L, srcs, sched, every); err != nil {
			return nil, 0, err
		}
	case e.mode == ExecConcurrent:
		rows = stepRows(L, sched, dwPooled)
	default:
		rows = stepRows(L, sched, 0)
	}
	e.cachedSched = append(e.cachedSched[:0], sched...)
	e.cachedSrcs = append(e.cachedSrcs[:0], srcs...)
	e.cachedL, e.cachedEvery, e.cachedRows, e.cachedPeak = L, every, rows, a.PeakLiveGrads
	return rows, a.PeakLiveGrads, nil
}

// Backward executes the backward pass — the backward rows of the step table
// — under the executor's mode: a serial executor runs every op on the calling
// goroutine, a concurrent one hands each δW to the pool at its schedule
// position and keeps the δO chain on the caller, which joins the pool once
// the chain is done. From zeroed gradients both produce bit-identical
// parameter gradients and the same PeakLiveGrads as Network.Backward. From
// non-zero gradients each δW continues its layer's fold
// (nn.Layer.WeightGradAcc) instead of adding a finished sum, so
// the bits may differ from Network.Backward's; a step (Step) always zeroes
// first.
func (e *Executor) Backward(n *Network, lossGrad *tensor.Tensor, sched graph.BackwardSchedule) (BackwardStats, error) {
	L := len(n.Layers)
	rows, peak, err := e.table(L, nil, sched, 0)
	if err != nil {
		return BackwardStats{}, err
	}
	e.lane.bind(n, nil, nil)
	e.lane.grads[L] = lossGrad
	e.lane.run(backwardRows(rows, L))
	return BackwardStats{PeakLiveGrads: peak}, nil
}

// Step runs one full training step (forward, loss, backward under the
// executor's engine, optimizer update) and returns the loss; train.Step is
// its naive reference.
func (e *Executor) Step(n *Network, x *tensor.Tensor, labels []int, sched graph.BackwardSchedule, opt nn.Optimizer) (float64, error) {
	rows, _, err := e.table(len(n.Layers), nil, sched, 0)
	if err != nil {
		return 0, err
	}
	l := &e.lane
	l.bind(n, x, labels)
	l.step(func() { l.run(rows) }, func() { opt.Step(n.Params()) })
	return l.loss(), nil
}
