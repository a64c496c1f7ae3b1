package train

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// ExecMode selects the backward execution engine of an Executor.
type ExecMode int

const (
	// ExecSerial walks the schedule on the calling goroutine, exactly like
	// Network.Backward.
	ExecSerial ExecMode = iota
	// ExecConcurrent keeps the δO_L → δO_1 chain on the calling goroutine and
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

// dwTask is one dispatched weight-gradient computation.
type dwTask struct {
	layer nn.Layer
	idx   int // 1-based layer index, for release accounting and event labels
	grad  *tensor.Tensor
}

// taskQueueCap bounds the δW dispatch queue. A full queue back-pressures the
// δO chain (a send blocks until a worker frees a slot), which only throttles;
// workers always drain, so no deadlock is possible.
const taskQueueCap = 1024

// Executor runs backward passes of a Network under a chosen execution engine.
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
// Gradients are bit-identical to Network.Backward for every legal schedule:
// each δW touches only its own layer's parameter gradients, each runs exactly
// once per pass, and the accumulation order within a layer is unchanged —
// reordering across layers never reorders floating-point additions into the
// same accumulator. Gradient tensors are retained until both of their
// consumers (δO_i and δW_i) have completed, mirroring the serial release
// rule; the reported PeakLiveGrads is the schedule's retention-plan peak from
// graph.Analyze, identical to what the serial walk reports.
//
// An Executor is reusable across steps and networks; the warm path performs
// no allocations beyond the layers' own compute. It is not safe for
// concurrent use: one Backward at a time, and Close only after the last
// Backward returned; a concurrent executor returns ErrClosed from then on. A
// nil *Executor behaves as ExecSerial, so callers can thread an optional
// executor without nil checks.
type Executor struct {
	mode    ExecMode
	workers int

	tasks  chan dwTask
	quit   chan struct{}
	poolWG sync.WaitGroup
	once   sync.Once
	closed bool

	// dwWG counts outstanding δW ops of the in-flight Backward.
	dwWG sync.WaitGroup

	// Per-pass state, reused across calls.
	grads  []*tensor.Tensor
	refcnt []int32

	// Workspaces for the pooled layer paths (nn.WorkspaceForward,
	// nn.WorkspaceBackward). chainWS belongs to the goroutine running the step:
	// forward, the δO chain, and every op in serial mode. dwWS[i] belongs to
	// layer i's pooled δW op, which runs once per pass on whichever goroutine
	// takes it — so concurrent δW ops share no buffers and never contend, and
	// which workspace is warm for an op does not depend on who ran it last.
	chainWS *tensor.Workspace
	dwWS    []*tensor.Workspace

	// lossGrad is the retained loss-gradient buffer of forwardLoss.
	lossGrad *tensor.Tensor

	// rec is StepRecompute's bookkeeping, retained between steps.
	rec recomputeState

	// Cached analysis of the most recent schedule (steady-state Fit loops use
	// one schedule for thousands of steps; re-validating would allocate).
	cachedSched graph.BackwardSchedule
	cachedL     int
	cachedPeak  int

	// onDW, if set, runs after each δW op completes, with the 1-based layer
	// index. NewDataParallel sets it to publish gradient buckets to the reducer
	// the moment their last member layer finishes — possibly far out of layout
	// order. It is control flow, not observation, hence not an Observer. In
	// serial mode it runs on the calling goroutine; in concurrent mode on
	// whichever goroutine executed the op — a pool worker or the caller.
	onDW func(layer int)

	// obs receives the executor's op events (nil = none). Pool workers read it
	// after a task-channel receive, which orders the read after Observe.
	obs Observer
}

// NewExecutor creates an executor. workers bounds the δW pool for
// ExecConcurrent; workers ≤ 0 picks GOMAXPROCS−1 (at least 1), leaving one
// processor for the δO chain. Serial executors spawn no goroutines.
func NewExecutor(mode ExecMode, workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) - 1
		if workers < 1 {
			workers = 1
		}
	}
	e := &Executor{mode: mode, workers: workers, chainWS: tensor.NewWorkspace()}
	if mode == ExecConcurrent {
		e.tasks = make(chan dwTask, taskQueueCap)
		e.quit = make(chan struct{})
		e.poolWG.Add(workers)
		for i := 0; i < workers; i++ {
			go e.worker(i)
		}
	}
	return e
}

// The three ws* helpers are how every engine runs a layer: through the pooled
// method on the caller's workspace when the layer has one, through the plain
// allocating method otherwise — and always through the plain method when ws
// is nil, which is how a nil *Executor (it owns no workspace) stays the naive
// differential reference. No engine calls the plain methods directly.

func wsForward(l nn.Layer, x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	if wf, ok := l.(nn.WorkspaceForward); ok && ws != nil {
		return wf.ForwardWS(x, ws)
	}
	return l.Forward(x)
}

func wsInputGrad(l nn.Layer, g *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	if wb, ok := l.(nn.WorkspaceBackward); ok && ws != nil {
		return wb.InputGradWS(g, ws)
	}
	return l.InputGrad(g)
}

func wsWeightGrad(l nn.Layer, g *tensor.Tensor, ws *tensor.Workspace) {
	if wb, ok := l.(nn.WorkspaceBackward); ok && ws != nil {
		wb.WeightGradWS(g, ws)
		return
	}
	l.WeightGrad(g)
}

// forwardLayer, inputGrad and weightGrad run one op of layer i (1-based)
// through the ws* helpers and, when the executor is observed, report it — one
// nil-checked branch, no timestamp otherwise. forwardLayer reports as kind
// (OpFwd, or OpRefwd for a checkpointed step's re-run); forward and δO always
// run on lane 0. All three are safe on a nil receiver.

func (e *Executor) forwardLayer(kind OpKind, l nn.Layer, i int, x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	obs := e.observer()
	if obs == nil {
		return wsForward(l, x, ws)
	}
	start := time.Now()
	out := wsForward(l, x, ws)
	obs(OpEvent{Kind: kind, Layer: i, Start: start, End: time.Now(), Elems: x.Len() + out.Len()})
	return out
}

func (e *Executor) inputGrad(l nn.Layer, i int, g *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	obs := e.observer()
	if obs == nil {
		return wsInputGrad(l, g, ws)
	}
	start := time.Now()
	gin := wsInputGrad(l, g, ws)
	obs(OpEvent{Kind: OpDO, Layer: i, Start: start, End: time.Now()})
	return gin
}

func (e *Executor) weightGrad(lane int, l nn.Layer, i int, g *tensor.Tensor, ws *tensor.Workspace) {
	obs := e.observer()
	if obs == nil {
		wsWeightGrad(l, g, ws)
		return
	}
	start := time.Now()
	wsWeightGrad(l, g, ws)
	obs(OpEvent{Kind: OpDW, Layer: i, Lane: lane, Start: start, End: time.Now()})
}

// Mode returns the executor's execution mode (serial for a nil receiver).
func (e *Executor) Mode() ExecMode {
	if e == nil {
		return ExecSerial
	}
	return e.mode
}

// Workers returns the δW pool size (0 for serial executors).
func (e *Executor) Workers() int {
	if e == nil || e.mode != ExecConcurrent {
		return 0
	}
	return e.workers
}

// Close stops the worker pool; later Backward and Step calls return
// ErrClosed. Idempotent; must not overlap a Backward call. Serial executors
// own no goroutines, so closing one is a no-op.
func (e *Executor) Close() {
	if e == nil || e.mode != ExecConcurrent {
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
func (e *Executor) Observe(obs Observer) {
	if e != nil {
		e.obs = obs
	}
}

// observer is the nil-receiver-safe read of obs.
func (e *Executor) observer() Observer {
	if e == nil {
		return nil
	}
	return e.obs
}

// worker is one pool goroutine. After a task it polls the queue briefly before
// it parks (recvSoon): the chain issues the next δW one δO later, usually
// sooner than a parked worker would wake. On quit it drains any queued tasks
// (their dwWG entries are owed to a Backward caller) before exiting.
func (e *Executor) worker(id int) {
	defer e.poolWG.Done()
	var poll poller
	for {
		t, ok := recvSoon(e.tasks, &poll)
		if !ok {
			select {
			case t = <-e.tasks:
			case <-e.quit:
				e.drainDW(1 + id)
				return
			}
		}
		e.runDW(1+id, t)
	}
}

// drainDW runs queued δW tasks on the calling goroutine until the queue is
// empty. Workers and the Backward caller may drain concurrently: a task is one
// channel message, so each still runs exactly once.
func (e *Executor) drainDW(lane int) {
	for {
		select {
		case t := <-e.tasks:
			e.runDW(lane, t)
		default:
			return
		}
	}
}

func (e *Executor) runDW(lane int, t dwTask) {
	e.weightGrad(lane, t.layer, t.idx, t.grad, e.dwWS[t.idx])
	if e.onDW != nil {
		e.onDW(t.idx)
	}
	e.release(t.idx)
	e.dwWG.Done()
}

// release retires one consumer of gradient i and clears the slot once both
// consumers (δO_i on the chain goroutine, δW_i on a worker) have finished.
// The atomic decrement orders the clear after both consumers' reads: the
// last decrementer observed the other's decrement, which in turn follows
// that consumer's use of the tensor in program order.
func (e *Executor) release(i int) {
	if atomic.AddInt32(&e.refcnt[i], -1) == 0 {
		e.grads[i] = nil
	}
}

// analyze returns the schedule's retention-plan peak, validating and caching
// the analysis. The steady-state re-check (same schedule as last call) does
// not allocate.
func (e *Executor) analyze(L int, sched graph.BackwardSchedule) (int, error) {
	if L == e.cachedL && slices.Equal(e.cachedSched, sched) {
		return e.cachedPeak, nil
	}
	a, err := graph.Analyze(L, sched)
	if err != nil {
		return 0, fmt.Errorf("train: %w", err)
	}
	e.cachedSched = append(e.cachedSched[:0], sched...)
	e.cachedL = L
	e.cachedPeak = a.PeakLiveGrads
	return a.PeakLiveGrads, nil
}

// Backward executes the backward pass under the executor's mode. A nil
// receiver delegates to Network.Backward — the naive allocating walk kept as
// the differential reference. A serial executor runs the same op order
// through the pooled engine (workspace scratch, retained layer buffers) with
// every op on the calling goroutine using the chain workspace — so a warm pass
// performs zero allocations, and every event lands on lane 0. Concurrent mode
// hands each δW to the pool at its schedule position and keeps the δO chain on
// the caller, which joins the pool once the chain is done. Both produce
// bit-identical parameter gradients and the same PeakLiveGrads as
// Network.Backward.
func (e *Executor) Backward(n *Network, lossGrad *tensor.Tensor, sched graph.BackwardSchedule) (BackwardStats, error) {
	if e == nil {
		return n.Backward(lossGrad, sched)
	}
	if e.closed {
		return BackwardStats{}, ErrClosed
	}
	L := len(n.Layers)
	peak, err := e.analyze(L, sched)
	if err != nil {
		return BackwardStats{}, err
	}
	e.grads = resized(e.grads, L+1)
	e.grads[L] = lossGrad
	pooled := e.mode == ExecConcurrent
	if pooled {
		e.refcnt = resized(e.refcnt, L+1)
		for i := 1; i <= L; i++ {
			e.refcnt[i] = 2
		}
		for len(e.dwWS) <= L {
			e.dwWS = append(e.dwWS, tensor.NewWorkspace())
		}
	}
	for _, op := range sched {
		i := op.Layer
		layer, g := n.Layers[i-1], e.grads[i]
		if op.Kind == graph.WeightGrad {
			if pooled {
				e.dwWG.Add(1)
				e.tasks <- dwTask{layer: layer, idx: i, grad: g}
				continue
			}
			e.weightGrad(0, layer, i, g, e.chainWS)
			if e.onDW != nil {
				e.onDW(i)
			}
			continue
		}
		gin := e.inputGrad(layer, i, g, e.chainWS)
		if i > 1 {
			e.grads[i-1] = gin
		}
		if pooled {
			e.release(i)
		}
	}
	if pooled {
		// The chain is done: help with whatever δW is still queued rather than
		// park while it is worked off — being woken costs more than most of
		// these ops.
		e.drainDW(0)
		e.dwWG.Wait()
	}
	return BackwardStats{PeakLiveGrads: peak}, nil
}

// zeroForward clears the gradients and runs the forward pass, one event per
// layer when observed. A nil receiver runs Network.Forward, the naive
// allocating reference; an executor runs every layer through the pooled path
// on the chain workspace, so a warm pass performs zero allocations.
func (e *Executor) zeroForward(n *Network, x *tensor.Tensor) *tensor.Tensor {
	if e == nil {
		n.ZeroGrads()
		return n.Forward(x)
	}
	obs := e.obs
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	n.ZeroGrads()
	if obs != nil {
		obs(OpEvent{Kind: OpZero, Start: start, End: time.Now()})
	}
	for i, l := range n.Layers {
		x = e.forwardLayer(OpFwd, l, i+1, x, e.chainWS)
	}
	return x
}

// loss computes the batch mean loss and the loss gradient — in the executor's
// retained buffer, valid until its next loss call (a nil receiver allocates a
// fresh one, like the reference it is).
func (e *Executor) loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if e == nil {
		return nn.SoftmaxCrossEntropy(logits, labels)
	}
	e.lossGrad = tensor.Ensure(e.lossGrad, logits.Shape[0], logits.Shape[1])
	return nn.SoftmaxCrossEntropyInto(e.lossGrad, logits, labels), e.lossGrad
}

// observedLoss is loss, reported when the executor is observed.
func (e *Executor) observedLoss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	obs := e.observer()
	if obs == nil {
		return e.loss(logits, labels)
	}
	start := time.Now()
	loss, lossGrad := e.loss(logits, labels)
	obs(OpEvent{Kind: OpLoss, Start: start, End: time.Now(), Elems: logits.Len()})
	return loss, lossGrad
}

// forwardLoss runs ZeroGrads → forward → loss and returns what loss returns.
func (e *Executor) forwardLoss(n *Network, x *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return e.observedLoss(e.zeroForward(n, x), labels)
}

// serialPass is forwardLoss followed by the backward pass, all on the calling
// goroutine: what the parallel engines run for a batch too small to split,
// and what DataParallel.ReferenceStep runs per replica. It returns the loss
// and the forward and backward durations; the caller applies the update.
func (e *Executor) serialPass(n *Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule) (loss float64, fwd, bwd time.Duration, err error) {
	t0 := time.Now()
	loss, lossGrad := e.forwardLoss(n, x, labels)
	t1 := time.Now()
	_, err = e.Backward(n, lossGrad, sched)
	return loss, t1.Sub(t0), time.Since(t1), err
}

// Step runs one full training step (forward, loss, backward under the
// executor's engine, optimizer update) and returns the loss. A nil receiver
// runs the naive reference walk, which is what train.Step is.
func (e *Executor) Step(n *Network, x *tensor.Tensor, labels []int, sched graph.BackwardSchedule, opt nn.Optimizer) (float64, error) {
	if e != nil && e.closed {
		return 0, ErrClosed
	}
	obs := e.observer()
	var wall, start time.Time
	if obs != nil {
		wall = time.Now()
	}
	loss, lossGrad := e.forwardLoss(n, x, labels)
	if _, err := e.Backward(n, lossGrad, sched); err != nil {
		return 0, err
	}
	if obs != nil {
		start = time.Now()
	}
	opt.Step(n.Params())
	if obs != nil {
		end := time.Now()
		obs(OpEvent{Kind: OpUpdate, Start: start, End: end})
		obs(OpEvent{Kind: OpStep, Start: wall, End: end})
	}
	return loss, nil
}
