package train

import (
	"fmt"
	"sync"
	"time"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// Pipeline is the real microbatch pipeline-parallel engine — the training-side
// counterpart of the internal/pipepar simulator and of the paper's §5.2
// multi-GPU result. The network is split into contiguous stages, each owned by
// a persistent goroutine ("GPU"); a batch is split into M microbatches that
// flow through bounded activation/gradient queues under a GPipe-trapezoid or
// 1F1B schedule. The perf trick is the paper's: each stage defers its δW
// computations (legal because the δO chain never reads them — the same
// decoupling the Executor exploits) and runs them out of order *inside its
// pipeline bubbles*, i.e. whenever it would otherwise block waiting for an
// upstream activation or downstream gradient. Exposed bubble time and δW fill
// time are measured per stage and reported in PipeStepStats.
//
// Bitwise contract: a Pipeline step produces exactly the gradients, loss and
// parameter update of the serial full-batch reference (Network.Backward after
// one full-batch forward), for every schedule, stage count, microbatch count
// and GOMAXPROCS. Microbatch δW accumulation continues the full-batch fold
// in place (nn.ChunkBackward over tensor.TMatMulAcc/SumRowsAcc), microbatch
// loss continues the full-batch loss fold (nn.SoftmaxCrossEntropyChunk), and
// per-layer δW chunks execute in ascending microbatch order because each
// stage's deferral queue is FIFO and its schedule emits backwards in
// ascending microbatch order. The differential suite asserts the identity
// under the race detector.
//
// Concurrency/ownership: all M lanes (per-microbatch clones of the network)
// share the prototype's Param tensors; stage s is the only goroutine that
// ever touches layers [Bounds[s], Bounds[s+1]) — their forward caches, their
// retained gradient buffers, and their parameters' Grad tensors — so no δW
// write ever races. Tensors cross stages only through channel sends, which
// order the underlying buffer writes before the reads. Queues have capacity
// M, so sends never block and any schedule-consistent op order is
// deadlock-free.
type Pipeline struct {
	proto  *Network
	lanes  []*Network
	part   graph.Partition
	sched  PipeSchedule
	fill   bool
	opt    nn.Optimizer
	seal   []nn.ChunkBackward
	stages []*pipeStage
	acks   chan struct{}
	wg     sync.WaitGroup
	closed bool

	mbX      []*tensor.Tensor // retained per-microbatch input view headers
	mbLabels [][]int
	stepN    int // examples in the current step's batch

	// serial fallback for batches too small to split into M microbatches
	fb      *Executor
	fbSched graph.BackwardSchedule

	statsBuf []StageStats

	// obs receives the pipeline's op events (nil = none). The stage goroutines
	// read it after a command-channel receive, which orders the read after
	// Observe.
	obs Observer
}

// PipeSchedule selects the microbatch pipeline discipline.
type PipeSchedule int

const (
	// PipeGPipe is the GPipe trapezoid: every stage forwards all M
	// microbatches, then backwards all M, with a synchronous flush.
	PipeGPipe PipeSchedule = iota
	// Pipe1F1B is the early-backward one-forward-one-backward discipline
	// (DAPPLE-style: 1F1B order within the iteration, synchronous flush, so
	// no weight staleness): stage s warms up with min(M, S−1−s) forwards,
	// then alternates forward/backward, then drains the remaining backwards.
	Pipe1F1B
)

func (s PipeSchedule) String() string {
	switch s {
	case PipeGPipe:
		return "gpipe"
	case Pipe1F1B:
		return "1f1b"
	}
	return fmt.Sprintf("PipeSchedule(%d)", int(s))
}

// ParsePipeSchedule maps the -pipe-sched flag values.
func ParsePipeSchedule(s string) (PipeSchedule, error) {
	switch s {
	case "gpipe":
		return PipeGPipe, nil
	case "1f1b":
		return Pipe1F1B, nil
	}
	return 0, fmt.Errorf("train: unknown pipeline schedule %q (want gpipe or 1f1b)", s)
}

// PipelineConfig configures NewPipeline.
type PipelineConfig struct {
	// Stages is the number of pipeline stages (≥ 2, ≤ layers).
	Stages int
	// MicroBatches M per step (≥ Stages; 0 = Stages).
	MicroBatches int
	// Schedule picks the microbatch discipline.
	Schedule PipeSchedule
	// Build constructs one additional lane network identical to the
	// prototype (same role as DataParallelConfig.Build). Required.
	Build func() *Network
	// Boundaries, if non-nil, are explicit interior stage boundaries
	// (ascending 0-based layer indices, len Stages−1); nil = even split.
	Boundaries []int
	// NoDWFill disables out-of-order δW bubble filling: every δW runs inline
	// right after its layer's δO instead of being deferred into bubbles. The
	// gradient bits are identical either way — only the schedule moves.
	NoDWFill bool
}

// StageStats is one stage's timing decomposition of one pipeline step.
type StageStats struct {
	Fwd      time.Duration // forward compute
	DO       time.Duration // δO chain compute (incl. the last stage's loss)
	DWInline time.Duration // δW executed inline (fill disabled)
	DWFill   time.Duration // δW executed out-of-order inside bubbles / the drain tail
	Idle     time.Duration // exposed bubble: blocked on a queue with no δW left to fill with
}

// Busy is the stage's total compute time.
func (s StageStats) Busy() time.Duration { return s.Fwd + s.DO + s.DWInline + s.DWFill }

// PipeStepStats reports one pipeline step's schedule quality, the pipeline
// analogue of StepStats.ReduceBusy/ReduceExposed.
type PipeStepStats struct {
	Stages       int
	MicroBatches int
	Schedule     PipeSchedule
	FillDW       bool
	Wall         time.Duration
	// PerStage aliases engine-retained storage; valid until the next Step.
	PerStage []StageStats
}

// BubbleExposed is total stage time spent blocked with nothing to fill —
// the exposed bubble the paper's §5.2 scheduling minimizes.
func (st PipeStepStats) BubbleExposed() time.Duration {
	var d time.Duration
	for _, s := range st.PerStage {
		d += s.Idle
	}
	return d
}

// BubbleFilled is total stage time spent running deferred δW inside bubbles.
func (st PipeStepStats) BubbleFilled() time.Duration {
	var d time.Duration
	for _, s := range st.PerStage {
		d += s.DWFill
	}
	return d
}

// FillRatio is BubbleFilled / (BubbleFilled + BubbleExposed) — the fraction
// of non-compute stage time recovered by out-of-order δW.
func (st PipeStepStats) FillRatio() float64 {
	f, e := st.BubbleFilled(), st.BubbleExposed()
	if f+e == 0 {
		return 0
	}
	return float64(f) / float64(f+e)
}

// Occupancy is mean busy fraction across stages: Σ Busy / (Stages · Wall).
// Comparable to the simulator's Result.MeanUtil for the same schedule.
func (st PipeStepStats) Occupancy() float64 {
	if st.Wall <= 0 || len(st.PerStage) == 0 {
		return 0
	}
	var busy time.Duration
	for _, s := range st.PerStage {
		busy += s.Busy()
	}
	return float64(busy) / float64(time.Duration(len(st.PerStage))*st.Wall)
}

type pipeMsg struct {
	mb int
	t  *tensor.Tensor
}

type deferredDW struct {
	layer nn.ChunkBackward
	grad  *tensor.Tensor
	gi    int // 1-based global layer index
	mb    int // microbatch the chunk belongs to
}

type stageOpKind uint8

const (
	opFwdMB stageOpKind = iota
	opBwdMB
)

type stageOp struct {
	kind stageOpKind
	mb   int
}

type pipeStage struct {
	p      *Pipeline
	id     int
	lo, hi int
	last   bool
	ops    []stageOp

	// Per-lane views of this stage's layer span and the pre-asserted
	// interface forms ([lane][local layer]).
	layers [][]nn.Layer
	wsb    [][]nn.WorkspaceBackward
	chb    [][]nn.ChunkBackward

	actIn, gradIn   chan pipeMsg // nil at the pipeline ends
	actOut, gradOut chan pipeMsg

	ws     *tensor.Workspace
	dwq    []deferredDW
	dwHead int

	// Last stage only: per-microbatch logits and retained loss-grad buffers.
	logits   []*tensor.Tensor
	lossGrad []*tensor.Tensor
	lossRaw  float64

	stats StageStats
	cmd   chan struct{}
	poll  poller
}

// NewPipeline partitions proto into cfg.Stages contiguous stages and starts
// their goroutines. Every layer must support pooled backward and microbatch
// δW accumulation (nn.WorkspaceBackward + nn.ChunkBackward); layers that
// cannot split a batch — Dropout (sequential mask RNG), SelfAttention
// (whole-input sequence coupling) — are rejected here.
func NewPipeline(proto *Network, opt nn.Optimizer, cfg PipelineConfig) (*Pipeline, error) {
	L := len(proto.Layers)
	S := cfg.Stages
	M := cfg.MicroBatches
	if M == 0 {
		M = S
	}
	if S < 2 {
		return nil, fmt.Errorf("train: pipeline needs ≥ 2 stages, got %d", S)
	}
	if M < S {
		return nil, fmt.Errorf("train: %d microbatches across %d stages would leave permanent bubbles (need M ≥ stages)", M, S)
	}
	if opt == nil {
		return nil, fmt.Errorf("train: pipeline needs an optimizer")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("train: PipelineConfig.Build is required (one lane per microbatch)")
	}
	var part graph.Partition
	var err error
	if cfg.Boundaries != nil {
		part, err = graph.PartitionBounds(L, cfg.Boundaries)
		if err == nil && part.Stages() != S {
			err = fmt.Errorf("train: %d boundaries give %d stages, want %d", len(cfg.Boundaries), part.Stages(), S)
		}
	} else {
		part, err = graph.PartitionEven(L, S)
	}
	if err != nil {
		return nil, err
	}
	for _, l := range proto.Layers {
		if _, ok := l.(nn.ChunkBackward); !ok {
			return nil, fmt.Errorf("train: layer %q does not support microbatch execution (no ChunkBackward)", l.Name())
		}
		if _, ok := l.(nn.WorkspaceBackward); !ok {
			return nil, fmt.Errorf("train: layer %q does not support pooled backward (no WorkspaceBackward)", l.Name())
		}
	}
	p := &Pipeline{
		proto:    proto,
		lanes:    make([]*Network, M),
		part:     part,
		sched:    cfg.Schedule,
		fill:     !cfg.NoDWFill,
		opt:      opt,
		acks:     make(chan struct{}, S),
		mbX:      make([]*tensor.Tensor, M),
		mbLabels: make([][]int, M),
		fb:       NewExecutor(ExecSerial, 0),
		fbSched:  graph.Conventional(L),
		statsBuf: make([]StageStats, S),
	}
	p.lanes[0] = proto
	protoParams := proto.Params()
	for m := 1; m < M; m++ {
		lane := cfg.Build()
		if lane == nil {
			return nil, fmt.Errorf("train: Build returned nil lane")
		}
		if err := alignParams(proto, lane); err != nil {
			return nil, err
		}
		// All lanes share the prototype's parameters: re-alias before any
		// forward so cached views (e.g. Conv2D's weight reshape) bind to the
		// shared tensors. Grad writes stay race-free because each Param's
		// layer lives in exactly one stage.
		for i, lp := range lane.Params() {
			lp.Value = protoParams[i].Value
			lp.Grad = protoParams[i].Grad
		}
		p.lanes[m] = lane
	}
	for _, l := range proto.Layers {
		p.seal = append(p.seal, l.(nn.ChunkBackward))
	}
	// Inter-stage queues with capacity M: producers never block.
	actCh := make([]chan pipeMsg, S-1)
	gradCh := make([]chan pipeMsg, S-1)
	for i := range actCh {
		actCh[i] = make(chan pipeMsg, M)
		gradCh[i] = make(chan pipeMsg, M)
	}
	for s := 0; s < S; s++ {
		lo, hi := part.Range(s)
		st := &pipeStage{
			p: p, id: s, lo: lo, hi: hi, last: s == S-1,
			ops: stageOps(cfg.Schedule, s, S, M),
			ws:  tensor.NewWorkspace(),
			cmd: make(chan struct{}, 1),
		}
		if s > 0 {
			st.actIn = actCh[s-1]
			st.gradOut = gradCh[s-1]
		}
		if s < S-1 {
			st.actOut = actCh[s]
			st.gradIn = gradCh[s]
		}
		st.layers = make([][]nn.Layer, M)
		st.wsb = make([][]nn.WorkspaceBackward, M)
		st.chb = make([][]nn.ChunkBackward, M)
		for m := 0; m < M; m++ {
			span := p.lanes[m].Layers[lo:hi]
			st.layers[m] = span
			st.wsb[m] = make([]nn.WorkspaceBackward, len(span))
			st.chb[m] = make([]nn.ChunkBackward, len(span))
			for j, l := range span {
				st.wsb[m][j] = l.(nn.WorkspaceBackward)
				st.chb[m][j] = l.(nn.ChunkBackward)
			}
		}
		if st.last {
			st.logits = make([]*tensor.Tensor, M)
			st.lossGrad = make([]*tensor.Tensor, M)
		}
		p.stages = append(p.stages, st)
	}
	p.wg.Add(S)
	for _, st := range p.stages {
		go st.loop()
	}
	return p, nil
}

// stageOps emits stage s's per-step operation sequence. Backwards always
// appear in ascending microbatch order — the δW chunk-accumulation contract
// depends on it.
func stageOps(sched PipeSchedule, s, S, M int) []stageOp {
	ops := make([]stageOp, 0, 2*M)
	switch sched {
	case Pipe1F1B:
		w := S - 1 - s
		if w > M {
			w = M
		}
		f, b := 0, 0
		for ; f < w; f++ {
			ops = append(ops, stageOp{opFwdMB, f})
		}
		for f < M {
			ops = append(ops, stageOp{opFwdMB, f})
			ops = append(ops, stageOp{opBwdMB, b})
			f++
			b++
		}
		for ; b < M; b++ {
			ops = append(ops, stageOp{opBwdMB, b})
		}
	default: // PipeGPipe
		for m := 0; m < M; m++ {
			ops = append(ops, stageOp{opFwdMB, m})
		}
		for m := 0; m < M; m++ {
			ops = append(ops, stageOp{opBwdMB, m})
		}
	}
	return ops
}

// Net returns the prototype network holding the trained weights.
func (p *Pipeline) Net() *Network { return p.proto }

// Partition returns the stage partition.
func (p *Pipeline) Partition() graph.Partition { return p.part }

// MicroBatches returns M.
func (p *Pipeline) MicroBatches() int { return len(p.lanes) }

// Observe attaches the pipeline's observer (nil detaches). Stage s reports on
// lane s, the goroutine calling Step on lane Stages; see OpEvent.
func (p *Pipeline) Observe(obs Observer) { p.obs = obs }

// Close shuts the stage goroutines down; later Step calls return ErrClosed.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, st := range p.stages {
		close(st.cmd)
	}
	p.wg.Wait()
}

// shardViews points k retained view headers (and label subslices) at
// contiguous example ranges of a batch — a pipeline's microbatches, a
// data-parallel step's replica shards. Examples are counted by labels
// (len(labels) = n); the input's leading dimension must be a multiple of n,
// covering both row-per-example inputs ([n, ...]) and flattened token inputs
// ([n·seqLen]). Warm calls allocate nothing: view headers and shape slices
// are reused.
func shardViews(x *tensor.Tensor, labels []int, xs []*tensor.Tensor, ls [][]int) error {
	n, k := len(labels), len(xs)
	if n < k {
		return fmt.Errorf("train: %d examples across %d shards", n, k)
	}
	if x.Shape[0]%n != 0 {
		return fmt.Errorf("train: leading dim %d not a multiple of %d examples", x.Shape[0], n)
	}
	rowsPer := x.Shape[0] / n
	rowLen := x.Len() / x.Shape[0]
	for i := range xs {
		lo, hi := i*n/k, (i+1)*n/k
		ls[i] = labels[lo:hi]
		if xs[i] == nil {
			xs[i] = &tensor.Tensor{Shape: make([]int, 0, len(x.Shape))}
		}
		xs[i].Shape = append(xs[i].Shape[:0], (hi-lo)*rowsPer)
		xs[i].Shape = append(xs[i].Shape, x.Shape[1:]...)
		xs[i].Data = x.Data[lo*rowsPer*rowLen : hi*rowsPer*rowLen]
	}
	return nil
}

// Step runs one pipelined training step and returns the batch mean loss
// (bitwise identical to the serial full-batch reference) plus the step's
// schedule stats. Batches with fewer examples than microbatches (an epoch's
// final short batch) fall back to a serial step on the prototype — which
// computes the same bits a pipeline over that batch would.
func (p *Pipeline) Step(x *tensor.Tensor, labels []int) (float64, PipeStepStats, error) {
	if p.closed {
		return 0, PipeStepStats{}, ErrClosed
	}
	if len(labels) < len(p.lanes) {
		st := PipeStepStats{Stages: 1, MicroBatches: 1, Schedule: p.sched, FillDW: p.fill}
		t0 := time.Now()
		loss, _, _, err := p.fb.serialPass(p.proto, x, labels, p.fbSched)
		if err != nil {
			return 0, st, err
		}
		p.opt.Step(p.proto.Params())
		st.Wall = time.Since(t0)
		return loss, st, nil
	}
	st := PipeStepStats{
		Stages:       len(p.stages),
		MicroBatches: len(p.lanes),
		Schedule:     p.sched,
		FillDW:       p.fill,
		PerStage:     p.statsBuf,
	}
	if err := shardViews(x, labels, p.mbX, p.mbLabels); err != nil {
		return 0, st, err
	}
	obs, caller := p.obs, len(p.stages)
	wall := time.Now()
	p.stepN = len(labels)
	p.proto.ZeroGrads()
	if obs != nil {
		obs(OpEvent{Kind: OpZero, Lane: caller, Start: wall, End: time.Now()})
	}
	t0 := time.Now()
	for _, s := range p.stages {
		s.cmd <- struct{}{}
	}
	for range p.stages {
		<-p.acks
	}
	st.Wall = time.Since(t0)
	tU := time.Now()
	for _, cb := range p.seal {
		cb.SealWeightGrad()
	}
	loss := p.stages[len(p.stages)-1].lossRaw / float64(p.stepN)
	p.opt.Step(p.proto.Params())
	if obs != nil {
		end := time.Now()
		obs(OpEvent{Kind: OpUpdate, Lane: caller, Start: tU, End: end})
		obs(OpEvent{Kind: OpStep, Lane: caller, Start: wall, End: end})
	}
	for i, s := range p.stages {
		p.statsBuf[i] = s.stats
	}
	return loss, st, nil
}

// loop is one stage's persistent goroutine. It polls for the next step's
// command before it parks: between two back-to-back steps lies only the
// caller's update, shorter than a wake-up.
func (st *pipeStage) loop() {
	defer st.p.wg.Done()
	for {
		if _, ok := recvHot(st.cmd, &st.poll); !ok {
			return
		}
		st.runStep()
		st.p.acks <- struct{}{}
	}
}

func (st *pipeStage) runStep() {
	st.stats = StageStats{}
	st.dwq = st.dwq[:0]
	st.dwHead = 0
	if st.last {
		st.lossRaw = 0
	}
	for _, op := range st.ops {
		if op.kind == opFwdMB {
			st.runForward(op.mb)
		} else {
			st.runBackward(op.mb)
		}
	}
	// Drain the remaining deferred δW — the trapezoid tail. Still counted as
	// fill: on a multicore host it overlaps the other stages' remaining work.
	for st.runOneDeferred() {
	}
}

func (st *pipeStage) runForward(mb int) {
	var x *tensor.Tensor
	if st.actIn == nil {
		x = st.p.mbX[mb]
	} else {
		x = st.recv(st.actIn, mb)
	}
	t0 := time.Now()
	obs := st.p.obs
	for j, l := range st.layers[mb] {
		in, s0 := x.Len(), t0
		if obs != nil {
			s0 = time.Now()
		}
		x = wsForward(l, x, st.ws)
		if obs != nil {
			st.span(obs, OpFwd, st.lo+j+1, mb, s0, in+x.Len())
		}
	}
	st.stats.Fwd += time.Since(t0)
	if st.last {
		st.logits[mb] = x
	} else {
		st.actOut <- pipeMsg{mb: mb, t: x}
	}
}

func (st *pipeStage) runBackward(mb int) {
	obs := st.p.obs
	var g *tensor.Tensor
	if st.last {
		t0 := time.Now()
		logits := st.logits[mb]
		st.lossGrad[mb] = tensor.Ensure(st.lossGrad[mb], logits.Shape[0], logits.Shape[1])
		st.lossRaw = nn.SoftmaxCrossEntropyChunk(st.lossGrad[mb], logits, st.p.mbLabels[mb], st.p.stepN, st.lossRaw)
		g = st.lossGrad[mb]
		st.stats.DO += st.span(obs, OpLoss, 0, mb, t0, logits.Len())
	} else {
		g = st.recv(st.gradIn, mb)
	}
	for j := len(st.layers[mb]) - 1; j >= 0; j-- {
		gi := st.lo + j + 1
		if st.p.fill {
			st.dwq = append(st.dwq, deferredDW{layer: st.chb[mb][j], grad: g, gi: gi, mb: mb})
		} else {
			t0 := time.Now()
			st.chb[mb][j].WeightGradChunk(g, st.ws)
			st.stats.DWInline += st.span(obs, OpDW, gi, mb, t0, 0)
		}
		if st.id == 0 && j == 0 {
			// δO of the bottommost layer feeds nothing; the serial reference
			// computes and discards it, so skipping cannot change any bit.
			break
		}
		t0 := time.Now()
		g = st.wsb[mb][j].InputGradWS(g, st.ws)
		st.stats.DO += st.span(obs, OpDO, gi, mb, t0, 0)
	}
	if st.gradOut != nil {
		st.gradOut <- pipeMsg{mb: mb, t: g}
	}
}

// span closes the op that started at t0: it returns the op's duration for the
// stage's stats and, observed, reports it on the stage's lane.
func (st *pipeStage) span(obs Observer, kind OpKind, layer, mb int, t0 time.Time, elems int) time.Duration {
	end := time.Now()
	if obs != nil {
		obs(OpEvent{Kind: kind, Layer: layer, Lane: st.id, Micro: mb + 1, Start: t0, End: end, Elems: elems})
	}
	return end.Sub(t0)
}

// recv returns the expected microbatch's message. While the queue is empty it
// fills the wait with deferred δW ops; only when none remain does it wait —
// polling briefly (recvHot: the neighbour stage is mid-op, and its send beats
// a wake-up) before it blocks — and that waiting time is the exposed bubble.
func (st *pipeStage) recv(ch chan pipeMsg, mb int) *tensor.Tensor {
	for {
		select {
		case m := <-ch:
			if m.mb != mb {
				panic(fmt.Sprintf("train: stage %d expected microbatch %d, got %d", st.id, mb, m.mb))
			}
			return m.t
		default:
		}
		if !st.runOneDeferred() {
			t0 := time.Now()
			m, _ := recvHot(ch, &st.poll)
			st.stats.Idle += st.span(st.p.obs, OpIdle, 0, mb, t0, 0)
			if m.mb != mb {
				panic(fmt.Sprintf("train: stage %d expected microbatch %d, got %d", st.id, mb, m.mb))
			}
			return m.t
		}
	}
}

// runOneDeferred pops and executes the oldest deferred δW, preserving the
// per-layer ascending-microbatch accumulation order (the queue is FIFO and
// backwards are emitted in ascending microbatch order).
func (st *pipeStage) runOneDeferred() bool {
	if st.dwHead >= len(st.dwq) {
		return false
	}
	d := st.dwq[st.dwHead]
	st.dwq[st.dwHead] = deferredDW{}
	st.dwHead++
	t0 := time.Now()
	d.layer.WeightGradChunk(d.grad, st.ws)
	st.stats.DWFill += st.span(st.p.obs, OpDWFill, d.gi, d.mb, t0, 0)
	return true
}
