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
// in place (nn.Layer.WeightGradAcc over tensor.TMatMulAcc/SumRowsAcc),
// microbatch loss continues the full-batch loss fold (nn.SoftmaxCrossEntropyChunk), and
// per-layer δW chunks execute in ascending microbatch order because each
// stage's deferral queue is FIFO and its table (stageRows) emits backwards in
// ascending microbatch order. The differential suite asserts the identity
// under the race detector.
//
// Concurrency/ownership: all M microbatch networks (the prototype and M−1
// clones) share the prototype's Param tensors; stage s is the only goroutine that
// ever touches layers [Bounds[s], Bounds[s+1]) — their forward caches, their
// retained gradient buffers, and their parameters' Grad tensors — so no δW
// write ever races. Tensors cross stages only through channel sends, which
// order the underlying buffer writes before the reads. Queues have capacity
// M, so sends never block and any schedule-consistent op order is
// deadlock-free.
type Pipeline struct {
	proto  *Network
	nets   []*Network // nets[m] runs microbatch m (nets[1] is proto itself); nets[0] = proto, the whole batch
	part   graph.Partition
	sched  PipeSchedule
	fill   bool
	opt    nn.Optimizer
	stages []*pipeStage
	acks   chan struct{}
	wg     sync.WaitGroup
	closed bool

	// xs and ls are the retained input view headers and label subslices of a
	// step's microbatches, indexed like nets (index 0 stays empty).
	xs []*tensor.Tensor
	ls [][]int

	// caller is the lane of the goroutine calling Step: gradient zeroing, the
	// update — and the whole serial table for a batch too small to split.
	caller lane
	serial []row

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
	// Partition places the layers on the stages; its L and stage count must
	// match the network and Stages. The zero value is
	// graph.PartitionEven(L, Stages).
	Partition graph.Partition
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

// pipeStage is one stage's persistent goroutine: a lane, the table it runs
// every step, and the channel that starts one.
type pipeStage struct {
	lane
	rows []row
	cmd  chan struct{}
}

// NewPipeline partitions proto into cfg.Stages contiguous stages and starts
// their goroutines.
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
	part := cfg.Partition
	var err error
	if part.L == 0 && part.Bounds == nil {
		part, err = graph.PartitionEven(L, S)
	} else if err = part.Validate(); err == nil && (part.L != L || part.Stages() != S) {
		err = fmt.Errorf("train: partition of %d layers into %d stages, want %d into %d", part.L, part.Stages(), L, S)
	}
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		proto:    proto,
		nets:     make([]*Network, M+1),
		part:     part,
		sched:    cfg.Schedule,
		fill:     !cfg.NoDWFill,
		opt:      opt,
		acks:     make(chan struct{}, S),
		xs:       make([]*tensor.Tensor, M+1),
		ls:       make([][]int, M+1),
		serial:   stepRows(L, graph.Conventional(L), 0),
		statsBuf: make([]StageStats, S),
	}
	p.nets[0], p.nets[1] = proto, proto
	protoParams := proto.Params()
	for m := 2; m <= M; m++ {
		net := cfg.Build()
		if net == nil {
			return nil, fmt.Errorf("train: Build returned nil lane")
		}
		if err := alignParams(proto, net); err != nil {
			return nil, err
		}
		// All microbatch networks share the prototype's parameters: re-alias
		// before any forward so cached views (e.g. Conv2D's weight reshape) bind
		// to the shared tensors. Grad writes stay race-free because each Param's
		// layer lives in exactly one stage.
		for i, lp := range net.Params() {
			lp.Value = protoParams[i].Value
			lp.Grad = protoParams[i].Grad
		}
		p.nets[m] = net
	}
	p.caller = newLane(S, &p.obs)
	p.caller.bind(proto, nil, nil)
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
			lane: lane{id: s, obs: &p.obs, timed: true, ws: tensor.NewWorkspace(), nets: p.nets, labels: p.ls},
			rows: stageRows(cfg.Schedule, s, S, M, lo, hi, p.fill),
			cmd:  make(chan struct{}, 1),
		}
		if s == 0 {
			st.x = p.xs
		} else {
			st.actIn, st.gradOut = actCh[s-1], gradCh[s-1]
		}
		if s < S-1 {
			st.actOut, st.gradIn = actCh[s], gradCh[s]
		}
		st.size()
		p.stages = append(p.stages, st)
	}
	p.wg.Add(S)
	for _, st := range p.stages {
		go p.stageLoop(st)
	}
	return p, nil
}

// Partition returns the stage partition.
func (p *Pipeline) Partition() graph.Partition { return p.part }

// MicroBatches returns M.
func (p *Pipeline) MicroBatches() int { return len(p.nets) - 1 }

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
// final short batch) run the serial table on the prototype, on the calling
// goroutine — which computes the same bits a pipeline over that batch would.
func (p *Pipeline) Step(x *tensor.Tensor, labels []int) (float64, PipeStepStats, error) {
	if p.closed {
		return 0, PipeStepStats{}, ErrClosed
	}
	st := PipeStepStats{Stages: 1, MicroBatches: 1, Schedule: p.sched, FillDW: p.fill}
	update := func() { p.opt.Step(p.proto.Params()) }
	if M := len(p.nets) - 1; len(labels) < M {
		t0 := time.Now()
		p.caller.bind(p.proto, x, labels)
		p.caller.step(func() { p.caller.run(p.serial) }, update)
		st.Wall = time.Since(t0)
		return p.caller.loss(), st, nil
	}
	st.Stages, st.MicroBatches, st.PerStage = len(p.stages), len(p.nets)-1, p.statsBuf
	if err := shardViews(x, labels, p.xs[1:], p.ls[1:]); err != nil {
		return 0, st, err
	}
	p.caller.step(func() {
		p.caller.run(zeroRows)
		t0 := time.Now()
		for _, s := range p.stages {
			s.cmd <- struct{}{}
		}
		for range p.stages {
			<-p.acks
		}
		st.Wall = time.Since(t0)
	}, update)
	for i, s := range p.stages {
		b := &s.busy
		p.statsBuf[i] = StageStats{Fwd: b[OpFwd], DO: b[OpDO] + b[OpLoss], DWInline: b[OpDW], DWFill: b[OpDWFill], Idle: b[OpIdle]}
	}
	return p.stages[len(p.stages)-1].loss(), st, nil
}

// stageLoop is one stage's persistent goroutine: one run of the stage's table
// per command. It polls for the next step's command before it parks: between
// two back-to-back steps lies only the caller's update, shorter than a
// wake-up.
func (p *Pipeline) stageLoop(st *pipeStage) {
	defer p.wg.Done()
	for {
		if _, ok := recvHot(st.cmd, &st.poll); !ok {
			return
		}
		st.run(st.rows)
		p.acks <- struct{}{}
	}
}
