package train

import (
	"fmt"
	"sync"
	"time"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// DataParallel trains N replicas of one network on disjoint shards of each
// batch, with gradient reduction overlapped with the still-running backward
// passes — the real (executed, not simulated) counterpart of the paper's §5.1
// gradient synchronization scheduling. Each replica runs the step table on its
// shard — forward and an out-of-order backward pass — on its own goroutine;
// the table carries a publish row right after the last δW of every gradient
// bucket (possibly far out of layout order, e.g. under reverse first-k), which
// announces the bucket to a dedicated reducer goroutine. The reducer sums
// every bucket across replicas with a fixed pairwise tree the instant all N
// replicas published it, draining ready buckets in SyncSchedule priority
// order, concurrently with whatever backward work remains. A single optimizer
// step then applies the averaged gradient and broadcasts the updated weights
// to all replicas.
//
// Determinism: the reduction tree shape, the intra-bucket chunk order, and
// every kernel it calls are fixed by replica index and tensor size alone, so
// the summed gradient — and therefore the entire training trajectory — is
// bitwise identical to ReferenceStep (the same sharding and tree run serially
// on one goroutine) regardless of goroutine timing, GOMAXPROCS, or sync
// schedule. With one replica, Step degenerates to plain single-network
// training: no summing, no averaging, bit-identical to Executor.Step.
//
// A DataParallel is not safe for concurrent use: one Step or ReferenceStep at
// a time, and Close only after the last step returned; both return ErrClosed
// from then on.
type DataParallel struct {
	replicas []*replica
	plan     *reducePlan
	opt      nn.Optimizer

	// serial is the replicas' table, the same immutable slice for all of them;
	// rows is serial with the publish rows Step's reducer consumes.
	serial, rows []row

	pub     chan pubMsg      // replicas → reducer: bucket complete on replica
	redDone chan reduceStats // reducer → step: all buckets reduced
	acks    chan struct{}    // replicas → step: pass complete
	wg      sync.WaitGroup

	// caller is the lane of the goroutine calling Step (the update and the
	// step), reducer the reducer goroutine's.
	caller, reducer lane

	// obs receives the engine's op events (nil = none). Replica and reducer
	// goroutines read it after the command- or publish-channel receive that
	// hands them their work, which orders the read after Observe.
	obs Observer

	// shardX/shardLabels are the retained per-replica views into the step batch.
	shardX      []*tensor.Tensor
	shardLabels [][]int

	closed bool
}

// replica is one model copy: the lane its passes run on and its step state.
type replica struct {
	lane
	params []*nn.Param

	// The last pass on the replica's own clock: how long zeroing, forward and
	// loss took, and how long backward took. The lane's clock is when it ended.
	fwd, bwd time.Duration

	// cmd starts one pass — forward, loss, backward back to back. Capacity 1:
	// Step's send never waits for a replica that is still waking up.
	cmd chan struct{}
}

// DataParallelConfig configures NewDataParallel.
type DataParallelConfig struct {
	// Replicas is the data-parallel width N; ≤ 1 means single-replica.
	Replicas int
	// Build constructs one fresh replica network (same architecture and
	// deterministic init as the prototype; parameter values are overwritten
	// with the prototype's). Required when Replicas > 1.
	Build func() *Network
	// Schedule is the backward schedule every replica executes; nil means
	// conventional.
	Schedule graph.BackwardSchedule
	// Sync picks the reducer's bucket drain order.
	Sync SyncSchedule
	// BucketBytes is the gradient bucket size; 0 means 256 KiB, < 0 means one
	// bucket per layer.
	BucketBytes int64
}

// defaultBucketBytes mirrors the 25 MB DDP default scaled to this repo's
// model sizes: big enough to merge small layers, small enough that several
// buckets exist to overlap and prioritize.
const defaultBucketBytes = 256 << 10

// NewDataParallel builds the engine around a prototype network. The
// prototype becomes replica 0 — trained weights land in the caller's network
// — and cfg.Build creates replicas 1..N−1, which must align with the
// prototype parameter-for-parameter (same names and shapes, as produced by
// the same constructor with any seed). Close must be called to stop the
// engine's goroutines.
func NewDataParallel(proto *Network, opt nn.Optimizer, cfg DataParallelConfig) (*DataParallel, error) {
	N := cfg.Replicas
	if N < 1 {
		N = 1
	}
	L := len(proto.Layers)
	sched := cfg.Schedule
	if sched == nil {
		sched = graph.Conventional(L)
	}
	a, err := graph.Analyze(L, sched)
	if err != nil {
		return nil, fmt.Errorf("train: data-parallel schedule: %w", err)
	}
	bb := cfg.BucketBytes
	if bb == 0 {
		bb = defaultBucketBytes
	}
	dp := &DataParallel{
		plan:        newReducePlan(proto, a, cfg.Sync, bb),
		opt:         opt,
		serial:      stepRows(L, sched, 0),
		shardX:      make([]*tensor.Tensor, N),
		shardLabels: make([][]int, N),
	}
	dp.rows = publishRows(dp.serial, dp.plan)
	dp.pub = make(chan pubMsg, len(dp.plan.buckets)*N+1)
	dp.redDone = make(chan reduceStats, 1)
	dp.acks = make(chan struct{}, N)
	dp.caller = lane{id: N + 1, obs: &dp.obs}
	dp.reducer = lane{id: N, obs: &dp.obs, timed: true}
	for r := 0; r < N; r++ {
		net := proto
		if r > 0 {
			if cfg.Build == nil {
				return nil, fmt.Errorf("train: %d replicas need a Build function", N)
			}
			net = cfg.Build()
			if err := alignParams(proto, net); err != nil {
				return nil, err
			}
			for i, p := range net.Params() {
				copy(p.Value.Data, proto.Params()[i].Value.Data)
			}
		}
		rep := &replica{
			lane: lane{id: r, obs: &dp.obs, timed: true, ws: tensor.NewWorkspace(), pub: dp.pub,
				nets: []*Network{net}, x: dp.shardX[r : r+1], labels: dp.shardLabels[r : r+1]},
			params: net.Params(),
			cmd:    make(chan struct{}, 1),
		}
		rep.size()
		dp.replicas = append(dp.replicas, rep)
	}
	dp.wg.Add(N + 1)
	for _, rep := range dp.replicas {
		go dp.replicaLoop(rep)
	}
	go dp.reducerLoop()
	return dp, nil
}

// alignParams checks that a built replica matches the prototype
// parameter-for-parameter.
func alignParams(proto, rep *Network) error {
	pp, rp := proto.Params(), rep.Params()
	if len(pp) != len(rp) {
		return fmt.Errorf("train: replica has %d params, prototype %d", len(rp), len(pp))
	}
	for i := range pp {
		if pp[i].Name != rp[i].Name {
			return fmt.Errorf("train: replica param %d is %q, prototype %q", i, rp[i].Name, pp[i].Name)
		}
		if len(pp[i].Value.Data) != len(rp[i].Value.Data) {
			return fmt.Errorf("train: replica param %q has %d elements, prototype %d",
				pp[i].Name, len(rp[i].Value.Data), len(pp[i].Value.Data))
		}
	}
	return nil
}

// Net returns replica 0's network — the one whose parameters the optimizer
// updates and that holds the trained weights.
func (dp *DataParallel) Net() *Network { return dp.replicas[0].nets[0] }

// Replicas returns the data-parallel width.
func (dp *DataParallel) Replicas() int { return len(dp.replicas) }

// Observe attaches the engine's observer (nil detaches). Replica r reports on
// lane r, the reducer on lane Replicas, the goroutine calling Step on lane
// Replicas+1; see OpEvent.
func (dp *DataParallel) Observe(obs Observer) { dp.obs = obs }

// BucketInfo describes one bucket of the reduction plan.
type BucketInfo struct {
	Layers []int // member layers, 1-based, in L→1 walk order
	Elems  int   // total gradient elements synchronized by the bucket
	Prio   int   // drain key: lower drains first among ready buckets
}

// Plan returns the reduction plan's buckets in index order.
func (dp *DataParallel) Plan() []BucketInfo {
	out := make([]BucketInfo, len(dp.plan.buckets))
	for i, b := range dp.plan.buckets {
		out[i] = BucketInfo{
			Layers: append([]int(nil), b.layers...),
			Elems:  b.elems,
			Prio:   b.prio,
		}
	}
	return out
}

// StepStats reports one Step's timing decomposition. Forward and Backward are
// the slowest replica's forward (with loss) and backward pass, each timed on
// the replica's own goroutine, so neither includes the time a replica took to
// wake up. ReduceBusy is the time the reducer spent summing buckets;
// ReduceExposed is the part of reduction that extended past the last replica's
// backward completion — the non-overlapped remainder, the quantity the paper's
// §5.1 scheduling minimizes. Perfect overlap shows ReduceExposed ≈ 0 with
// ReduceBusy > 0.
type StepStats struct {
	Replicas                  int
	Buckets                   int
	Forward, Backward         time.Duration
	ReduceBusy, ReduceExposed time.Duration
}

// replicaLoop is one replica's persistent goroutine: on each command it runs
// the table once on its shard — forward, loss, backward, publishing buckets at
// their publish rows — and acknowledges it, then polls for the next command
// before it parks (between two back-to-back steps lies only the caller's
// update, shorter than a wake-up). All replica state is owned by this
// goroutine while a pass runs; ownership transfers through the command/ack
// channels.
func (dp *DataParallel) replicaLoop(r *replica) {
	defer dp.wg.Done()
	for {
		if _, ok := recvHot(r.cmd, &r.poll); !ok {
			return
		}
		r.pass(dp.rows)
		dp.acks <- struct{}{}
	}
}

// pass runs one table on the replica's lane and reads the pass's phase times
// off it.
func (r *replica) pass(rows []row) {
	r.run(rows)
	r.fwd = r.busy[OpZero] + r.busy[OpFwd] + r.busy[OpLoss]
	r.bwd = r.busy[OpDO] + r.busy[OpDW]
}

// Step runs one data-parallel training step: every replica runs forward and
// its out-of-order backward on its shard while the reducer drains published
// buckets, then one optimizer step on the averaged gradient and a weight
// broadcast. A step costs each replica one command and one acknowledgement —
// no barrier between forward and backward, which nothing needs: a replica's
// backward reads only its own forward, and the reducer counts publishes.
// Returns the batch mean loss (each shard's mean weighted by shard size —
// identical bits to ReferenceStep) and the step's timing decomposition. Once
// warm, a step allocates nothing. A batch with fewer examples than replicas —
// the final short batch of an epoch — cannot be sharded: replica 0 runs it
// whole on the calling goroutine (no reduction, no averaging) and the update
// broadcasts as usual; the path taken depends only on the batch size.
func (dp *DataParallel) Step(x *tensor.Tensor, labels []int) (float64, StepStats, error) {
	if dp.closed {
		return 0, StepStats{}, ErrClosed
	}
	st := StepStats{Replicas: len(dp.replicas), Buckets: len(dp.plan.buckets)}
	if len(labels) < len(dp.replicas) {
		st.Replicas = 1
		r0 := dp.replicas[0]
		if err := shardViews(x, labels, dp.shardX[:1], dp.shardLabels[:1]); err != nil {
			return 0, st, err
		}
		dp.caller.step(func() { r0.pass(dp.serial) }, dp.applyUpdate)
		st.Forward, st.Backward = r0.fwd, r0.bwd
		return r0.loss(), st, nil
	}
	if err := shardViews(x, labels, dp.shardX, dp.shardLabels); err != nil {
		return 0, st, err
	}
	var rs reduceStats
	dp.caller.step(func() {
		for _, rep := range dp.replicas {
			rep.cmd <- struct{}{}
		}
		for range dp.replicas {
			<-dp.acks
		}
		rs = <-dp.redDone
	}, dp.applyUpdate)
	var lastBwd time.Time
	for _, rep := range dp.replicas {
		st.Forward, st.Backward = max(st.Forward, rep.fwd), max(st.Backward, rep.bwd)
		if rep.clock.After(lastBwd) {
			lastBwd = rep.clock
		}
	}
	st.ReduceBusy = rs.busy
	st.ReduceExposed = max(rs.end.Sub(lastBwd), 0)
	return dp.foldLoss(len(labels)), st, nil
}

// foldLoss combines shard mean losses into the batch mean, in replica order.
func (dp *DataParallel) foldLoss(n int) float64 {
	var loss float64
	for _, rep := range dp.replicas {
		loss += rep.loss() * float64(rep.total)
	}
	return loss / float64(n)
}

// applyUpdate steps the optimizer on replica 0 (which holds the averaged
// gradient after reduction) and broadcasts the new weights to the others.
func (dp *DataParallel) applyUpdate() {
	r0 := dp.replicas[0]
	dp.opt.Step(r0.params)
	for _, rep := range dp.replicas[1:] {
		for i, p := range rep.params {
			copy(p.Value.Data, r0.params[i].Value.Data)
		}
	}
}

// ReferenceStep is the serial oracle for Step: the same shards, the same
// table without its publish rows, the same fixed reduction tree and bucket
// arithmetic — all executed sequentially on the calling goroutine, replica by
// replica, bucket by bucket in index order. Step must match it bit for bit;
// the differential tests assert exactly that under the race detector. An
// attached observer sees no reduce events.
func (dp *DataParallel) ReferenceStep(x *tensor.Tensor, labels []int) (float64, error) {
	if dp.closed {
		return 0, ErrClosed
	}
	if len(labels) < len(dp.replicas) {
		loss, _, err := dp.Step(x, labels)
		return loss, err
	}
	if err := shardViews(x, labels, dp.shardX, dp.shardLabels); err != nil {
		return 0, err
	}
	dp.caller.step(func() {
		for _, rep := range dp.replicas {
			rep.pass(dp.serial)
		}
		for b := range dp.plan.buckets {
			dp.reduceBucket(b)
		}
	}, dp.applyUpdate)
	return dp.foldLoss(len(labels)), nil
}

// Close stops the replica and reducer goroutines. Idempotent; must not
// overlap a step.
func (dp *DataParallel) Close() {
	if dp.closed {
		return
	}
	dp.closed = true
	for _, rep := range dp.replicas {
		close(rep.cmd)
	}
	close(dp.pub)
	dp.wg.Wait()
}
