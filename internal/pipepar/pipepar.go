// Package pipepar simulates cross-layer model-parallel and pipeline-parallel
// training (§5.2, §8.4): GPipe-style micro-batch pipelining, PipeDream-style
// 1F1B with weight stashing, and the paper's OOO-Pipe1 (gradient
// fast-forwarding) and OOO-Pipe2 (fast-forwarding + modulo allocation).
//
// The engine is a discrete-event simulation: each GPU is a serial compute
// resource with a policy that picks among ready tasks; inter-GPU activation
// and gradient transfers serialize on each GPU's egress link. Per-task costs
// come from the model's per-layer times divided across micro-batches, plus a
// per-task kernel overhead that makes very small micro-batches unprofitable
// (the §8.4.1 RNN observation).
package pipepar

import (
	"fmt"
	"time"

	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/sim"
	"oooback/internal/trace"
)

// Schedule selects the pipeline discipline.
type Schedule int

const (
	// GPipe runs all forwards then all backwards per iteration, with a full
	// flush (synchronous semantics).
	GPipe Schedule = iota
	// PipeDream runs 1F1B with weight stashing: the next iteration's
	// forwards start before the previous flush completes, at the cost of
	// parameter staleness.
	PipeDream
	// DAPPLE runs early-backward 1F1B *within* an iteration but keeps the
	// synchronous flush (no staleness) — the §8.4.2 baseline.
	DAPPLE
)

func (s Schedule) String() string {
	switch s {
	case GPipe:
		return "GPipe"
	case PipeDream:
		return "PipeDream"
	case DAPPLE:
		return "DAPPLE"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Config describes one pipeline-parallel run.
type Config struct {
	// GPUs is the number of pipeline workers.
	GPUs int
	// MicroBatches per mini-batch; 1 means plain cross-layer model
	// parallelism (Fig 5).
	MicroBatches int
	// Alloc maps 0-based layer index to GPU (BalancedContiguous,
	// graph.Partition.Alloc or core.ModuloAllocation).
	Alloc []int
	// FastForward enables gradient fast-forwarding: δO tasks preempt δW
	// tasks in each GPU's ready queue (§5.2.1).
	FastForward bool
	// Schedule is the pipeline discipline.
	Schedule Schedule
	// MaxVersions bounds PipeDream's in-flight weight versions (≥ 1).
	MaxVersions int
	// Link is the inter-GPU interconnect.
	Link netsim.LinkSpec
	// Iterations to simulate (≥ 2 for a steady-state period; default 3).
	Iterations int

	// Replicas > 1 enables hybrid data+pipeline parallel training (§6): the
	// configured pipeline is replicated and every layer's weight gradients
	// are synchronized across replicas once its last δW of the iteration
	// completes. The synchronization gates the next iteration's forward of
	// that layer. The engine simulates one representative replica.
	Replicas int
	// SyncLink is the inter-replica interconnect (required when Replicas > 1).
	// Each replica has a NIC of its own: the collective's fan-in per NIC is 1.
	SyncLink netsim.LinkSpec
	// Recompute enables GPipe-style activation re-materialization: each
	// micro-batch's backward at a layer first re-runs the layer's forward
	// (charged onto the δO task), trading compute for activation memory —
	// the §6 combination of ooo backprop with check-point/re-computation.
	Recompute bool
	// Bidirectional runs Chimera-style dual pipelines (related work [45]):
	// odd micro-batches traverse the stages in reverse GPU order, so the
	// fill and drain bubbles of the two directions interleave.
	Bidirectional bool
	// ReverseK combines reverse first-k with fast-forwarding (§6): under
	// FastForward, the deferred δW of layers 1..ReverseK run first and in
	// ascending order, so their critical synchronizations start earliest;
	// the remaining δW follow in fast-forwarding (descending) order.
	ReverseK int
}

// Result of a pipeline simulation.
type Result struct {
	// Period is the steady-state time per mini-batch.
	Period time.Duration
	// Throughput is samples/second at the model's batch size.
	Throughput float64
	// MeanUtil is the mean busy fraction across GPUs (1 − bubble fraction).
	MeanUtil float64
	// PeakActBytes is the largest per-GPU activation residency observed:
	// each micro-batch's stored input activations live from their forward
	// until the corresponding δW runs, so deferred weight gradients (§5.2.1
	// fast-forwarding) raise this — the §8.4.1 memory overhead.
	PeakActBytes int64
	// Versions is the maximum number of weight versions alive (1 for
	// synchronous schedules; > 1 under PipeDream weight stashing).
	Versions int
	// Trace holds per-GPU execution spans of the LAST simulated iteration.
	Trace *trace.Trace
}

// taskKind orders the three computations.
type taskKind int

const (
	tFwd taskKind = iota
	tDO
	tDW
)

// task is one schedulable unit: computation kind × iteration × micro-batch ×
// layer.
type task struct {
	kind  taskKind
	iter  int
	mb    int
	layer int // 0-based
	dur   time.Duration

	deps  int // unmet dependencies
	succs []*task
	gpu   int
	done  bool
}

func (t *task) name() string {
	k := [...]string{"F", "O", "W"}[t.kind]
	return fmt.Sprintf("%s%d.%c", k, t.layer+1, 'A'+byte(t.mb%26))
}

// perTaskOverhead is the fixed kernel-launch/setup cost a task pays
// regardless of micro-batch size; kernel-heavy layers (RNN cells) pay more,
// which is part of why micro-batching can hurt them (§8.4.1).
func perTaskOverhead(kernels int) time.Duration {
	return time.Duration(kernels) * 1500 * time.Nanosecond
}

// microDur converts a full-batch computation time into a per-micro-batch
// time, charging the occupancy loss: a kernel whose thread blocks shrink by
// the micro-batch factor runs at lower SM efficiency, so the per-micro-batch
// time is more than full/M. This is the second §8.4.1 reason micro-batching
// hurts the RNN ("because of the smaller task sizes, the level of
// parallelism decreases").
func microDur(p models.GPUProfile, full time.Duration, blocks, m int) time.Duration {
	if m <= 1 {
		return full
	}
	mb := blocks / m
	if mb < 1 {
		mb = 1
	}
	scale := p.Efficiency(blocks) / p.Efficiency(mb)
	return time.Duration(float64(full) * scale / float64(m))
}

// pipeDreamRuntimeScale is the end-to-end overhead of the PipeDream
// prototype relative to the paper's TensorFlow/XLA pipeline: its PyTorch
// runtime lacks XLA's kernel fusion, and weight stashing adds per-micro-batch
// version juggling. The paper reports OOO-Pipe2 running 1.14–1.63× faster
// than PipeDream while both pipeline comparably, which this constant encodes.
const pipeDreamRuntimeScale = 1.18

// BalancedContiguous returns PipeDream-style profiler-balanced consecutive
// stages for a model: stage costs (F+δO+δW per layer) are equalized, which is
// what GPipe/PipeDream deployments do instead of counting layers. With more
// GPUs than layers, each layer gets a GPU of its own and the rest stay idle.
func BalancedContiguous(m *models.Model, gpus int) []int {
	costs := make([]time.Duration, len(m.Layers))
	for i, l := range m.Layers {
		costs[i] = l.Fwd + l.DO + l.DW
	}
	p, err := graph.PartitionBalanced(costs, min(gpus, len(costs)))
	if err != nil {
		panic("pipepar: " + err.Error())
	}
	return p.Alloc()
}

// Run simulates the configured pipeline over cfg.Iterations mini-batches and
// reports the steady-state period.
func Run(m *models.Model, cfg Config) Result {
	L := len(m.Layers)
	if len(cfg.Alloc) != L {
		panic(fmt.Sprintf("pipepar: alloc has %d entries for %d layers", len(cfg.Alloc), L))
	}
	if cfg.MicroBatches < 1 {
		cfg.MicroBatches = 1
	}
	iters := cfg.Iterations
	if iters < 2 {
		iters = 3
	}
	if cfg.MaxVersions < 1 {
		cfg.MaxVersions = 1
	}

	b := newBuilder(m, cfg, iters)
	b.wire()
	return b.simulate()
}

// builder holds the task graph under construction and the runtime state.
type builder struct {
	m     *models.Model
	cfg   Config
	iters int
	L, M  int

	fwd, do, dw [][][]*task // [iter][mb][layer]
	all         []*task

	// runtime
	eng      *sim.Engine
	gpuBusy  []bool
	ready    [][]*task // per GPU
	egress   []*sim.Server
	syncSrv  []*sim.Server // per GPU, hybrid gradient synchronization
	tr       *trace.Trace
	iterDone []sim.Time
	// iterDWLeft[it] counts iteration it's δW tasks not yet complete; the
	// iteration is done when it reaches 0.
	iterDWLeft []int
	seq        map[*task]int

	// hybrid sync state: dwLeft[it][l] counts outstanding δW micro-batches;
	// syncGate[it][l] fires the gated forwards when the layer's collective
	// completes.
	dwLeft   [][]int
	syncGate [][]*sim.Gate

	// activation residency accounting (per GPU).
	actBytes []int64
	actPeak  int64
}

func newBuilder(m *models.Model, cfg Config, iters int) *builder {
	b := &builder{m: m, cfg: cfg, iters: iters, L: len(m.Layers), M: cfg.MicroBatches}
	b.fwd = make([][][]*task, iters)
	b.do = make([][][]*task, iters)
	b.dw = make([][][]*task, iters)
	for it := 0; it < iters; it++ {
		b.fwd[it] = make([][]*task, b.M)
		b.do[it] = make([][]*task, b.M)
		b.dw[it] = make([][]*task, b.M)
		for mb := 0; mb < b.M; mb++ {
			b.fwd[it][mb] = make([]*task, b.L)
			b.do[it][mb] = make([]*task, b.L)
			b.dw[it][mb] = make([]*task, b.L)
			for l := 0; l < b.L; l++ {
				lay := b.m.Layers[l]
				gpu := cfg.Alloc[l]
				if cfg.Bidirectional && mb%2 == 1 {
					gpu = cfg.GPUs - 1 - gpu
				}
				mk := func(kind taskKind, full time.Duration, kernels, blocks int) *task {
					dur := microDur(m.Profile, full, blocks, b.M) + perTaskOverhead(kernels)
					if cfg.Schedule == PipeDream {
						dur = time.Duration(float64(dur) * pipeDreamRuntimeScale)
					}
					return &task{
						kind: kind, iter: it, mb: mb, layer: l,
						dur: dur,
						gpu: gpu,
					}
				}
				b.fwd[it][mb][l] = mk(tFwd, lay.Fwd, lay.FwdKernels, lay.FwdBlocks)
				doTime := lay.DO
				if cfg.Recompute {
					// Re-materialize the layer's forward before its backward.
					doTime += lay.Fwd
				}
				b.do[it][mb][l] = mk(tDO, doTime, lay.DOKernels, lay.DOBlocks)
				b.dw[it][mb][l] = mk(tDW, lay.DW, lay.DWKernels, lay.DWBlocks)
				b.all = append(b.all, b.fwd[it][mb][l], b.do[it][mb][l], b.dw[it][mb][l])
			}
		}
	}
	b.seq = make(map[*task]int, len(b.all))
	return b
}

// addDep makes `to` wait for `from`.
func addDep(from, to *task) {
	from.succs = append(from.succs, to)
	to.deps++
}

// wire installs all dependency edges.
func (b *builder) wire() {
	for it := 0; it < b.iters; it++ {
		for mb := 0; mb < b.M; mb++ {
			for l := 0; l < b.L; l++ {
				// Forward chain.
				if l > 0 {
					addDep(b.fwd[it][mb][l-1], b.fwd[it][mb][l])
				}
				// Loss gradient: δO_L and δW_L wait for F_L.
				if l == b.L-1 {
					addDep(b.fwd[it][mb][l], b.do[it][mb][l])
					addDep(b.fwd[it][mb][l], b.dw[it][mb][l])
				} else {
					// δO_l and δW_l consume the gradient from δO_{l+1}.
					addDep(b.do[it][mb][l+1], b.do[it][mb][l])
					addDep(b.do[it][mb][l+1], b.dw[it][mb][l])
					// The backward computation also needs this GPU's stored
					// forward state.
					addDep(b.fwd[it][mb][l], b.do[it][mb][l])
				}
			}
			// GPipe phase order: no backward until every micro-batch of this
			// iteration finished its full forward pass (pipeline flush at
			// the fwd/bwd boundary is implicit in the stage dependencies;
			// the per-GPU policy keeps F ahead of B — see pick()).
		}
		// Iteration boundary: synchronous schedules flush all δW before the
		// next iteration's first forward; PipeDream allows cfg.MaxVersions
		// iterations in flight. Hybrid runs gate per layer on the gradient
		// synchronization instead (installed at runtime via syncGate).
		gateIter := it + 1
		if b.cfg.Schedule == PipeDream {
			gateIter = it + b.cfg.MaxVersions
		}
		if gateIter < b.iters && b.cfg.Replicas <= 1 {
			for mb := 0; mb < b.M; mb++ {
				for l := 0; l < b.L; l++ {
					for mb2 := 0; mb2 < b.M; mb2++ {
						addDep(b.dw[it][mb][l], b.fwd[gateIter][mb2][0])
					}
				}
			}
		}
		if gateIter < b.iters && b.cfg.Replicas > 1 {
			// Each layer's next-iteration forwards wait for its sync; the
			// extra dependency is released by the sync completion callback.
			for l := 0; l < b.L; l++ {
				for mb2 := 0; mb2 < b.M; mb2++ {
					b.fwd[gateIter][mb2][l].deps++
				}
			}
		}
	}
}

// simulate runs the event loop and gathers metrics.
func (b *builder) simulate() Result {
	b.eng = sim.New()
	n := b.cfg.GPUs
	b.gpuBusy = make([]bool, n)
	b.ready = make([][]*task, n)
	b.egress = make([]*sim.Server, n)
	b.syncSrv = make([]*sim.Server, n)
	for g := 0; g < n; g++ {
		b.egress[g] = sim.NewServer(b.eng)
		b.syncSrv[g] = sim.NewServer(b.eng)
	}
	if b.cfg.Replicas > 1 {
		b.initSyncGates()
	}
	b.tr = &trace.Trace{}
	b.iterDone = make([]sim.Time, b.iters)
	b.iterDWLeft = make([]int, b.iters)
	for it := range b.iterDWLeft {
		b.iterDWLeft[it] = b.M * b.L
	}
	b.actBytes = make([]int64, n)

	// Deterministic ready-queue ordering: assign sequence numbers in a
	// policy-independent canonical order (iteration, then the natural
	// traversal within it).
	seq := 0
	for it := 0; it < b.iters; it++ {
		for mb := 0; mb < b.M; mb++ {
			for l := 0; l < b.L; l++ {
				b.seq[b.fwd[it][mb][l]] = seq
				seq++
			}
		}
		for mb := b.M - 1; mb >= 0; mb-- {
			for l := b.L - 1; l >= 0; l-- {
				b.seq[b.do[it][mb][l]] = seq
				seq++
				b.seq[b.dw[it][mb][l]] = seq
				seq++
			}
		}
	}

	// Seed: tasks with no unmet deps.
	for _, t := range b.all {
		if t.deps == 0 {
			b.enqueue(t)
		}
	}
	for g := 0; g < n; g++ {
		b.dispatch(g)
	}
	b.eng.Run()

	for _, t := range b.all {
		if !t.done {
			panic(fmt.Sprintf("pipepar: deadlock, task %s (iter %d) never ran", t.name(), t.iter))
		}
	}

	first, last := b.iterDone[0], b.iterDone[b.iters-1]
	period := time.Duration(int64(last-first) / int64(b.iters-1))
	if b.cfg.Schedule != PipeDream && b.cfg.Replicas <= 1 {
		// Synchronous schedules do not overlap iterations; the first
		// iteration is representative and avoids warmup bias. (PipeDream and
		// hybrid runs overlap iterations, so they use the steady-state rate.)
		period = first
	}
	versions := 1
	if b.cfg.Schedule == PipeDream {
		versions = b.cfg.MaxVersions
	}
	replicas := b.cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	return Result{
		Period:       period,
		Throughput:   float64(b.m.Batch*replicas) / period.Seconds(),
		MeanUtil:     b.tr.MeanWindowUtilization(),
		PeakActBytes: b.actPeak,
		Versions:     versions,
		Trace:        b.tr,
	}
}

// enqueue adds a dependency-free task to its GPU's ready queue.
func (b *builder) enqueue(t *task) {
	g := t.gpu
	b.ready[g] = append(b.ready[g], t)
	b.dispatch(g)
}

// pick selects the next task for a GPU under the configured policy and
// removes it from the queue. Policy classes (lower runs first):
//
//	GPipe:     forward < δO ≤ δW   (fill-drain; fast-forwarding demotes δW
//	                                so it fills the pipeline bubbles)
//	PipeDream: δO ≤ δW < forward   (1F1B: drain backward before admitting
//	                                new micro-batches)
//
// Earlier iterations always run first; within a class, canonical sequence
// order (which encodes mb-ascending forwards and mb-descending backwards).
func (b *builder) pick(g int) *task {
	q := b.ready[g]
	if len(q) == 0 {
		return nil
	}
	class := func(t *task) int {
		fwdClass, doClass, dwClass := 0, 1, 1
		if b.cfg.Schedule == PipeDream || b.cfg.Schedule == DAPPLE {
			fwdClass, doClass, dwClass = 1, 0, 0
		}
		if b.cfg.FastForward {
			dwClass = 2
		}
		switch t.kind {
		case tFwd:
			return fwdClass
		case tDO:
			return doClass
		default:
			return dwClass
		}
	}
	best := 0
	for i := 1; i < len(q); i++ {
		a, c := q[i], q[best]
		ca, cb := class(a), class(c)
		if a.iter != c.iter {
			if a.iter < c.iter {
				best = i
			}
			continue
		}
		if ca != cb {
			if ca < cb {
				best = i
			}
			continue
		}
		if b.cfg.ReverseK > 0 && a.kind == tDW && c.kind == tDW {
			if b.dwRank(a) < b.dwRank(c) {
				best = i
			}
			continue
		}
		if b.seq[a] < b.seq[c] {
			best = i
		}
	}
	t := q[best]
	b.ready[g] = append(q[:best], q[best+1:]...)
	return t
}

// dwRank orders deferred δW under the §6 hybrid: layers 1..ReverseK first in
// ascending order (their syncs are the critical ones), then the rest in
// fast-forwarding (descending) order.
func (b *builder) dwRank(t *task) int {
	k := b.cfg.ReverseK
	if t.layer < k {
		return t.layer
	}
	return k + (b.L - t.layer)
}

// dispatch starts the next task on GPU g if it is idle.
func (b *builder) dispatch(g int) {
	if b.gpuBusy[g] {
		return
	}
	t := b.pick(g)
	if t == nil {
		return
	}
	b.gpuBusy[g] = true
	start := b.eng.Now()
	b.eng.After(t.dur, func() {
		t.done = true
		kind := [...]string{"fwd", "dO", "dW"}[t.kind]
		if t.iter == b.iters-1 {
			b.tr.Add(fmt.Sprintf("GPU%d", g), t.name(), kind, start, b.eng.Now())
		}
		b.noteActivation(t)
		b.complete(t)
		b.gpuBusy[g] = false
		b.dispatch(g)
	})
}

// noteActivation tracks per-GPU tensor residency. Two tensor families:
//
//   - stored input activations (ActBytes/M per micro-batch): resident from
//     the forward task until the matching δW completes;
//   - output gradients (OutBytes/M): produced for layer l when δO of layer
//     l+1 (or the loss) completes, released when both δO_l and δW_l ran.
//     Deferring δW (fast-forwarding) stretches these — the §8.4.1 overhead.
func (b *builder) noteActivation(t *task) {
	bump := func(gpu int, delta int64) {
		b.actBytes[gpu] += delta
		if b.actBytes[gpu] > b.actPeak {
			b.actPeak = b.actBytes[gpu]
		}
	}
	actPer := b.m.Layers[t.layer].ActBytes / int64(b.M)
	gradFor := func(l int) (*task, int64) {
		consumer := b.do[t.iter][t.mb][l]
		return consumer, b.m.Layers[l].OutBytes / int64(b.M)
	}
	switch t.kind {
	case tFwd:
		bump(t.gpu, actPer)
		if t.layer == b.L-1 { // loss gradient materializes at the top
			c, per := gradFor(b.L - 1)
			bump(c.gpu, per)
		}
	case tDO:
		if t.layer > 0 { // produces g for the layer below
			c, per := gradFor(t.layer - 1)
			bump(c.gpu, per)
		}
		if b.dw[t.iter][t.mb][t.layer].done { // both consumers done → free g
			c, per := gradFor(t.layer)
			bump(c.gpu, -per)
		}
	case tDW:
		bump(t.gpu, -actPer)
		if b.do[t.iter][t.mb][t.layer].done {
			c, per := gradFor(t.layer)
			bump(c.gpu, -per)
		}
	}
}

// complete releases t's successors. Data-bearing edges to another GPU
// (activations to the next stage, gradients to the previous stage) pay a
// transfer on the producer's egress link — one transfer per destination GPU,
// even when several successors there consume the same tensor.
func (b *builder) complete(t *task) {
	if t.kind == tDW {
		b.noteIterProgress(t)
		if b.cfg.Replicas > 1 {
			b.noteSyncProgress(t)
		}
	}
	release := func(s *task) {
		s.deps--
		if s.deps == 0 {
			b.enqueue(s)
		}
	}
	// Which successor edges carry a tensor off-GPU?
	carries := func(s *task) bool {
		if s.gpu == t.gpu {
			return false
		}
		switch {
		case t.kind == tFwd && s.kind == tFwd && s.layer == t.layer+1:
			return true // activation to the next stage
		case t.kind == tDO && s.layer == t.layer-1:
			return true // gradient to the previous stage
		}
		return false // control edges (iteration gates, stored state)
	}
	byDest := make(map[int][]*task)
	var destOrder []int
	for _, s := range t.succs {
		if carries(s) {
			if _, ok := byDest[s.gpu]; !ok {
				destOrder = append(destOrder, s.gpu)
			}
			byDest[s.gpu] = append(byDest[s.gpu], s)
		} else {
			release(s)
		}
	}
	// The tensor produced: a forward task ships layer l's activation; a δO
	// task ships the gradient of layer l−1's output.
	bytesLayer := t.layer
	if t.kind == tDO {
		bytesLayer = t.layer - 1
	}
	for _, g := range destOrder {
		dests := byDest[g]
		bytes := b.m.Layers[bytesLayer].OutBytes / int64(b.M)
		dur := b.cfg.Link.TransferTime(bytes)
		b.egress[t.gpu].Submit(0, dur, func(_, _ sim.Time) {
			for _, s := range dests {
				release(s)
			}
		})
	}
}

// initSyncGates prepares the per-(iteration, layer) synchronization state
// for hybrid data+pipeline training.
func (b *builder) initSyncGates() {
	b.dwLeft = make([][]int, b.iters)
	b.syncGate = make([][]*sim.Gate, b.iters)
	for it := 0; it < b.iters; it++ {
		b.dwLeft[it] = make([]int, b.L)
		b.syncGate[it] = make([]*sim.Gate, b.L)
		for l := 0; l < b.L; l++ {
			b.dwLeft[it][l] = b.M
			gateIter := it + 1
			if gateIter >= b.iters {
				continue
			}
			it, l := it, l
			gated := make([]*task, 0, b.M)
			for mb2 := 0; mb2 < b.M; mb2++ {
				gated = append(gated, b.fwd[gateIter][mb2][l])
			}
			b.syncGate[it][l] = sim.NewGate(1, func() {
				for _, ft := range gated {
					ft.deps--
					if ft.deps == 0 {
						b.enqueue(ft)
					}
				}
			})
		}
	}
}

// noteSyncProgress starts the layer's gradient collective once its last δW
// micro-batch of the iteration completed; the collective occupies the
// stage's sync channel (critical low layers first) and, when done, releases
// the next iteration's forwards of that layer.
func (b *builder) noteSyncProgress(t *task) {
	it, l := t.iter, t.layer
	b.dwLeft[it][l]--
	if b.dwLeft[it][l] != 0 {
		return
	}
	dur := netsim.PSSyncTime(b.cfg.SyncLink, b.m.Layers[l].ParamBytes, b.cfg.Replicas, 1)
	gate := b.syncGate[it][l]
	gpu := t.gpu
	b.syncSrv[gpu].Submit(l, dur, func(start, end sim.Time) {
		if it == b.iters-1 {
			b.tr.Add(fmt.Sprintf("SYNC%d", gpu), fmt.Sprintf("S%d", l+1), "comm", start, end)
		}
		if gate != nil {
			gate.Done()
		}
	})
}

// noteIterProgress records when the last δW of an iteration completes.
func (b *builder) noteIterProgress(t *task) {
	b.iterDWLeft[t.iter]--
	if b.iterDWLeft[t.iter] == 0 {
		b.iterDone[t.iter] = b.eng.Now()
	}
}
