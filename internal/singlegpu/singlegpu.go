// Package singlegpu simulates one training iteration of a model on a single
// GPU under the executors compared in §8.2 / Fig 7:
//
//   - TF: eager per-kernel issue (large CPU launch latency, no fusion);
//   - XLA: fused kernels with a faster issue path (the paper's baseline);
//   - Nimble: pre-compiled kernel issue (CUDA-Graph-like) but single-stream
//     and memory-hungry (it runs out of memory at large batches in §8.2);
//   - OOO-XLA: XLA plus Opt1 (pre-compiled kernel issue, §4.2) and Opt2
//     (multi-stream out-of-order computation scheduled by Algorithm 1, §4.1).
//
// The engine lowers a models.Model into gpusim kernels: per layer, one fused
// kernel per computation whose duration folds in the per-kernel setup gaps of
// its companion kernels, and whose issue cost is the kernel count times the
// executor's per-kernel issue latency.
package singlegpu

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"oooback/internal/core"
	"oooback/internal/gpusim"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/sim"
	"oooback/internal/trace"
)

// Executor selects the issue/stream strategy.
type Executor struct {
	// Name labels results ("XLA", "Nimble", ...).
	Name string
	// IssuePerKernel is the CPU launch latency per kernel.
	IssuePerKernel time.Duration
	// FusionFactor divides kernel counts (XLA fuses companions); ≥ 1.
	FusionFactor int
	// ExecScale multiplies kernel execution times (fusion also trims a bit
	// of execution); 1.0 = unchanged.
	ExecScale float64
	// PreCompiled enables Opt1: the whole iteration is captured and launched
	// with a single small issue (§4.2).
	PreCompiled bool
	// MultiStreamOOO enables Opt2: δW kernels run in a low-priority
	// sub-stream placed by Algorithm 1 (§4.1).
	MultiStreamOOO bool
	// NoReorder keeps every δW in the region where its gradient appears
	// (multi-stream without re-ordering) — the §8.2 "pragmatic" variant that
	// "can be simply applied without multi-region joint scheduling to
	// achieve a decent speedup". Only meaningful with MultiStreamOOO.
	NoReorder bool
	// MemoryFactor scales the executor's footprint relative to the model's
	// inherent requirement (Nimble's multi-pool allocator, §8.2).
	MemoryFactor float64
}

// Standard executors from the paper's evaluation.
func TF() Executor {
	return Executor{Name: "TF", IssuePerKernel: 14 * time.Microsecond, FusionFactor: 1,
		ExecScale: 1.05, MemoryFactor: 1.0}
}
func XLA() Executor {
	// XLA's win over TF is mostly fewer kernels (fusion); the per-launch
	// executor overhead is only mildly lower.
	return Executor{Name: "XLA", IssuePerKernel: 10 * time.Microsecond, FusionFactor: 2,
		ExecScale: 0.95, MemoryFactor: 1.0}
}
func Nimble() Executor {
	e := XLA()
	e.Name = "Nimble"
	e.PreCompiled = true
	// Nimble runs on PyTorch JIT kernels, which fuse less aggressively than
	// XLA's — slightly slower execution despite the pre-compiled issue.
	e.ExecScale = 1.08
	// Nimble pre-allocates per-stream memory pools and cannot reuse buffers
	// across captured graphs, which is why §8.2 reports it running out of
	// memory at batch sizes where XLA still fits.
	e.MemoryFactor = 2.5
	return e
}
func OOOXLAOpt1() Executor {
	e := XLA()
	e.Name = "XLA+Opt1"
	e.PreCompiled = true
	e.MemoryFactor = 1.0
	return e
}
func OOOXLA() Executor {
	e := OOOXLAOpt1()
	e.Name = "OOO-XLA"
	e.MultiStreamOOO = true
	e.MemoryFactor = 1.02
	return e
}

// Result reports one simulated training iteration.
type Result struct {
	Executor string
	// IterTime is the makespan of the iteration (forward + backward).
	IterTime time.Duration
	// Throughput is samples/second at the model's batch size.
	Throughput float64
	// PeakMemBytes is the estimated device memory requirement.
	PeakMemBytes int64
	// OOM indicates the executor does not fit on the device (IterTime and
	// Throughput are zero in that case).
	OOM bool
	// SMUtil is the mean SM thread-block occupancy over the simulated run —
	// the §2 "idling SMs" metric that Opt2 exists to raise.
	SMUtil float64
	// Trace holds the execution spans (issue thread, streams).
	Trace *trace.Trace
	// Plan is the Algorithm 1 sub-stream assignment (nil without Opt2).
	Plan *core.JointSchedule
}

// GraphLaunchLatency is the one-time cost of launching a pre-compiled
// iteration (CUDA Graph launch is tens of µs).
const GraphLaunchLatency = 30 * time.Microsecond

// Run simulates steady-state training of m with the executor on the GPU:
// two back-to-back iterations are simulated (the next iteration's F_i waits
// only on the previous iteration's δW_i/update of the same layer, so
// overflowed sub-stream δW kernels overlap the next forward pass, as in
// Fig 8), and the reported IterTime is the marginal cost of the second
// iteration.
func Run(m *models.Model, exec Executor, gpu gpusim.Config) Result {
	res := Result{Executor: exec.Name, Trace: &trace.Trace{}}

	res.PeakMemBytes = estimateMemory(m, exec)
	if gpu.MemoryBytes > 0 && res.PeakMemBytes > gpu.MemoryBytes {
		res.OOM = true
		return res
	}

	// With Opt2, Algorithm 1's greedy placement and the pragmatic
	// pin-in-place variant are both candidates; like the paper's
	// profile-driven step 1, measure both and keep the faster plan.
	candidates := []Executor{exec}
	if exec.MultiStreamOOO && !exec.NoReorder {
		pinned := exec
		pinned.NoReorder = true
		candidates = append(candidates, pinned)
	}
	best := sim.MaxTime
	eng := sim.New() // one engine, Reset between runs: the event pool stays warm
	for _, cand := range candidates {
		one, _, _, _ := runIters(eng, m, cand, gpu, 1, nil)
		tr := &trace.Trace{}
		two, plan, _, smUtil := runIters(eng, m, cand, gpu, 2, tr)
		if marginal := two - one; marginal < best {
			best = marginal
			res.Trace = tr
			res.Plan = plan.joint
			res.IterTime = marginal
			res.SMUtil = smUtil
		}
	}
	res.Throughput = core.Throughput(res.IterTime, m.Batch)
	return res
}

// runIters simulates `iters` back-to-back iterations on eng (Reset first, so
// a caller can reuse one engine across runs) and returns the makespan plus
// the device's mean SM occupancy. tr may be nil (spans discarded).
func runIters(eng *sim.Engine, m *models.Model, exec Executor, gpu gpusim.Config, iters int, tr *trace.Trace) (sim.Time, iterPlan, *trace.Trace, float64) {
	if tr == nil {
		tr = &trace.Trace{}
	}
	eng.Reset()
	dev := gpusim.New(eng, gpu)
	dev.SpanSink = func(stream, kernel string, start, end sim.Time) {
		kind := "fwd"
		switch {
		case len(kernel) > 1 && kernel[0] == 'O':
			kind = "dO"
		case len(kernel) > 1 && kernel[0] == 'W':
			kind = "dW"
		}
		tr.Add(stream, kernel, kind, start, end)
	}
	main := dev.NewStream("main", 0)
	sub := dev.NewStream("sub", 1)
	launcher := gpusim.NewLauncher(eng, GraphLaunchLatency)
	launcher.IssueSink = func(kernel string, start, end sim.Time) {
		tr.Add("issue", kernel, "issue", start, end)
	}

	plan := buildPlan(m, exec, gpu)
	var items []loweredKernel
	var prevUpd []*gpusim.Event
	for it := 0; it < iters; it++ {
		iterItems, upd := lowerToKernels(m, exec, dev, main, sub, plan, prevUpd)
		items = append(items, iterItems...)
		prevUpd = upd
	}

	if exec.PreCompiled {
		gi := make([]gpusim.GraphItem, len(items))
		for i, it := range items {
			gi[i] = gpusim.GraphItem{Stream: it.stream, Kernel: it.kernel}
		}
		launcher.IssueGraph("iter", gi)
	} else {
		issueEager(eng, tr, items)
	}
	end := eng.Run()
	return end, plan, tr, dev.SMUtilization(end)
}

// iterPlan is the lowered schedule: the backward order plus, with Opt2, the
// Algorithm 1 region assignment.
type iterPlan struct {
	// joint is nil for single-stream executors (conventional interleaving).
	// Its Regions map a backward region to the δW layers run in the
	// sub-stream during it.
	joint *core.JointSchedule
	// dos lists each backward region's δO layers (see backwardRegions).
	dos [][]int
}

// backwardRegions splits m's backward pass into regions: the model's blocks
// in backward order, so region 0 is the last block and runs first. It
// returns each layer's region (of[i-1] for layer i) and, per region, its δO
// layers in chain order.
func backwardRegions(m *models.Model) (of []int, dos [][]int) {
	blocks := m.Blocks()
	idx := make(map[string]int, len(blocks))
	for i, b := range blocks {
		idx[b] = len(blocks) - 1 - i
	}
	of, dos = make([]int, len(m.Layers)), make([][]int, len(blocks))
	for i := len(m.Layers); i >= 1; i-- {
		r := idx[m.Layers[i-1].Block]
		of[i-1] = r
		dos[r] = append(dos[r], i)
	}
	return of, dos
}

// buildPlan computes the backward schedule. Without Opt2 it is conventional;
// with Opt2 it runs Algorithm 1 over the model's blocks as regions.
func buildPlan(m *models.Model, exec Executor, gpu gpusim.Config) iterPlan {
	L := len(m.Layers)
	if !exec.MultiStreamOOO {
		return iterPlan{}
	}
	of, dos := backwardRegions(m)
	R := len(dos)
	tMain := make([]time.Duration, R)
	mainBlocks := make([]int, R) // representative δO occupancy
	counts := make([]int, R)
	for i, l := range m.Layers {
		r := of[i]
		tMain[r] += scaleDur(l.DO, exec.ExecScale) + companionSetup(l.DOKernels, exec, gpu)
		mainBlocks[r] += l.DOBlocks
		counts[r]++
	}
	for r := range mainBlocks {
		if counts[r] > 0 {
			mainBlocks[r] /= counts[r]
		}
	}
	var layers []int
	earliest := make(map[int]int)
	for i := 1; i <= L; i++ {
		layers = append(layers, i)
		// δW_i depends on δO_{i+1}, which lives in layer i+1's block; for the
		// top layer the gradient exists at backward start (region 0).
		if i == L {
			earliest[i] = 0
		} else {
			earliest[i] = of[i] // of[i] is layer i+1's region
		}
	}
	tSub := func(layer, region int) time.Duration {
		l := m.Layers[layer-1]
		return scaleDur(l.DW, exec.ExecScale) + companionSetup(l.DWKernels, exec, gpu)
	}
	speedup := func(layer, region int) float64 {
		l := m.Layers[layer-1]
		return core.PairSpeedup(mainBlocks[region], l.DWBlocks, gpu.SMCapacity,
			tMain[region], tSub(layer, region))
	}
	// Memory-constrained scheduling (§4.1): run Algorithm 1, and if the
	// induced schedule's peak exceeds MemoryAllowance × the conventional
	// peak, pre-schedule the first k backward regions eagerly (each δW runs
	// in the region where its gradient appears) and re-run Algorithm 1 for
	// the remaining regions, increasing k per re-run.
	convPeak := graph.PeakMemory(m, graph.Conventional(L))
	budget := int64(float64(convPeak) * MemoryAllowance)
	var joint core.JointSchedule
	startPre := 0
	if exec.NoReorder {
		startPre = R // pin every δW to its gradient's region
	}
	for pre := startPre; ; pre++ {
		pinned := make(map[int]int) // δW layer -> forced region
		var free []int
		for _, i := range layers {
			if earliest[i] < pre {
				pinned[i] = earliest[i]
			} else {
				free = append(free, i)
			}
		}
		joint = core.MultiRegionJoint(core.JointInput{
			TMain: tMain, Layers: free, Earliest: earliest, TSub: tSub, Speedup: speedup,
		})
		for i, r := range pinned {
			joint.Regions[r] = append(joint.Regions[r], i)
		}
		// Pinned δW must run in dependency order within their region:
		// descending by layer, higher layers' gradients first.
		for r := range joint.Regions {
			slices.SortFunc(joint.Regions[r], func(a, b int) int { return cmp.Compare(b, a) })
		}
		plan := iterPlan{joint: &joint, dos: dos}
		if pre >= R ||
			graph.PeakMemory(m, InducedBackwardOrder(m, &joint)) <= budget {
			return plan
		}
	}
}

// MemoryAllowance is the §8.2 memory constraint: the ooo schedule may use at
// most this factor of the conventional execution's peak.
const MemoryAllowance = 1.1

// loweredKernel pairs a kernel with its destination stream and the CPU issue
// occupancy the eager path charges for it (fused kernel count × per-kernel
// issue latency).
type loweredKernel struct {
	stream *gpusim.Stream
	kernel *gpusim.Kernel
	issue  time.Duration
}

// lowerToKernels converts the model + plan into one iteration's gpusim
// kernels wired with dependency events, in issue order. prevUpd, when
// non-nil, holds the previous iteration's per-layer δW completion events;
// this iteration's F_i waits on prevUpd[i] (the weight update). The returned
// slice holds this iteration's δW events for the next call.
func lowerToKernels(m *models.Model, exec Executor, dev *gpusim.GPU, main, sub *gpusim.Stream, plan iterPlan, prevUpd []*gpusim.Event) ([]loweredKernel, []*gpusim.Event) {
	L := len(m.Layers)
	var items []loweredKernel
	pushN := func(s *gpusim.Stream, k *gpusim.Kernel, count int) {
		items = append(items, loweredKernel{stream: s, kernel: k, issue: IssueTime(count, exec)})
	}
	upd := make([]*gpusim.Event, L+1)
	for i := 1; i <= L; i++ {
		upd[i] = dev.NewEvent()
	}

	// Forward pass on the main stream. The last forward kernel records the
	// event releasing the loss gradient g_L.
	fwdDone := dev.NewEvent()
	for i, l := range m.Layers {
		k := &gpusim.Kernel{
			Name:   fmt.Sprintf("F%d", i+1),
			Blocks: l.FwdBlocks,
			Dur:    scaleDur(l.Fwd, exec.ExecScale) + companionSetupGPU(l.FwdKernels, exec, dev),
		}
		if prevUpd != nil {
			k.Waits = []*gpusim.Event{prevUpd[i+1]}
		}
		if i == L-1 {
			k.Record = []*gpusim.Event{fwdDone}
		}
		pushN(main, k, l.FwdKernels)
	}

	// gradReady[i] fires when g_i (the gradient consumed by δO_i and δW_i)
	// exists: fwdDone for i=L, else δO_{i+1}'s completion.
	gradReady := make([]*gpusim.Event, L+1)
	gradReady[L] = fwdDone
	mkDO := func(i int) *gpusim.Kernel {
		l := m.Layers[i-1]
		k := &gpusim.Kernel{
			Name:   fmt.Sprintf("O%d", i),
			Blocks: l.DOBlocks,
			Dur:    scaleDur(l.DO, exec.ExecScale) + companionSetupGPU(l.DOKernels, exec, dev),
			Waits:  []*gpusim.Event{gradReady[i]},
		}
		if i > 1 {
			gradReady[i-1] = dev.NewEvent()
			k.Record = []*gpusim.Event{gradReady[i-1]}
		}
		return k
	}
	mkDW := func(i int) *gpusim.Kernel {
		l := m.Layers[i-1]
		return &gpusim.Kernel{
			Name:   fmt.Sprintf("W%d", i),
			Blocks: l.DWBlocks,
			Dur:    scaleDur(l.DW, exec.ExecScale) + companionSetupGPU(l.DWKernels, exec, dev),
			Waits:  []*gpusim.Event{gradReady[i]},
			Record: []*gpusim.Event{upd[i]},
		}
	}

	if plan.joint == nil {
		// Single stream, conventional interleaving.
		for i := L; i >= 1; i-- {
			pushN(main, mkDO(i), m.Layers[i-1].DOKernels)
			pushN(main, mkDW(i), m.Layers[i-1].DWKernels)
		}
		return items, upd
	}

	// Opt2: δO chain on main; δW on sub, interleaved by region so the issue
	// order matches Fig 8's S1/S2 layout.
	for r, chain := range plan.dos {
		for _, i := range chain {
			pushN(main, mkDO(i), m.Layers[i-1].DOKernels)
		}
		if r < len(plan.joint.Regions) {
			for _, i := range plan.joint.Regions[r] {
				pushN(sub, mkDW(i), m.Layers[i-1].DWKernels)
			}
		}
	}
	for _, i := range plan.joint.Overflow {
		pushN(sub, mkDW(i), m.Layers[i-1].DWKernels)
	}
	return items, upd
}

func scaleDur(d time.Duration, s float64) time.Duration {
	if s == 1 || s == 0 {
		return d
	}
	return time.Duration(float64(d) * s)
}

// companionSetup folds the per-kernel setup gaps of a layer's extra kernels
// into its fused representative (the fused kernel pays one setup in gpusim;
// the remaining count−1 appear as added duration).
func companionSetup(count int, exec Executor, gpu gpusim.Config) time.Duration {
	n := fusedCount(count, exec)
	return time.Duration(n-1) * gpu.KernelSetup
}

func companionSetupGPU(count int, exec Executor, dev *gpusim.GPU) time.Duration {
	return companionSetup(count, exec, dev.Cfg)
}

// fusedCount applies the executor's fusion factor to a kernel count.
func fusedCount(count int, exec Executor) int {
	f := exec.FusionFactor
	if f < 1 {
		f = 1
	}
	n := (count + f - 1) / f
	if n < 1 {
		n = 1
	}
	return n
}

// IssueTime returns the total CPU issue occupancy of a layer computation for
// this executor — the Fig 1 quantity.
func IssueTime(kernels int, exec Executor) time.Duration {
	if exec.PreCompiled {
		return 0
	}
	return time.Duration(fusedCount(kernels, exec)) * exec.IssuePerKernel
}

// estimateMemory sizes the iteration footprint: parameters (+gradients and
// one optimizer slot), stored activations, the largest transient workspace,
// scaled by the executor's allocator factor.
func estimateMemory(m *models.Model, exec Executor) int64 {
	var params, acts, maxWork int64
	for _, l := range m.Layers {
		params += l.ParamBytes
		acts += l.ActBytes
		if l.WorkBytes > maxWork {
			maxWork = l.WorkBytes
		}
	}
	base := 3*params + acts + maxWork
	f := exec.MemoryFactor
	if f == 0 {
		f = 1
	}
	return int64(float64(base) * f)
}

// InducedBackwardOrder reconstructs the logical backward schedule the Opt2
// plan induces (δO chain with region-assigned δW deferred to their regions),
// for memory profiling against graph.MemoryProfile (Fig 9).
func InducedBackwardOrder(m *models.Model, plan *core.JointSchedule) graph.BackwardSchedule {
	L := len(m.Layers)
	if plan == nil {
		return graph.Conventional(L)
	}
	_, dos := backwardRegions(m)
	// Within a region the sub-stream runs concurrently with the δO chain
	// (§8.2: "the weight gradient computations run concurrently with the
	// corresponding output gradient computations in the same region, hence
	// no additional memory"), so the memory-equivalent serial order emits
	// each region-assigned δW as soon as its gradient exists.
	var out graph.BackwardSchedule
	emitted := make(map[int]bool, L)
	minDO := L + 2 // δO_j emitted for all j ≥ minDO
	for r, chain := range dos {
		var queue []int
		if r < len(plan.Regions) {
			queue = append(queue, plan.Regions[r]...)
		}
		drain := func() {
			for _, j := range queue {
				// δW_j needs δO_{j+1} (or the loss for j = L).
				if !emitted[j] && (j == L || minDO <= j+1) {
					out = append(out, graph.Op{Kind: graph.WeightGrad, Layer: j})
					emitted[j] = true
				}
			}
		}
		drain()
		for _, i := range chain {
			out = append(out, graph.Op{Kind: graph.OutGrad, Layer: i})
			if i < minDO {
				minDO = i
			}
			drain()
		}
	}
	for _, i := range plan.Overflow {
		out = append(out, graph.Op{Kind: graph.WeightGrad, Layer: i})
	}
	return out
}
