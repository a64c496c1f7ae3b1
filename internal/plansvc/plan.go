package plansvc

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/pipepar"
	"oooback/internal/plansearch"
	"oooback/internal/singlegpu"
)

// searchModes maps the request vocabulary onto plansearch modes.
var searchModes = map[string]plansearch.Mode{
	SearchExact:  plansearch.Exact,
	SearchGuided: plansearch.Guided,
	SearchRobust: plansearch.Robust,
}

// planner computes plans. It holds a pool of warm core.IterScratch state so
// steady-state planning performs no per-request simulator allocation: the
// concave k search fans its coarse probes out through internal/parexec, and
// every probe borrows a scratch from the pool. It also holds the zoo models
// it has built, each with its footprint table, so a cold plan neither
// rebuilds its model nor replays a schedule another plan already replayed.
type planner struct {
	// search configures every schedule search: the parexec fan-out of one k
	// search and the warm scratch pool.
	search plansearch.Config

	// zoo memoises built zoo models, re-timed when the key carries a cost
	// table. A model is read-only once stored; planning workers share it
	// and its footprint table, which fills as plans read it. At most one
	// entry per zoo name × GPU profile × the service's table; inline
	// model_spec bodies never enter.
	zooMu sync.Mutex
	zoo   map[zooKey]*plansearch.MemTable
}

type zooKey struct {
	name, gpu string
	retime    *models.CostTable
}

func newPlanner(searchWorkers int) *planner {
	return &planner{
		search: plansearch.Config{
			Workers: searchWorkers,
			Scratch: &sync.Pool{New: func() any { return new(core.IterScratch) }},
		},
		zoo: make(map[zooKey]*plansearch.MemTable),
	}
}

// model returns the spec's model: the inline one decoded at request time, or
// the planner's one copy of the zoo model, built on first use.
func (p *planner) model(sp *planSpec) *models.Model {
	if sp.model == nil {
		key := zooKey{sp.ModelName, sp.GPU, sp.retime}
		p.zooMu.Lock()
		defer p.zooMu.Unlock()
		if sp.mem = p.zoo[key]; sp.mem == nil {
			sp.mem = plansearch.NewMemTable(sp.resolveModel())
			p.zoo[key] = sp.mem
		}
		sp.model = sp.mem.Model()
	}
	return sp.model
}

// memTable returns the footprint table of the spec's resolved model
// (planner.model): the zoo entry's, or a fresh one for a model no entry
// holds (an inline spec, a what-if's re-costed copy).
func (sp *planSpec) memTable() *plansearch.MemTable {
	if sp.mem == nil || sp.mem.Model() != sp.model {
		sp.mem = plansearch.NewMemTable(sp.model)
	}
	return sp.mem
}

// plan dispatches on the normalized spec's mode. The returned response is a
// pure function of sp (see PlanResponse).
func (p *planner) plan(sp *planSpec) (*PlanResponse, error) {
	m := p.model(sp)
	resp := &PlanResponse{
		Fingerprint: sp.fingerprint(),
		Mode:        sp.Mode,
		Model: ModelSummary{
			Name:       m.Name,
			Layers:     m.NumLayers(),
			Batch:      m.Batch,
			ParamBytes: m.TotalParamBytes(),
		},
	}
	var err error
	switch sp.Mode {
	case ModeDataPar:
		err = p.planDataPar(sp, resp)
	case ModePipeline:
		err = p.planPipeline(sp, resp)
	case ModeSingleGPU:
		err = p.planSingleGPU(sp, resp)
	default:
		err = fmt.Errorf("plansvc: unhandled mode %q", sp.Mode)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// discipline returns the communication-channel behaviour of a data-parallel
// method (mirrors datapar.Run's switch).
func discipline(m datapar.Method) (prio func(int) int, preemptive bool) {
	switch m {
	case datapar.P3:
		return func(layer int) int { return layer }, false
	case datapar.BytePS, datapar.OOOBytePS:
		return func(layer int) int { return layer }, true
	default: // WFBP, Horovod, OOOHorovod: FIFO, run to completion
		return func(int) int { return 0 }, false
	}
}

// planDataPar plans one data-parallel iteration: reverse first-k (Algorithm
// 2) under the requested synchronization method's cost model and channel
// discipline, with the depth k found by the plansearch engine in the
// requested search mode (exhaustive sweep, predictor-guided pruning, or
// robust selection under perturbed costs). The baseline is the conventional
// backward order under the same method.
func (p *planner) planDataPar(sp *planSpec, resp *PlanResponse) error {
	m := p.model(sp)
	L := len(m.Layers)
	method := dpMethods[sp.Method]
	costs := datapar.Costs(m, sp.cluster(), sp.GPUs, method)
	prio, preemptive := discipline(method)

	sc := p.search.Scratch.Get().(*core.IterScratch)
	base := sc.SimulateIteration(costs, graph.Conventional(L), prio, preemptive)
	p.search.Scratch.Put(sc)

	space := plansearch.Space{
		Model:          m,
		Costs:          costs,
		MaxMemoryBytes: sp.MaxMemoryBytes,
		Disciplines: []plansearch.Discipline{
			{Name: sp.Method, Prio: prio, Preemptive: preemptive},
		},
		Mem: sp.memTable(),
	}
	resp.BaselineIterTimeNs = int64(base.Makespan)
	resp.Baseline = sp.Method + " conventional order"
	resp.Search = sp.Search

	switch sp.Objective {
	case ObjectiveMemory:
		return p.planDataParMemory(sp, space, base.Makespan, resp)
	case ObjectivePareto:
		return p.planDataParPareto(sp, space, base.Makespan, resp)
	}
	resp.Objective = ObjectiveTime

	r := plansearch.Search(space, searchModes[sp.Search], p.search)
	k := space.Depth(r.Best)

	resp.K = r.Best.K
	sc = p.search.Scratch.Get().(*core.IterScratch)
	resp.Schedule = scheduleStrings(sc.ReverseFirstK(L, k))
	p.search.Scratch.Put(sc)
	resp.IterTimeNs = int64(r.Best.Makespan)
	resp.Speedup = speedup(base.Makespan, r.Best.Makespan)
	resp.ThroughputSPS = core.Throughput(r.Best.Makespan, m.Batch*sp.GPUs)
	resp.Memory = memoryStats(sp, space.Mem.Footprint(k), "reverse-first-k")
	st := &SearchStats{
		Probes:          r.Probes,
		Exhaustive:      r.Candidates,
		Saved:           r.Candidates - r.Probes,
		CutoffProven:    r.CutoffProven,
		RankCorrelation: r.RankCorrelation,
		RobustProbes:    r.RobustProbes,
		WorstRegret:     r.WorstRegret,
	}
	for _, a := range r.Alternatives {
		st.Alternatives = append(st.Alternatives, AltPlan{
			K:           a.K,
			IterTimeNs:  int64(a.Makespan),
			WorstRegret: a.WorstRegret,
		})
	}
	resp.SearchStats = st
	return nil
}

// memoryStats renders a schedule footprint into the response shape.
func memoryStats(sp *planSpec, mem plansearch.MemStats, scheduler string) *MemoryStats {
	return &MemoryStats{
		PeakMemoryBytes:  mem.FragPeakBytes,
		LogicalPeakBytes: mem.LogicalPeakBytes,
		FragRatio:        mem.FragRatio,
		Scheduler:        scheduler,
		BudgetBytes:      sp.MaxMemoryBytes,
	}
}

// pointScheduler names the schedule family of a sweep candidate.
func pointScheduler(pt plansearch.MemPoint) string {
	if pt.MemSched {
		return "mem-list"
	}
	return "reverse-first-k"
}

// fillPlanFromPoint writes one sweep candidate as the response's headline
// plan.
func (p *planner) fillPlanFromPoint(sp *planSpec, space plansearch.Space, baseline time.Duration,
	pt plansearch.MemPoint, resp *PlanResponse) {
	m := space.Model
	order := space.MemPointSchedule(pt)
	resp.K = pt.K
	resp.Schedule = scheduleStrings(order)
	resp.IterTimeNs = int64(pt.Makespan)
	resp.Speedup = speedup(baseline, pt.Makespan)
	resp.ThroughputSPS = core.Throughput(pt.Makespan, m.Batch*sp.GPUs)
	resp.Memory = memoryStats(sp, pt.Mem, pointScheduler(pt))
}

// planDataParMemory plans under objective=memory: the fastest schedule —
// reverse first-k or the LESCEA memory list schedule — whose BFC-replayed
// fragmented peak fits the budget, found by the bound-ordered search, whose
// lower bounds prove the optimum. An unmeetable budget is a client error
// naming the tightest budget the model can meet.
func (p *planner) planDataParMemory(sp *planSpec, space plansearch.Space, baseline time.Duration, resp *PlanResponse) error {
	r := plansearch.MemorySearch(space, sp.MaxMemoryBytes, p.search)
	if !r.Feasible {
		return invalidf("max_memory_bytes",
			"budget %d bytes is below the tightest schedule this model can meet (%d bytes)",
			sp.MaxMemoryBytes, r.MinFragPeakBytes)
	}
	resp.Objective = ObjectiveMemory
	p.fillPlanFromPoint(sp, space, baseline, r.Best, resp)
	resp.SearchStats = &SearchStats{
		Probes:          r.Probes,
		Exhaustive:      r.Candidates,
		Saved:           r.Candidates - r.Probes,
		CutoffProven:    true,
		RankCorrelation: 1,
	}
	return nil
}

// planDataParPareto plans under objective=pareto: the full joint frontier in
// the response, with the headline plan the fastest point that fits the
// budget (or the time optimum when no budget is set).
func (p *planner) planDataParPareto(sp *planSpec, space plansearch.Space, baseline time.Duration, resp *PlanResponse) error {
	r := plansearch.ParetoSweep(space, p.search)
	// The frontier is makespan-ascending with strictly decreasing memory, so
	// the first fitting point is the fastest feasible one.
	head := -1
	for i, pt := range r.Frontier {
		if sp.MaxMemoryBytes <= 0 || pt.Mem.FragPeakBytes <= sp.MaxMemoryBytes {
			head = i
			break
		}
	}
	if head < 0 {
		tail := r.Frontier[len(r.Frontier)-1]
		return invalidf("max_memory_bytes",
			"budget %d bytes is below the tightest schedule this model can meet (%d bytes)",
			sp.MaxMemoryBytes, tail.Mem.FragPeakBytes)
	}
	resp.Objective = ObjectivePareto
	p.fillPlanFromPoint(sp, space, baseline, r.Frontier[head], resp)
	for _, pt := range r.Frontier {
		resp.Pareto = append(resp.Pareto, ParetoPoint{
			K:                pt.K,
			MemSched:         pt.MemSched,
			IterTimeNs:       int64(pt.Makespan),
			PeakMemoryBytes:  pt.Mem.FragPeakBytes,
			LogicalPeakBytes: pt.Mem.LogicalPeakBytes,
			FragRatio:        pt.Mem.FragRatio,
		})
	}
	resp.SearchStats = &SearchStats{
		Probes:          r.Probes,
		Exhaustive:      r.Probes,
		CutoffProven:    true,
		RankCorrelation: 1,
	}
	return nil
}

// planPipeline plans one pipeline-parallel iteration: gradient
// fast-forwarding plus modulo layer allocation (§5.2). The baseline is the
// conventional balanced-contiguous partition without fast-forwarding under
// the same discipline.
func (p *planner) planPipeline(sp *planSpec, resp *PlanResponse) error {
	m := p.model(sp)
	L := len(m.Layers)
	n := sp.GPUs
	if n > L {
		return invalidf("cluster.gpus", "%d pipeline stages exceed the model's %d layers", n, L)
	}
	// The inter-stage link: intra-node when the whole pipeline fits on one
	// machine, the NIC otherwise (the datapar.SyncTime convention).
	link := sp.link(sp.IntraNode)
	if n > sp.GPUsPerNode {
		link = sp.link(sp.Interconnect)
	}
	sched := disciplines[sp.Discipline]
	alloc := core.ModuloAllocation(L, n, sp.GroupSize)
	cfg := pipepar.Config{
		GPUs:         n,
		MicroBatches: sp.MicroBatches,
		Alloc:        alloc,
		FastForward:  true,
		Schedule:     sched,
		MaxVersions:  4,
		Link:         link,
		Iterations:   3,
	}
	r := pipepar.Run(m, cfg)

	baseCfg := cfg
	baseCfg.Alloc = pipepar.BalancedContiguous(m, n)
	baseCfg.FastForward = false
	base := pipepar.Run(m, baseCfg)

	resp.Allocation = alloc
	resp.Schedule = scheduleStrings(core.FastForward(L))
	resp.IterTimeNs = int64(r.Period)
	resp.BaselineIterTimeNs = int64(base.Period)
	resp.Baseline = sp.Discipline + " balanced-contiguous, no fast-forwarding"
	resp.Speedup = speedup(base.Period, r.Period)
	resp.ThroughputSPS = r.Throughput
	return nil
}

// planSingleGPU plans one single-GPU iteration: multi-region joint
// scheduling (Algorithm 1) of the δW kernels onto the sub-stream, as the
// OOO-XLA executor applies it. The baseline is plain XLA.
func (p *planner) planSingleGPU(sp *planSpec, resp *PlanResponse) error {
	m := p.model(sp)
	cfg := profiles[sp.GPU].cfg
	r := singlegpu.Run(m, singlegpu.OOOXLA(), cfg)
	if r.OOM {
		return &APIError{Code: CodeInvalidRequest, Field: "model",
			Message: fmt.Sprintf("model %q does not fit on a %s (%d MB needed, %d MB available)",
				m.Name, cfg.Name, r.PeakMemBytes>>20, cfg.MemoryBytes>>20)}
	}
	base := singlegpu.Run(m, singlegpu.XLA(), cfg)

	if r.Plan != nil {
		resp.Regions = r.Plan.Regions
		resp.Overflow = r.Plan.Overflow
		resp.Schedule = scheduleStrings(singlegpu.InducedBackwardOrder(m, r.Plan))
	}
	resp.IterTimeNs = int64(r.IterTime)
	resp.BaselineIterTimeNs = int64(base.IterTime)
	resp.Baseline = "XLA single-stream"
	resp.Speedup = speedup(base.IterTime, r.IterTime)
	resp.ThroughputSPS = r.Throughput
	return nil
}

// scheduleStrings renders the schedule's op labels into one buffer and
// returns its sub-slices: two allocations, not one per op.
func scheduleStrings(order graph.BackwardSchedule) []string {
	var b strings.Builder
	b.Grow(8 * len(order)) // "dW4096": labels of a maxLayers model fit
	var label [24]byte
	out := make([]string, len(order))
	for i, op := range order {
		start := b.Len()
		b.Write(op.AppendTo(label[:0]))
		out[i] = b.String()[start:]
	}
	return out
}

func speedup(base, opt time.Duration) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

// buildModels renders the GET /v1/models payload once; entries are profile-
// independent summaries built against the V100 profile.
var buildModels = sync.OnceValue(func() []ZooModelInfo {
	p := models.V100Profile()
	var out []ZooModelInfo
	for _, e := range models.Zoo() {
		m := e.Build(p)
		out = append(out, ZooModelInfo{
			Name:       e.Name,
			Title:      e.Title,
			Layers:     m.NumLayers(),
			Blocks:     len(m.Blocks()),
			Batch:      m.Batch,
			SeqLen:     m.SeqLen,
			ParamBytes: m.TotalParamBytes(),
		})
	}
	return out
})

// ZooModelInfo is one entry of the GET /v1/models response.
type ZooModelInfo struct {
	Name       string `json:"name"`
	Title      string `json:"title"`
	Layers     int    `json:"layers"`
	Blocks     int    `json:"blocks"`
	Batch      int    `json:"batch"`
	SeqLen     int    `json:"seq_len,omitempty"`
	ParamBytes int64  `json:"param_bytes"`
}
