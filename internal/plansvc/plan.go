package plansvc

import (
	"cmp"
	"fmt"
	"slices"
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

// planDataPar plans one data-parallel iteration under the requested
// synchronization method's cost model and channel discipline. The baseline
// is the conventional backward order under the same method. The objective
// picks the schedule: time searches reverse first-k (Algorithm 2) in the
// requested search mode (exhaustive sweep, predictor-guided pruning, or
// robust selection under perturbed costs); memory and pareto choose among
// reverse first-k and the LESCEA memory list schedule by BFC-replayed peak.
func (p *planner) planDataPar(sp *planSpec, resp *PlanResponse) error {
	m := p.model(sp)
	L := len(m.Layers)
	method := dpMethods[sp.Method]
	costs := datapar.Costs(m, sp.cluster(), sp.GPUs, method)
	prio, preemptive := method.Channel()

	sc := p.search.Scratch.Get().(*core.IterScratch)
	baseline := sc.SimulateIteration(costs, graph.Conventional(L), prio, preemptive).Makespan
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
	resp.BaselineIterTimeNs = int64(baseline)
	resp.Baseline = sp.Method + " conventional order"
	resp.Search = sp.Search
	resp.Objective = cmp.Or(sp.Objective, ObjectiveTime)

	// The chosen point, the depth its schedule runs at, and the search
	// effort, whichever objective chose them.
	var (
		pt    plansearch.MemPoint
		depth int
		r     plansearch.Result
	)
	switch sp.Objective {
	case ObjectiveMemory:
		mr := plansearch.MemorySearch(space, sp.MaxMemoryBytes, p.search)
		if !mr.Feasible {
			return budgetError(sp, mr.MinFragPeakBytes)
		}
		pt, depth = mr.Best, mr.Best.K
		r = plansearch.Result{Probes: mr.Probes, Candidates: mr.Candidates, CutoffProven: true, RankCorrelation: 1}
	case ObjectivePareto:
		pr := plansearch.ParetoSweep(space, p.search)
		// The frontier is makespan-ascending with strictly decreasing
		// memory, so the first fitting point is the fastest feasible one.
		head := slices.IndexFunc(pr.Frontier, func(pt plansearch.MemPoint) bool {
			return sp.MaxMemoryBytes <= 0 || pt.Mem.FragPeakBytes <= sp.MaxMemoryBytes
		})
		if head < 0 {
			return budgetError(sp, pr.Frontier[len(pr.Frontier)-1].Mem.FragPeakBytes)
		}
		pt, depth = pr.Frontier[head], pr.Frontier[head].K
		for _, pt := range pr.Frontier {
			resp.Pareto = append(resp.Pareto, ParetoPoint{
				K:                pt.K,
				MemSched:         pt.MemSched,
				IterTimeNs:       int64(pt.Makespan),
				PeakMemoryBytes:  pt.Mem.FragPeakBytes,
				LogicalPeakBytes: pt.Mem.LogicalPeakBytes,
				FragRatio:        pt.Mem.FragRatio,
			})
		}
		r = plansearch.Result{Probes: pr.Probes, Candidates: pr.Probes, CutoffProven: true, RankCorrelation: 1}
	default:
		r = plansearch.Search(space, searchModes[sp.Search], p.search)
		pt = plansearch.MemPoint{K: r.Best.K, Makespan: r.Best.Makespan, Mem: space.Mem.Footprint(r.Best.Depth)}
		depth = r.Best.Depth
	}

	sc = p.search.Scratch.Get().(*core.IterScratch)
	defer p.search.Scratch.Put(sc)
	var order graph.BackwardSchedule
	if pt.MemSched {
		order = space.Mem.ListSchedule()
	} else {
		order = sc.ReverseFirstK(L, depth)
	}
	fillHeadline(sp, m, baseline, pt, order, resp)
	resp.SearchStats = searchStats(r)
	return nil
}

// budgetError is the client error of a budget below every candidate's
// footprint, naming the tightest budget the model can meet.
func budgetError(sp *planSpec, minPeak int64) error {
	return invalidf("max_memory_bytes",
		"budget %d bytes is below the tightest schedule this model can meet (%d bytes)",
		sp.MaxMemoryBytes, minPeak)
}

// fillHeadline writes the chosen point as the response's headline plan:
// its K, schedule, iteration time, speedup over the baseline, throughput
// and memory footprint.
func fillHeadline(sp *planSpec, m *models.Model, baseline time.Duration, pt plansearch.MemPoint,
	order graph.BackwardSchedule, resp *PlanResponse) {
	scheduler := "reverse-first-k"
	if pt.MemSched {
		scheduler = "mem-list"
	}
	resp.K = pt.K
	resp.Schedule = scheduleStrings(order)
	resp.IterTimeNs = int64(pt.Makespan)
	resp.Speedup = speedup(baseline, pt.Makespan)
	resp.ThroughputSPS = core.Throughput(pt.Makespan, m.Batch*sp.GPUs)
	resp.Memory = &MemoryStats{
		PeakMemoryBytes:  pt.Mem.FragPeakBytes,
		LogicalPeakBytes: pt.Mem.LogicalPeakBytes,
		FragRatio:        pt.Mem.FragRatio,
		Scheduler:        scheduler,
		BudgetBytes:      sp.MaxMemoryBytes,
	}
}

// searchStats renders a search's effort into the response shape.
func searchStats(r plansearch.Result) *SearchStats {
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
	return st
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
