package main

import (
	"encoding/json"
	"fmt"

	"oooback/internal/datapar"
	"oooback/internal/models"
	"oooback/internal/plansvc"
)

// The input generator. Every input is a pure function of (seed, index), so
// request i of a run can be rebuilt by the traced pass, by a second run, or
// by a reader of results.json without replaying requests 0..i−1. The program
// under test receives only what this file produces.

// mix is the splitmix64 finalizer: a bijective 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws is the random stream of one (seed, index) pair.
type draws struct{ state uint64 }

func newDraws(seed uint64, index int) *draws {
	return &draws{state: mix(mix(seed) ^ uint64(index))}
}

func (d *draws) next() uint64 {
	d.state = mix(d.state)
	return d.state
}

// intn returns a value in [0, n).
func (d *draws) intn(n int) int { return int(d.next() % uint64(n)) }

// unit returns a value in [0, 1).
func (d *draws) unit() float64 { return float64(d.next()>>11) / (1 << 53) }

// presets are the Table 2 clusters a request may name. The harness keeps
// its own copy of the (name → cluster) table because plansvc's is private;
// the traced pass cross-checks it against every response it decomposes.
var presets = []struct {
	name    string
	cluster datapar.Cluster
}{
	{"priv-a", datapar.PrivA()},
	{"priv-b", datapar.PrivB()},
	{"pub-a", datapar.PubA()},
}

// methods are the data-parallel synchronization systems, in request
// vocabulary, with the datapar method each names.
var methods = []struct {
	name   string
	method datapar.Method
}{
	{"wfbp", datapar.WFBP},
	{"horovod", datapar.Horovod},
	{"p3", datapar.P3},
	{"byteps", datapar.BytePS},
	{"ooo-byteps", datapar.OOOBytePS},
	{"ooo-horovod", datapar.OOOHorovod},
}

// maxGPUs caps the drawn worker count (2..64, clipped to each preset's
// cluster size so no request is refused).
const maxGPUs = 64

// planInput is one generated plan request plus the resolved values the
// traced pass needs to rebuild the planner's inputs.
type planInput struct {
	req     plansvc.PlanRequest
	body    []byte
	cluster datapar.Cluster
	method  datapar.Method
}

// uniqueBudget is the never-binding max_memory_bytes base that makes every
// cold request's fingerprint distinct (the benchPlanColdMiss device).
const uniqueBudget = int64(1) << 40

// planMix is a seed's walk through the request space. The space is a grid —
// 13 zoo models × 6 sync methods × 3 preset clusters × 3 cluster-size strata
// — and request i takes cell (i mod 13, i/13 mod 6, i/78 mod 3, i/234 mod 3)
// of it, each axis in an order drawn from the seed. So any 78 consecutive
// requests hold every (model, method) pair once and any 702 every cell once,
// whatever the seed: what a plan costs is set by the model's depth and the
// method's channel discipline, and a freely drawn mix would move the median
// latency with the seed's luck rather than with the program. The seed decides
// the order of the walk and the exact cluster size inside each stratum.
type planMix struct {
	seed    uint64
	zoo     []string
	methods []int
	presets []int
}

// gpuStrata is how many equal slices a preset's size range is cut into.
const gpuStrata = 3

func newPlanMix(seed uint64) *planMix {
	d := newDraws(seed, -1)
	shuffle := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := d.intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	names := models.ZooNames()
	m := &planMix{seed: seed, methods: shuffle(len(methods)), presets: shuffle(len(presets))}
	for _, k := range shuffle(len(names)) {
		m.zoo = append(m.zoo, names[k])
	}
	return m
}

// config returns the grid cell of request i and the stream the rest of the
// request is drawn from.
func (m *planMix) config(i int) (planInput, *draws) {
	d := newDraws(m.seed, i)
	cell := i
	model := m.zoo[cell%len(m.zoo)]
	cell /= len(m.zoo)
	method := methods[m.methods[cell%len(methods)]]
	cell /= len(methods)
	preset := presets[m.presets[cell%len(presets)]]
	cell /= len(presets)
	limit := min(preset.cluster.MaxGPUs, maxGPUs)
	span := float64(limit - 1) // sizes 2..limit
	gpus := 2 + int((float64(cell%gpuStrata)+d.unit())/gpuStrata*span)
	return planInput{
		req: plansvc.PlanRequest{
			Model:   model,
			Cluster: plansvc.ClusterSpec{Preset: preset.name, GPUs: gpus},
			Mode:    plansvc.ModeDataPar,
			Method:  method.name,
			Search:  plansvc.SearchGuided,
		},
		cluster: preset.cluster,
		method:  method.method,
	}, d
}

// timePlan generates request i of the time-objective mix, with
// max_memory_bytes = 2^40 + i so no two indices share a fingerprint.
func (m *planMix) timePlan(i int) planInput {
	in, _ := m.config(i)
	in.req.Objective = plansvc.ObjectiveTime
	in.req.MaxMemoryBytes = uniqueBudget + int64(i)
	in.encode()
	return in
}

// budgetRange is one model's span of achievable fragmented peaks: no budget
// below tight can be met, no budget above loose ever binds.
type budgetRange struct{ tight, loose int64 }

// budgetQuantum keeps drawn budgets of one model a multiple of 1 MiB apart,
// so adding the request index (< 2^20 in any run) can never make two
// requests collide on a fingerprint.
const budgetQuantum = int64(1) << 20

// memoryPlan generates request i of the memory-objective mix: the same walk
// as timePlan, alternating objective=pareto and objective=memory, under a
// budget drawn inside the model's achievable range (so every request is
// feasible) plus i (so every request is distinct).
func (m *planMix) memoryPlan(ranges map[string]budgetRange, i int) planInput {
	in, d := m.config(i)
	in.req.Objective = plansvc.ObjectivePareto
	if i%2 == 1 {
		in.req.Objective = plansvc.ObjectiveMemory
	}
	r := ranges[in.req.Model]
	steps := (r.loose - r.tight) / budgetQuantum
	in.req.MaxMemoryBytes = r.tight + int64(d.unit()*float64(steps+1))*budgetQuantum + int64(i)
	in.encode()
	return in
}

func (in *planInput) encode() {
	b, err := json.Marshal(&in.req)
	if err != nil {
		// PlanRequest is marshalable by construction.
		panic(fmt.Errorf("benchmark: encode request: %w", err))
	}
	in.body = b
}
