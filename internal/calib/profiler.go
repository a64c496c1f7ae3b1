package calib

import (
	"sort"
	"sync"
	"time"
)

// maxSamplesPerOp bounds the retained samples per op (and per-step walls).
// When a run exceeds it, recording stops for that op — deterministically, and
// without growing the slot (the warm path must never reallocate).
const maxSamplesPerOp = 512

// Profiler accumulates per-op durations from a real training engine into a
// NetProfile. Construction and the first (warmup) observation of each op
// allocate its slot; after that, Observe is allocation-free — a mutex
// acquire, a bounds check, and an append within capacity — so instrumented
// hot loops stay 0 allocs/op warm. The mutex makes it safe for concurrent
// observers (pipeline stages, δW pool workers, the reducer goroutine).
//
// Steps are counted by EndStep; observations made during the first
// warmupSteps steps define op metadata (layer type, work) but their samples
// are discarded, so cold-cache effects never skew the medians.
type Profiler struct {
	mu      sync.Mutex
	net     string
	engine  string
	layers  int
	warmup  int
	steps   int // completed steps (EndStep calls)
	slots   []profSlot
	iters   []time.Duration
	scratch []time.Duration // median/MAD working buffer (Snapshot only)
}

type profSlot struct {
	defined   bool
	layerType string
	work      float64
	samples   []time.Duration
}

// NewProfiler creates a profiler for one workload. layers is the network
// depth L (ops observe at layers 0..L, 0 being step-scoped); warmupSteps ≥ 1
// steps are discarded (they also warm the engine's own caches).
func NewProfiler(net, engine string, layers, warmupSteps int) *Profiler {
	if layers < 1 {
		panic("calib: profiler needs ≥ 1 layer")
	}
	if warmupSteps < 1 {
		warmupSteps = 1
	}
	return &Profiler{
		net:    net,
		engine: engine,
		layers: layers,
		warmup: warmupSteps,
		slots:  make([]profSlot, numOpKinds*(layers+1)),
		iters:  make([]time.Duration, 0, maxSamplesPerOp),
	}
}

// Observe records one execution of (kind, layer) taking d. layerType and
// work are frozen at the op's first observation (warmup included) and
// ignored afterwards, so warm callers may pass them cheaply recomputed.
// Layer 0 is for step-scoped ops. Safe for concurrent use.
func (p *Profiler) Observe(kind OpKind, layer int, layerType string, work float64, d time.Duration) {
	if int(kind) >= numOpKinds || layer < 0 || layer > p.layers {
		panic("calib: Observe out of range")
	}
	p.mu.Lock()
	s := &p.slots[int(kind)*(p.layers+1)+layer]
	if !s.defined {
		s.defined = true
		s.layerType = layerType
		s.work = work
		s.samples = make([]time.Duration, 0, maxSamplesPerOp)
	}
	if p.steps >= p.warmup && len(s.samples) < maxSamplesPerOp {
		s.samples = append(s.samples, d)
	}
	p.mu.Unlock()
}

// EndStep closes one training step with its wall time. The step counter it
// advances is what separates warmup from warm observations.
func (p *Profiler) EndStep(wall time.Duration) {
	p.mu.Lock()
	if p.steps >= p.warmup && len(p.iters) < maxSamplesPerOp {
		p.iters = append(p.iters, wall)
	}
	p.steps++
	p.mu.Unlock()
}

// Snapshot aggregates the recorded samples into a NetProfile (median + MAD
// per op, canonical op order). It requires at least one warm step.
func (p *Profiler) Snapshot() NetProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.iters) == 0 {
		panic("calib: Snapshot before any warm step")
	}
	np := NetProfile{
		Net:       p.net,
		Engine:    p.engine,
		Layers:    p.layers,
		WarmSteps: len(p.iters),
	}
	np.IterMedianNs, np.IterMADNs = p.medianMAD(p.iters)
	for k := 0; k < numOpKinds; k++ {
		for layer := 0; layer <= p.layers; layer++ {
			s := &p.slots[k*(p.layers+1)+layer]
			if !s.defined || len(s.samples) == 0 {
				continue
			}
			med, mad := p.medianMAD(s.samples)
			np.Ops = append(np.Ops, OpStat{
				Kind:      OpKind(k).String(),
				Layer:     layer,
				LayerType: s.layerType,
				Work:      s.work,
				Samples:   len(s.samples),
				MedianNs:  med,
				MADNs:     mad,
			})
		}
	}
	sortOps(np.Ops)
	return np
}

// medianMAD returns the median and median-absolute-deviation of samples in
// nanoseconds. Caller holds p.mu.
func (p *Profiler) medianMAD(samples []time.Duration) (int64, int64) {
	p.scratch = append(p.scratch[:0], samples...)
	med := medianDur(p.scratch)
	for i, v := range p.scratch {
		if v >= med {
			p.scratch[i] = v - med
		} else {
			p.scratch[i] = med - v
		}
	}
	mad := medianDur(p.scratch)
	return med.Nanoseconds(), mad.Nanoseconds()
}

// medianDur sorts buf and returns its median (lower middle for even counts,
// keeping every reported value an actually-measured duration).
func medianDur(buf []time.Duration) time.Duration {
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(len(buf)-1)/2]
}
