// Package gpusim models a GPU as seen by a deep-learning executor: in-order
// command streams with priorities, a pool of streaming multiprocessors (SMs)
// with a bounded number of concurrently resident thread blocks, a fixed
// per-kernel execution-setup overhead and cross-stream events.
//
// # Execution model
//
// A kernel has a thread-block count and a duration, which is its execution
// time when it runs alone and receives all the SM capacity it can use. While
// several kernels are resident, SM capacity (in thread-block slots) is
// divided between them: higher-priority streams are served first, and kernels
// at equal priority share the remaining capacity proportionally to their
// demand. A kernel that receives a fraction r of its demand progresses at
// rate r. This fluid-sharing model reproduces the first-order behaviour the
// paper relies on (§2, §8.2): two low-occupancy kernels (e.g. 448 thread
// blocks each on a 1520-slot V100) co-run at full speed, while two saturating
// kernels gain nothing from co-scheduling.
//
// Each kernel execution is preceded by a fixed setup overhead (1–2 µs on real
// hardware, per §2) during which the kernel holds its stream but no SM
// capacity. Streams are in-order: a kernel begins setup only after the
// previous kernel on the same stream completed and all events it waits on
// have fired.
//
// Kernel issue (the CPU-side latency of launching kernels) is deliberately
// *not* modelled here; executors model their issue thread with sim.Server so
// that eager, XLA-fused and CUDA-Graph-style pre-compiled issue can be
// compared (§4.2).
package gpusim

import (
	"fmt"
	"math"
	"time"

	"oooback/internal/sim"
)

// TailSlotFraction is the share of SM capacity that lower-priority streams
// can scavenge even while higher-priority kernels saturate the device: as a
// saturating kernel's thread blocks retire, the block scheduler backfills
// the freed slots from any resident grid, and the paper's §8.2 R5 analysis
// relies on exactly this ("the main-stream kernels in R5 have much larger
// number of thread blocks than the SM's capacity... by running those δO and
// δW kernels concurrently, we provide the opportunity to make most of the SM
// resources").
const TailSlotFraction = 0.07

// Config describes the modelled GPU.
type Config struct {
	// Name labels trace lanes ("V100", ...).
	Name string
	// SMCapacity is the maximum number of thread blocks resident at once
	// across all SMs (1520 for V100 in the paper's example).
	SMCapacity int
	// KernelSetup is the fixed per-kernel execution setup overhead.
	KernelSetup time.Duration
	// MemoryBytes is the device memory capacity (0 means unlimited).
	MemoryBytes int64
}

// V100 returns the configuration used throughout the paper's examples.
func V100() Config {
	return Config{
		Name:        "V100",
		SMCapacity:  1520,
		KernelSetup: 1500 * time.Nanosecond,
		MemoryBytes: 16 << 30,
	}
}

// TitanXP returns a Titan XP-like configuration (30 SMs, 12 GB).
func TitanXP() Config {
	return Config{
		Name:        "TitanXP",
		SMCapacity:  900,
		KernelSetup: 1800 * time.Nanosecond,
		MemoryBytes: 12 << 30,
	}
}

// P100 returns a P100-like configuration (56 SMs, 16 GB).
func P100() Config {
	return Config{
		Name:        "P100",
		SMCapacity:  1120,
		KernelSetup: 1700 * time.Nanosecond,
		MemoryBytes: 16 << 30,
	}
}

// Kernel is one GPU kernel invocation.
type Kernel struct {
	Name string
	// Blocks is the kernel's thread-block count; it determines how much SM
	// capacity the kernel can consume.
	Blocks int
	// Dur is the standalone execution time at full allocation.
	Dur time.Duration
	// Waits lists events that must fire before the kernel may start setup.
	Waits []*Event
	// Record lists events fired when the kernel completes.
	Record []*Event
	// OnDone, if non-nil, runs at completion.
	OnDone func()
	// OnStart, if non-nil, runs when execution (not setup) begins.
	OnStart func()

	stream    *Stream
	state     kernelState
	remaining float64 // work in nanoseconds of rate-1.0 progress
	rate      float64
	rateFrom  sim.Time
	startedAt sim.Time
}

type kernelState int

const (
	kQueued kernelState = iota
	kWaiting
	kSetup
	kRunning
	kDone
)

// Event is a cross-stream dependency marker (CUDA event analogue).
type Event struct {
	fired   bool
	waiters []func()
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Fire marks the event complete and releases waiters. Firing twice panics.
func (e *Event) Fire() {
	if e.fired {
		panic("gpusim: event fired twice")
	}
	e.fired = true
	ws := e.waiters
	e.waiters = nil
	for _, w := range ws {
		w()
	}
}

func (e *Event) subscribe(fn func()) {
	if e.fired {
		fn()
		return
	}
	e.waiters = append(e.waiters, fn)
}

// Stream is an in-order GPU command stream.
type Stream struct {
	Name string
	// Priority orders SM allocation; lower values are served first
	// (matching sim.Server convention).
	Priority int

	gpu   *GPU
	queue []*Kernel
	head  *Kernel // kernel in setup or running
}

// GPU is the simulated device.
type GPU struct {
	Cfg Config

	eng     *sim.Engine
	streams []*Stream
	running []*Kernel
	recalc  sim.Event // pending completion event (zero handle = none)

	// SM occupancy integral: Σ allocated-thread-block-slots × dt, in
	// slot-nanoseconds, maintained across reallocation points.
	occIntegral     float64
	occCurrent      float64 // slots allocated right now
	occIntegratedTo sim.Time

	// SpanSink, if non-nil, receives (stream, kernel, start, end) for every
	// completed kernel execution (setup excluded).
	SpanSink func(stream, kernel string, start, end sim.Time)
}

// New creates a GPU bound to the engine.
func New(eng *sim.Engine, cfg Config) *GPU {
	if cfg.SMCapacity <= 0 {
		panic("gpusim: SMCapacity must be positive")
	}
	return &GPU{Cfg: cfg, eng: eng}
}

// NewStream creates a stream with the given priority (lower = more SM share).
func (g *GPU) NewStream(name string, priority int) *Stream {
	s := &Stream{Name: name, Priority: priority, gpu: g}
	g.streams = append(g.streams, s)
	return s
}

// NewEvent creates an unfired event.
func (g *GPU) NewEvent() *Event { return &Event{} }

// Submit enqueues a kernel on a stream. The kernel starts once it reaches the
// head of the stream and its waits have fired. Submit may be called at any
// virtual time (this is the instant the kernel becomes visible to the GPU,
// i.e. when the CPU-side launch completed).
func (s *Stream) Submit(k *Kernel) {
	if k.Dur < 0 {
		panic(fmt.Sprintf("gpusim: kernel %q has negative duration", k.Name))
	}
	if k.Blocks <= 0 {
		k.Blocks = 1
	}
	k.stream = s
	k.state = kQueued
	s.queue = append(s.queue, k)
	s.gpu.pump(s)
}

// pump advances the head of a stream if possible.
func (g *GPU) pump(s *Stream) {
	if s.head != nil || len(s.queue) == 0 {
		return
	}
	k := s.queue[0]
	s.queue = s.queue[1:]
	s.head = k
	k.state = kWaiting
	pendingWaits := 0
	for _, ev := range k.Waits {
		if !ev.Fired() {
			pendingWaits++
		}
	}
	if pendingWaits == 0 {
		g.beginSetup(k)
		return
	}
	gate := sim.NewGate(pendingWaits, func() { g.beginSetup(k) })
	for _, ev := range k.Waits {
		if !ev.Fired() {
			ev.subscribe(gate.Done)
		}
	}
}

func (g *GPU) beginSetup(k *Kernel) {
	k.state = kSetup
	g.eng.After(g.Cfg.KernelSetup, func() { g.beginRun(k) })
}

func (g *GPU) beginRun(k *Kernel) {
	k.state = kRunning
	k.remaining = float64(k.Dur)
	k.startedAt = g.eng.Now()
	if k.OnStart != nil {
		k.OnStart()
	}
	g.settle(g.eng.Now())
	g.running = append(g.running, k)
	g.reallocate()
}

// settle folds elapsed progress into each running kernel's remaining work.
func (g *GPU) settle(now sim.Time) {
	for _, k := range g.running {
		dt := float64(now - k.rateFrom)
		k.remaining -= dt * k.rate
		if k.remaining < 0 {
			k.remaining = 0
		}
		k.rateFrom = now
	}
}

// reallocate recomputes SM shares and schedules the next completion.
func (g *GPU) reallocate() {
	now := g.eng.Now()
	// Fold the previous allocation level into the occupancy integral.
	g.occIntegral += g.occCurrent * float64(now-g.occIntegratedTo)
	g.occIntegratedTo = now
	g.recalc.Cancel() // stale or zero handles are no-ops
	g.recalc = sim.Event{}
	g.occCurrent = 0
	if len(g.running) == 0 {
		return
	}
	// Group by priority, serve ascending.
	prios := map[int][]*Kernel{}
	var order []int
	for _, k := range g.running {
		p := k.stream.Priority
		if _, ok := prios[p]; !ok {
			order = append(order, p)
		}
		prios[p] = append(prios[p], k)
	}
	// Insertion-sort the small priority list.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	capacity := float64(g.Cfg.SMCapacity)
	for gi, p := range order {
		group := prios[p]
		demand := 0.0
		for _, k := range group {
			demand += math.Min(float64(k.Blocks), float64(g.Cfg.SMCapacity))
		}
		if demand <= 0 {
			continue
		}
		avail := capacity
		if avail <= 0 && gi > 0 {
			// Higher priorities saturated the device; this group scavenges
			// the tail slots freed as their blocks retire.
			avail = TailSlotFraction * float64(g.Cfg.SMCapacity)
		}
		frac := 1.0
		if demand > avail {
			frac = avail / demand
		}
		if frac < 0 {
			frac = 0
		}
		granted := 0.0
		for _, k := range group {
			want := math.Min(float64(k.Blocks), float64(g.Cfg.SMCapacity))
			alloc := want * frac
			if want > 0 {
				k.rate = alloc / want
			} else {
				k.rate = 1
			}
			k.rateFrom = now
			granted += alloc
		}
		g.occCurrent += math.Min(granted, float64(g.Cfg.SMCapacity))
		capacity -= granted
		if capacity < 0 {
			capacity = 0
		}
	}
	// Next completion.
	next := math.Inf(1)
	for _, k := range g.running {
		if k.rate <= 0 {
			continue
		}
		t := k.remaining / k.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		// All running kernels starved by higher-priority saturation; they
		// resume when capacity frees (a completion triggers reallocate).
		return
	}
	delay := time.Duration(math.Ceil(next))
	if delay < 0 {
		delay = 0
	}
	g.recalc = g.eng.After(delay, g.completeFinished)
}

// completeFinished retires kernels whose work is exhausted, then reallocates.
func (g *GPU) completeFinished() {
	now := g.eng.Now()
	g.settle(now)
	var still []*Kernel
	var done []*Kernel
	const eps = 1e-6 // nanoseconds; absorbs float rounding from shared rates
	for _, k := range g.running {
		if k.remaining <= eps {
			done = append(done, k)
		} else {
			still = append(still, k)
		}
	}
	g.running = still
	for _, k := range done {
		k.state = kDone
		if g.SpanSink != nil {
			g.SpanSink(k.stream.Name, k.Name, k.startedAt, now)
		}
		s := k.stream
		s.head = nil
		for _, ev := range k.Record {
			ev.Fire()
		}
		if k.OnDone != nil {
			k.OnDone()
		}
		g.pump(s)
	}
	g.reallocate()
}

// SMUtilization returns the mean fraction of SM thread-block capacity in use
// over [0, until] — the §2 "idling SMs" metric. Call after the simulation
// drains.
func (g *GPU) SMUtilization(until sim.Time) float64 {
	if until <= 0 {
		return 0
	}
	total := g.occIntegral + g.occCurrent*float64(until-g.occIntegratedTo)
	return total / (float64(g.Cfg.SMCapacity) * float64(until))
}
