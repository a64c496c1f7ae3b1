package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"oooback/internal/graph"
	"oooback/internal/trace"
)

// IterCosts carries the per-layer op durations of the §2 optimization
// problem for one data-parallel training iteration. Index 0 is layer 1.
// SyncW[i] is the full synchronization time of layer i+1's weight gradient
// (push+pull through the bottleneck link); zero disables the sync.
//
// SyncLag, if non-nil, is a per-layer completion lag added after the sync's
// link service: the aggregation/straggler latency of waiting for every
// node's push before the pull can complete. It delays when the sync is
// *usable* without occupying the link. This is the §8.3 phenomenon — the
// first layer's synchronization takes 350 ms on 16 GPUs even though its
// tensor is small and prioritized.
type IterCosts struct {
	F, DO, DW []time.Duration
	SyncW     []time.Duration
	SyncLag   []time.Duration
}

// Layers returns L.
func (c IterCosts) Layers() int { return len(c.F) }

func (c IterCosts) validate() error {
	L := len(c.F)
	if len(c.DO) != L || len(c.DW) != L || len(c.SyncW) != L {
		return fmt.Errorf("core: inconsistent IterCosts lengths F=%d dO=%d dW=%d S=%d",
			len(c.F), len(c.DO), len(c.DW), len(c.SyncW))
	}
	if c.SyncLag != nil && len(c.SyncLag) != L {
		return fmt.Errorf("core: SyncLag length %d, want %d", len(c.SyncLag), L)
	}
	return nil
}

func (c *IterCosts) lag(layer int) time.Duration {
	if c.SyncLag == nil {
		return 0
	}
	return c.SyncLag[layer-1]
}

// IterResult reports the simulated execution of one iteration: the backward
// pass in the given order, parameter synchronizations on a single
// priority-scheduled communication channel, and the next iteration's forward
// pass gated per layer on its synchronization (§2's objective T(F_L)+F_L).
type IterResult struct {
	// Makespan is the completion time of F_L — the §2 objective.
	Makespan time.Duration
	// BackwardEnd is when the last backward op finishes on the GPU.
	BackwardEnd time.Duration
	// SyncDone[i] is when layer i+1's weight synchronization completes.
	SyncDone []time.Duration
	// GPUIdle is the GPU time wasted waiting for synchronizations during the
	// forward pass (the dark boxes of Fig 4).
	GPUIdle time.Duration
}

// IterScratch holds the reusable working buffers of the analytic iteration
// simulator. Repeated probes through the same scratch (SearchK sweeps, the
// ablation grids, cross-validation) perform no heap allocation once the
// buffers reach the model's high-water mark.
//
// A scratch is not safe for concurrent use; give each goroutine its own.
// The SyncDone slice of a result produced through a scratch aliases the
// scratch's buffer and is only valid until the next simulation through it —
// callers that retain results across probes must copy it (the package-level
// SimulateIteration wrappers use a fresh scratch per call and stay safe to
// retain).
type IterScratch struct {
	done  []time.Duration
	segs  []commSegment
	tasks []commTask // arrival queue
	ranks []int      // distinct priorities, when their spread needs ranking
	adjDW []time.Duration
	walk  graph.Walker // validates each order, one flag byte per layer
	order graph.BackwardSchedule

	// A multi-class channel's bucket queue: per class the first and last
	// task of its FIFO, per task the next of its class, and a bitmap of the
	// non-empty classes.
	head, tail, next []int32
	nonEmpty         []uint64
}

// ReverseFirstK builds graph.ReverseFirstK(L, k) in the scratch's schedule
// buffer, so a search probing many depths through one scratch builds its
// orders without allocating. The result aliases the scratch and is valid
// until the next call.
func (s *IterScratch) ReverseFirstK(L, k int) graph.BackwardSchedule {
	s.order = graph.AppendReverseFirstK(s.order[:0], L, k)
	return s.order
}

// zeroPrio is the default priority function (all syncs equal, FIFO).
func zeroPrio(int) int { return 0 }

// SimulateIteration executes one training iteration analytically.
//
// The GPU is a serial resource running the backward ops in the given order
// back-to-back, then the forward ops F_1..F_L in layer order, each delayed
// until its parameter synchronization completed. The network is a single
// serial channel: layer i's sync becomes ready when δW_i completes and is
// scheduled by ascending prio(i) (ties FIFO by ready time). With preemptive
// set, an in-flight sync is preempted by a more urgent one at chunk
// granularity (the BytePS/ByteScheduler behaviour); otherwise the channel is
// run-to-completion (plain wait-free backpropagation).
//
// prio must be a pure function of the layer; it is consulted once per layer.
func SimulateIteration(c IterCosts, order graph.BackwardSchedule, prio func(layer int) int, preemptive bool) IterResult {
	var s IterScratch
	return s.SimulateIterationTraced(c, order, prio, preemptive, nil)
}

// SimulateIterationTraced is SimulateIteration with span recording: GPU ops
// land on lane "GPU", communication chunks on lane "NET" (the Fig 4 layout).
// tr may be nil.
func SimulateIterationTraced(c IterCosts, order graph.BackwardSchedule, prio func(layer int) int, preemptive bool, tr *trace.Trace) IterResult {
	var s IterScratch
	return s.SimulateIterationTraced(c, order, prio, preemptive, tr)
}

// SimulateIteration is the allocation-free variant of the package-level
// SimulateIteration: all working state lives in the scratch.
func (s *IterScratch) SimulateIteration(c IterCosts, order graph.BackwardSchedule, prio func(layer int) int, preemptive bool) IterResult {
	return s.SimulateIterationTraced(c, order, prio, preemptive, nil)
}

// SimulateIterationTraced is the scratch-backed simulator core. tr may be
// nil; span recording allocates (it builds labels), so traced runs are not
// allocation-free.
func (s *IterScratch) SimulateIterationTraced(c IterCosts, order graph.BackwardSchedule, prio func(layer int) int, preemptive bool, tr *trace.Trace) IterResult {
	if err := c.validate(); err != nil {
		panic(err)
	}
	L := c.Layers()
	if err := s.walk.Validate(order, L); err != nil {
		panic(err)
	}
	if prio == nil {
		prio = zeroPrio
	}

	backwardEnd := s.backward(c, order, prio, tr)

	syncDone, segs := s.commTimeline(c, preemptive)
	if tr != nil {
		for _, sg := range segs {
			tr.Add("NET", fmt.Sprintf("S[dW]%d", sg.layer), "comm", sg.start, sg.end)
		}
	}

	// Forward pass: serial compute gated on syncs.
	var idle time.Duration
	t := backwardEnd
	for i := 1; i <= L; i++ {
		if syncDone[i] > t {
			idle += syncDone[i] - t
			t = syncDone[i]
		}
		start := t
		t += c.F[i-1]
		if tr != nil {
			tr.Add("GPU", fmt.Sprintf("F%d", i), "fwd", start, t)
		}
	}
	return IterResult{Makespan: t, BackwardEnd: backwardEnd, SyncDone: syncDone[1:], GPUIdle: idle}
}

// backward runs the backward pass — serial compute, ops back to back in
// schedule order — and returns when it ends. Each δW with a synchronization
// joins the channel's arrival queue as it completes, so the queue fills in
// ready-time order.
func (s *IterScratch) backward(c IterCosts, order graph.BackwardSchedule, prio func(layer int) int, tr *trace.Trace) time.Duration {
	var t time.Duration
	s.tasks = s.tasks[:0]
	for _, op := range order {
		start := t
		switch op.Kind {
		case graph.OutGrad:
			t += c.DO[op.Layer-1]
		case graph.WeightGrad:
			t += c.DW[op.Layer-1]
			s.addSync(op.Layer, prio(op.Layer), t, c.SyncW[op.Layer-1])
		}
		if tr != nil {
			kind := "dO"
			if op.Kind == graph.WeightGrad {
				kind = "dW"
			}
			tr.Add("GPU", op.String(), kind, start, t)
		}
	}
	return t
}

// resizeDur returns buf with length n and all elements zero, reusing its
// capacity when possible.
func resizeDur(buf []time.Duration, n int) []time.Duration {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// commSegment is one contiguous service interval of a sync on the channel.
type commSegment struct {
	layer      int
	start, end time.Duration
}

// commTask is one pending synchronization on the channel. prio is cached at
// task creation (one call per layer); rankPrios may replace it by its rank.
type commTask struct {
	layer     int
	prio      int
	ready     time.Duration
	remaining time.Duration
}

// addSync appends layer's synchronization, ready at the given time and sync
// long, to the arrival queue; a layer with no synchronization (sync = 0) adds
// nothing.
func (s *IterScratch) addSync(layer, prio int, ready, sync time.Duration) {
	if sync > 0 {
		s.tasks = append(s.tasks, commTask{layer: layer, prio: prio, ready: ready, remaining: sync})
	}
}

// commTimeline computes when each queued synchronization (addSync) completes
// on a single channel with the given discipline, plus the service segments.
// It selects exactly as the naive reference (commTimelineNaive) does — most
// urgent priority first, then earliest ready, then lowest layer:
//
//   - The arrival queue is ordered by (ready, layer). The simulator fills it
//     in δW completion order, which already is that order unless zero-cost
//     ops tie ready times out of layer order, so it is sorted only then.
//   - One priority class (WFBP and the Horovod methods): the selection key
//     (prio, ready, layer) is the arrival order itself, so the queue is
//     served front to back with no second structure. A preemptive channel
//     still cuts a segment at every arrival, and resumes the same task.
//   - Several classes: a bucket queue, one FIFO per class (serveByPriority).
//
// The returned slices belong to the scratch.
func (s *IterScratch) commTimeline(c IterCosts, preemptive bool) ([]time.Duration, []commSegment) {
	s.done = resizeDur(s.done, c.Layers()+1) // zero = no sync needed
	s.segs = s.segs[:0]
	if !slices.IsSortedFunc(s.tasks, byArrival) {
		slices.SortFunc(s.tasks, byArrival)
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, tk := range s.tasks {
		lo, hi = min(lo, tk.prio), max(hi, tk.prio)
	}
	if lo >= hi { // at most one class
		s.serveInOrder(c, preemptive)
	} else {
		s.serveByPriority(c, preemptive, lo, hi)
	}
	return s.done, s.segs
}

// serveInOrder runs a single-class channel: arrival order is service order.
func (s *IterScratch) serveInOrder(c IterCosts, preemptive bool) {
	var now time.Duration
	ai := 0 // first task arriving after now
	for _, tk := range s.tasks {
		now = max(now, tk.ready)
		if preemptive {
			for {
				for ai < len(s.tasks) && s.tasks[ai].ready <= now {
					ai++
				}
				if ai == len(s.tasks) || s.tasks[ai].ready >= now+tk.remaining {
					break
				}
				na := s.tasks[ai].ready
				s.segs = append(s.segs, commSegment{tk.layer, now, na})
				tk.remaining -= na - now
				now = na
			}
		}
		s.segs = append(s.segs, commSegment{tk.layer, now, now + tk.remaining})
		now += tk.remaining
		s.done[tk.layer] = now + c.lag(tk.layer)
	}
}

// serveByPriority runs a multi-class channel, whose priorities span lo…hi,
// with two queues: the arrival queue and a bucket queue of the arrived
// tasks — one FIFO of arrival indices per class, linked through next, and a
// bitmap of the non-empty classes. Within a class, arrival order is (ready,
// layer) order, so the head of the lowest non-empty class (the bitmap's
// lowest set bit) is the task the reference selects. The task, with what is
// left of it, stays in the arrival queue. A task cut by an arrival stays at
// its class head while the arrivals join their classes' tails.
func (s *IterScratch) serveByPriority(c IterCosts, preemptive bool, lo, hi int) {
	n := len(s.tasks)
	if uint64(hi)-uint64(lo) >= 4*uint64(n) {
		s.rankPrios()
		lo, hi = 0, len(s.ranks)-1
	}
	// Only the bitmap is cleared: a class's head and tail are read only
	// while its bit is set, a task's next only once a later task joined.
	classes, words := hi-lo+1, (hi-lo+64)/64
	head, tail := slices.Grow(s.head[:0], classes)[:classes], slices.Grow(s.tail[:0], classes)[:classes]
	next, nonEmpty := slices.Grow(s.next[:0], n)[:n], slices.Grow(s.nonEmpty[:0], words)[:words]
	clear(nonEmpty)
	s.head, s.tail, s.next, s.nonEmpty = head, tail, next, nonEmpty

	var now time.Duration
	ai := 0 // next not-yet-arrived task index
	for served := 0; served < n; {
		for ; ai < n && s.tasks[ai].ready <= now; ai++ {
			p := s.tasks[ai].prio - lo
			w, bit := p>>6, uint64(1)<<(p&63)
			if nonEmpty[w]&bit == 0 {
				nonEmpty[w] |= bit
				head[p] = int32(ai)
			} else {
				next[tail[p]] = int32(ai)
			}
			tail[p] = int32(ai)
		}
		if ai == served { // nothing arrived is pending
			now = s.tasks[ai].ready
			continue
		}
		w := 0
		for nonEmpty[w] == 0 {
			w++
		}
		p := w<<6 | bits.TrailingZeros64(nonEmpty[w])
		bi := head[p]
		best := &s.tasks[bi]
		if preemptive && ai < n {
			if na := s.tasks[ai].ready; na < now+best.remaining {
				// Serve until the next arrival, then re-evaluate priorities.
				best.remaining -= na - now
				s.segs = append(s.segs, commSegment{best.layer, now, na})
				now = na
				continue
			}
		}
		if bi == tail[p] {
			nonEmpty[w] &^= 1 << (p & 63)
		} else {
			head[p] = next[bi]
		}
		s.segs = append(s.segs, commSegment{best.layer, now, now + best.remaining})
		now += best.remaining
		s.done[best.layer] = now + c.lag(best.layer)
		served++
	}
}

// rankPrios replaces each queued priority by its rank among the distinct
// ones queued: the same order, in a spread below the number of tasks.
func (s *IterScratch) rankPrios() {
	s.ranks = s.ranks[:0]
	for _, tk := range s.tasks {
		s.ranks = append(s.ranks, tk.prio)
	}
	slices.Sort(s.ranks)
	s.ranks = slices.Compact(s.ranks)
	for i := range s.tasks {
		s.tasks[i].prio, _ = slices.BinarySearch(s.ranks, s.tasks[i].prio)
	}
}

// byArrival orders tasks ascending by (ready, layer). Layer indices are
// unique, so the order is total and the sort's instability is irrelevant.
func byArrival(a, b commTask) int {
	if c := cmp.Compare(a.ready, b.ready); c != 0 {
		return c
	}
	return cmp.Compare(a.layer, b.layer)
}

// Throughput converts an iteration makespan and global batch size to
// samples/second, the unit of the paper's throughput figures.
func Throughput(makespan time.Duration, globalBatch int) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(globalBatch) / makespan.Seconds()
}

// SimulateIterationOverlapped extends SimulateIteration for the §6 combined
// scheme "multi-stream ooo computation + reverse first-k": layers for which
// overlapped(i) is true run their δW in a concurrent sub-stream, so the δW
// costs leave the serial GPU timeline (the sub-stream keeps pace with the
// main stream, per §4.1); their gradients become ready when the main stream
// passes the point where the δW would have been issued. Layers with
// overlapped(i) == false execute δW serially as usual — reverse first-k
// places the critical first-k δW there.
func SimulateIterationOverlapped(c IterCosts, order graph.BackwardSchedule,
	prio func(layer int) int, preemptive bool, overlapped func(layer int) bool) IterResult {
	var s IterScratch
	return s.SimulateIterationOverlapped(c, order, prio, preemptive, overlapped)
}

// SimulateIterationOverlapped is the allocation-free variant of the
// package-level SimulateIterationOverlapped.
func (s *IterScratch) SimulateIterationOverlapped(c IterCosts, order graph.BackwardSchedule,
	prio func(layer int) int, preemptive bool, overlapped func(layer int) bool) IterResult {
	if overlapped == nil {
		return s.SimulateIteration(c, order, prio, preemptive)
	}
	s.adjDW = resizeDur(s.adjDW, len(c.DW))
	for i := range c.DW {
		if !overlapped(i + 1) {
			s.adjDW[i] = c.DW[i]
		}
	}
	adj := IterCosts{
		F:       c.F,
		DO:      c.DO,
		DW:      s.adjDW,
		SyncW:   c.SyncW,
		SyncLag: c.SyncLag,
	}
	return s.SimulateIteration(adj, order, prio, preemptive)
}
