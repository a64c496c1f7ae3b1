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
	channel         // the one-shot's channel; the family sweep's shared prefix
	fork    channel // the family sweep's per-depth copy of the prefix
	class   []int   // the family sweep's class of each layer's sync
	ranks   []int   // distinct priorities, when their spread needs ranking
	adjDW   []time.Duration
	walk    graph.Walker // validates each order, one flag byte per layer
	order   graph.BackwardSchedule
}

// channel is the communication channel's working state: the arrival queue,
// the completion times and service segments, and a multi-class channel's
// bucket queue — per class the first and last task of its FIFO, per task
// the next of its class, and a bitmap of the non-empty classes. now, ai (the
// first task not yet arrived at now) and served say where a run stopped, so
// a later run resumes there.
type channel struct {
	tasks            []commTask
	done             []time.Duration
	segs             []commSegment
	head, tail, next []int32
	nonEmpty         []uint64
	now              time.Duration
	ai, served       int
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

// SimulateIteration is the allocation-free variant of the package-level
// SimulateIteration: all working state lives in the scratch.
func (s *IterScratch) SimulateIteration(c IterCosts, order graph.BackwardSchedule, prio func(layer int) int, preemptive bool) IterResult {
	return s.SimulateIterationTraced(c, order, prio, preemptive, nil)
}

// SimulateIterationTraced is the scratch-backed simulator core, with span
// recording: GPU ops land on lane "GPU", communication chunks on lane "NET"
// (the Fig 4 layout). tr may be nil; span recording allocates (it builds
// labels), so traced runs are not allocation-free.
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
// task creation (one call per layer); classify replaces it by its class.
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
	if !slices.IsSortedFunc(s.tasks, byArrival) {
		slices.SortFunc(s.tasks, byArrival)
	}
	classes := s.classify(s.tasks)
	s.reset(c.Layers(), classes, len(s.tasks))
	s.serve(&c, preemptive, classes, math.MaxInt64)
	return s.done, s.segs
}

// classify returns the number of priority classes the queued tasks span and,
// with more than one, replaces each task's priority by its class index:
// priority minus the lowest one, or, when that spread is 4 × the tasks or
// more, the priority's rank among the distinct ones queued (rankPrios).
func (s *IterScratch) classify(tasks []commTask) int {
	lo, hi := math.MaxInt, math.MinInt
	for _, tk := range tasks {
		lo, hi = min(lo, tk.prio), max(hi, tk.prio)
	}
	switch {
	case lo >= hi: // at most one class
		return 1
	case uint64(hi)-uint64(lo) >= 4*uint64(len(tasks)):
		return s.rankPrios(tasks)
	}
	for i := range tasks {
		tasks[i].prio -= lo
	}
	return hi - lo + 1
}

// reset empties the channel for L layers, keeping its arrival queue, and
// sizes the bucket queue for tasks over classes — none for one class, so a
// copy copies none. Only the bitmap is cleared: a class's head and tail are
// read only while its bit is set, a task's next only once a later task
// joined.
func (ch *channel) reset(L, classes, tasks int) {
	ch.done = resizeDur(ch.done, L+1) // zero = no sync needed
	ch.segs = ch.segs[:0]
	ch.now, ch.ai, ch.served = 0, 0, 0
	if classes > 1 {
		ch.head = slices.Grow(ch.head[:0], classes)[:classes]
		ch.tail = slices.Grow(ch.tail[:0], classes)[:classes]
		ch.next = slices.Grow(ch.next[:0], tasks)[:tasks]
		ch.nonEmpty = slices.Grow(ch.nonEmpty[:0], (classes+63)/64)[:(classes+63)/64]
		clear(ch.nonEmpty)
	} else {
		ch.head, ch.tail, ch.next, ch.nonEmpty = ch.head[:0], ch.tail[:0], ch.next[:0], ch.nonEmpty[:0]
	}
}

// copyFrom makes ch a copy of src's state, segments aside.
func (ch *channel) copyFrom(src *channel) {
	ch.tasks = append(ch.tasks[:0], src.tasks...)
	ch.done = append(ch.done[:0], src.done...)
	ch.segs = ch.segs[:0]
	ch.head = append(ch.head[:0], src.head...)
	ch.tail = append(ch.tail[:0], src.tail...)
	ch.next = append(ch.next[:0], src.next...)
	ch.nonEmpty = append(ch.nonEmpty[:0], src.nonEmpty...)
	ch.now, ch.ai, ch.served = src.now, src.ai, src.served
}

// serve runs the channel over its classes: a one-class channel serves every
// queued task (serveInOrder), a multi-class one decides up to until
// (serveByPriority).
func (ch *channel) serve(c *IterCosts, preemptive bool, classes int, until time.Duration) {
	if classes == 1 {
		ch.serveInOrder(c, preemptive)
	} else {
		ch.serveByPriority(c, preemptive, until)
	}
}

// serveInOrder runs a single-class channel: arrival order is service order.
// It serves every queued task; a task's completion does not depend on later
// arrivals, so a run over a prefix of the arrivals is resumed exactly.
func (ch *channel) serveInOrder(c *IterCosts, preemptive bool) {
	tasks := ch.tasks
	now, ai := ch.now, ch.ai
	for _, tk := range tasks[ch.served:] {
		now = max(now, tk.ready)
		if preemptive {
			for {
				for ai < len(tasks) && tasks[ai].ready <= now {
					ai++
				}
				if ai == len(tasks) || tasks[ai].ready >= now+tk.remaining {
					break
				}
				na := tasks[ai].ready
				ch.segs = append(ch.segs, commSegment{tk.layer, now, na})
				tk.remaining -= na - now
				now = na
			}
		}
		ch.segs = append(ch.segs, commSegment{tk.layer, now, now + tk.remaining})
		now += tk.remaining
		ch.done[tk.layer] = now + c.lag(tk.layer)
	}
	ch.now, ch.ai, ch.served = now, ai, len(tasks)
}

// serveByPriority runs a multi-class channel, whose tasks carry class
// indices (classify), with two queues: the arrival queue and a bucket queue
// of the arrived tasks — one FIFO of arrival indices per class, linked
// through next, and a bitmap of the non-empty classes. Within a class,
// arrival order is (ready, layer) order, so the head of the lowest non-empty
// class (the bitmap's lowest set bit) is the task the reference selects.
// The task, with what is left of it, stays in the arrival queue. A task cut
// by an arrival stays at its class head while the arrivals join their
// classes' tails.
//
// The run decides only at times before until, taking the queue's last
// arrival for its last unless until is reached first: it stops at the first
// decision at or after until, and a preemptive task whose service would
// cross until with no arrival queued before is cut there. Resumed with
// every later arrival after until, the run serves exactly as one run over
// the whole queue: nothing new arrives at the cut, so the same head resumes.
func (ch *channel) serveByPriority(c *IterCosts, preemptive bool, until time.Duration) {
	tasks, head, tail, next, nonEmpty := ch.tasks, ch.head, ch.tail, ch.next, ch.nonEmpty
	n := len(tasks)
	now, ai, served := ch.now, ch.ai, ch.served
	for served < n && now < until {
		for ; ai < n && tasks[ai].ready <= now; ai++ {
			p := tasks[ai].prio
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
			now = tasks[ai].ready
			continue
		}
		w := 0
		for nonEmpty[w] == 0 {
			w++
		}
		p := w<<6 | bits.TrailingZeros64(nonEmpty[w])
		bi := head[p]
		best := &tasks[bi]
		if preemptive {
			na := until
			if ai < n {
				na = tasks[ai].ready
			}
			if na < now+best.remaining {
				// Serve until the next arrival, then re-evaluate priorities.
				best.remaining -= na - now
				ch.segs = append(ch.segs, commSegment{best.layer, now, na})
				now = na
				continue
			}
		}
		if bi == tail[p] {
			nonEmpty[w] &^= 1 << (p & 63)
		} else {
			head[p] = next[bi]
		}
		ch.segs = append(ch.segs, commSegment{best.layer, now, now + best.remaining})
		now += best.remaining
		ch.done[best.layer] = now + c.lag(best.layer)
		served++
	}
	ch.now, ch.ai, ch.served = now, ai, served
}

// rankPrios replaces each task's priority by its rank among the distinct
// ones queued — the same order, in a spread below the number of tasks — and
// returns the number of ranks.
func (s *IterScratch) rankPrios(tasks []commTask) int {
	s.ranks = s.ranks[:0]
	for _, tk := range tasks {
		s.ranks = append(s.ranks, tk.prio)
	}
	slices.Sort(s.ranks)
	s.ranks = slices.Compact(s.ranks)
	for i := range tasks {
		tasks[i].prio, _ = slices.BinarySearch(s.ranks, tasks[i].prio)
	}
	return len(s.ranks)
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
// places the critical first-k δW there. Warm, it allocates nothing.
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
