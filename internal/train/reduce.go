package train

import (
	"fmt"
	"time"

	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// This file is the gradient-reduction half of the real data-parallel engine:
// the bucket plan (which parameters sync together and in what drain order)
// and the reducer that sums per-replica gradient buckets with a fixed
// pairwise tree, concurrently with the replicas' still-running backward
// passes. replica.go owns the replicas and the step protocol.

// SyncSchedule selects the drain order of ready gradient buckets — which
// bucket the reducer synchronizes first when several have been published.
// The choice never changes any gradient bit (each bucket's reduction is
// self-contained with a fixed tree); it only shapes the overlap timeline,
// exactly like the sync scheduling of the paper's §5.1.
type SyncSchedule int

const (
	// SyncCompletion drains buckets in δW completion order of the backward
	// schedule — the WFBP-style baseline: whatever finished first syncs first.
	SyncCompletion SyncSchedule = iota
	// SyncLayerPriority drains the bucket holding the lowest layer first —
	// the paper's reverse first-k priority rule: layer 1's parameters gate the
	// next iteration's first forward op, so their sync is most urgent.
	SyncLayerPriority
)

func (s SyncSchedule) String() string {
	switch s {
	case SyncCompletion:
		return "completion"
	case SyncLayerPriority:
		return "layer-priority"
	default:
		return fmt.Sprintf("SyncSchedule(%d)", int(s))
	}
}

// reduceChunk is the span length (elements) of one reduction leaf: the tree
// is applied chunk by chunk so a chunk of every replica stays cache-resident
// through all its tree levels before moving on.
const reduceChunk = 8 << 10

// bucket is one gradient-synchronization unit of the plan.
type bucket struct {
	layers []int // member layers (1-based) that own parameters
	params []int // indices into the aligned flat parameter list
	elems  int   // total gradient elements
	prio   int   // drain order: lower drains first among ready buckets
}

// reducePlan fixes the bucket assignment and drain priorities for one
// network architecture × backward schedule × sync schedule. It is immutable
// after construction and shared by every replica and the reducer.
type reducePlan struct {
	buckets     []bucket
	layerBucket []int // 1-based layer → bucket index, -1 for paramless layers
}

// newReducePlan buckets the network's parameters with the shared
// datapar.AssignBuckets walk (conventional backward order L→1, merged to
// roughly bucketBytes) and derives each bucket's drain priority from the
// backward schedule's dependency analysis.
func newReducePlan(n *Network, a *graph.Analysis, sync SyncSchedule, bucketBytes int64) *reducePlan {
	L := len(n.Layers)
	paramBytes := make([]int64, L)
	// Layer → contiguous range in the flat parameter list.
	paramLo := make([]int, L+1)
	flat := 0
	for i, l := range n.Layers {
		paramLo[i] = flat
		for _, p := range l.Params() {
			paramBytes[i] += int64(8 * len(p.Value.Data))
			flat++
		}
	}
	paramLo[L] = flat

	rank := a.DWRank()
	plan := &reducePlan{layerBucket: make([]int, L+1)}
	for i := range plan.layerBucket {
		plan.layerBucket[i] = -1
	}
	for _, members := range datapar.AssignBuckets(paramBytes, bucketBytes) {
		var b bucket
		b.prio = -1
		for _, layer := range members {
			if paramBytes[layer-1] == 0 {
				continue // paramless layers have nothing to synchronize
			}
			b.layers = append(b.layers, layer)
			for pi := paramLo[layer-1]; pi < paramLo[layer]; pi++ {
				b.params = append(b.params, pi)
			}
			var key int
			switch sync {
			case SyncLayerPriority:
				key = layer // lowest member layer is most urgent
			default:
				// Bucket becomes ready when its LAST member δW completes;
				// drain in that completion order.
				key = -rank[layer]
			}
			if b.prio == -1 || key < b.prio {
				b.prio = key
			}
		}
		if sync == SyncCompletion {
			b.prio = -b.prio // max rank over members, as a min-drains-first key
		}
		if len(b.layers) == 0 {
			continue
		}
		idx := len(plan.buckets)
		for _, layer := range b.layers {
			plan.layerBucket[layer] = idx
		}
		plan.buckets = append(plan.buckets, b)
	}
	for i := range plan.buckets {
		b := &plan.buckets[i]
		for _, pi := range b.params {
			b.elems += len(paramAt(n, pi).Grad.Data)
		}
	}
	return plan
}

func paramAt(n *Network, i int) *nn.Param { return n.Params()[i] }

// pubMsg announces that one replica finished every δW of one bucket.
type pubMsg struct {
	bucket  int
	replica int
}

// reduceStats is the reducer's per-step report, read off its lane.
type reduceStats struct {
	end  time.Time     // when the last bucket finished reducing
	busy time.Duration // total time spent inside bucket reductions
}

// reducerLoop runs on the engine's dedicated reducer goroutine. Per step it
// consumes N publishes per bucket, reduces each bucket as soon as all
// replicas published it — picking the highest-priority ready bucket when
// several are pending — and reports timing when the step's last bucket is
// done. The loop exits when the publish channel closes.
func (dp *DataParallel) reducerLoop() {
	defer dp.wg.Done()
	B := len(dp.plan.buckets)
	N := len(dp.replicas)
	counts := make([]int, B)
	ready := make([]bool, B)
	red := &dp.reducer
	for {
		for done := 0; done < B; {
			b := dp.pickReady(ready)
			if b < 0 {
				msg, ok := <-dp.pub
				if !ok {
					return
				}
				if counts[msg.bucket]++; counts[msg.bucket] == N {
					ready[msg.bucket] = true
				}
				continue
			}
			// Widen the priority choice with whatever already arrived.
		drain:
			for {
				select {
				case msg, ok := <-dp.pub:
					if !ok {
						return
					}
					if counts[msg.bucket]++; counts[msg.bucket] == N {
						ready[msg.bucket] = true
					}
				default:
					break drain
				}
			}
			if nb := dp.pickReady(ready); nb >= 0 {
				b = nb
			}
			bk := &dp.plan.buckets[b]
			red.mark()
			dp.reduceBucket(b)
			red.span(OpReduce, row{layer: bk.layers[0]}, bk.elems)
			ready[b] = false
			counts[b] = 0
			done++
		}
		dp.redDone <- reduceStats{end: red.clock, busy: red.busy[OpReduce]}
		red.busy[OpReduce] = 0
	}
}

// pickReady returns the ready bucket with the lowest drain key, or -1.
func (dp *DataParallel) pickReady(ready []bool) int {
	best := -1
	for i, r := range ready {
		if r && (best < 0 || dp.plan.buckets[i].prio < dp.plan.buckets[best].prio) {
			best = i
		}
	}
	return best
}

// reduceBucket sums the bucket's per-replica gradients into replica 0 with a
// fixed pairwise tree, then averages. Chunked: every tree level of a chunk
// runs before the next chunk starts, so the working set stays cache-resident.
// The tree shape and chunk order depend only on the replica count and tensor
// sizes — never on timing — so the result is bitwise identical to the serial
// reference reduce (ReferenceStep) no matter when or on which goroutine this
// runs. Safe to call once all replicas have finished the bucket's δW ops:
// publication via dp.pub orders those writes before this read.
func (dp *DataParallel) reduceBucket(bi int) {
	n := len(dp.replicas)
	if n == 1 {
		return // nothing to sum; skipping the 1/1 scale keeps bits identical to single-replica training
	}
	inv := 1 / float64(n)
	for _, pi := range dp.plan.buckets[bi].params {
		dst := dp.replicas[0].params[pi].Grad.Data
		for lo := 0; lo < len(dst); lo += reduceChunk {
			hi := lo + reduceChunk
			if hi > len(dst) {
				hi = len(dst)
			}
			for stride := 1; stride < n; stride *= 2 {
				for r := 0; r+stride < n; r += 2 * stride {
					d := dp.replicas[r].params[pi].Grad.Data
					s := dp.replicas[r+stride].params[pi].Grad.Data
					tensor.AddSpan(d[lo:hi], s[lo:hi])
				}
			}
			tensor.ScaleSpan(dst[lo:hi], inv)
		}
	}
}
