package graph

import "oooback/internal/models"

// This file is the dependency / ready-set analysis of backward schedules.
// The concurrent executor in internal/train consumes it: the §2 dependency
// structure is what makes every δW op off the critical path (δW_i needs only
// δO_{i+1}, and nothing downstream ever needs δW_i within the iteration), so
// a schedule walk can hand each δW to a worker pool the moment the schedule
// issues it while the δO chain keeps running.

// Analysis summarizes one backward schedule for an execution engine: the
// order it issues its δWs in, and how many gradient tensors its retention
// plan keeps alive at peak.
type Analysis struct {
	// PeakLiveGrads is the maximum number of gradient tensors simultaneously
	// retained under the both-consumers rule: g_i stays live until δO_i and
	// δW_i have both executed, and while δO_i runs g_i and g_{i-1} coexist.
	// It is a property of the schedule's retention plan, not of any
	// particular engine — a concurrent executor retains exactly the tensors
	// the plan retains, so the serial walk and the concurrent one report the
	// same value.
	PeakLiveGrads int

	// DWLayers lists the layer of every δW op in schedule order — the order a
	// dispatching executor hands weight-gradient work to its pool.
	DWLayers []int
}

// Analyze validates the schedule for an L-layer network and computes its
// dependency summary. It walks a model of unit gradients: every g_i weighs
// one byte and nothing else weighs anything, so the walk's live bytes are
// the number of retained gradients.
func Analyze(L int, s BackwardSchedule) (*Analysis, error) {
	unit := make([]models.Layer, L)
	for i := range unit {
		unit[i].OutBytes = 1
	}
	var w Walker
	if err := w.start(L, unit, s); err != nil {
		return nil, err
	}
	a := &Analysis{PeakLiveGrads: int(w.live), DWLayers: make([]int, 0, L)}
	for _, op := range s {
		// What an op defines is live before what it frees is released.
		before := w.live
		e, ok := w.next(op)
		if !ok {
			return nil, w.illegal(op)
		}
		a.PeakLiveGrads = max(a.PeakLiveGrads, int(before+e.def))
		if op.Kind == WeightGrad {
			a.DWLayers = append(a.DWLayers, op.Layer)
		}
	}
	return a, nil
}

// DWRank returns, for layers 1..L, each layer's position among the schedule's
// δW ops (0-based; rank[0] is unused). It is the completion order a serial
// per-replica backward walk emits weight gradients in — the quantity a
// data-parallel reducer needs to drain synchronization buckets in WFBP-style
// completion order.
func (a *Analysis) DWRank() []int {
	rank := make([]int, len(a.DWLayers)+1)
	for j, l := range a.DWLayers {
		rank[l] = j
	}
	return rank
}

// ReverseFirstK returns the reverse first-k order on L layers without a model
// or memory constraint: δW of the deepest L−k layers stays next to its δO,
// while δW_1..δW_k are deferred to the end of the pass (the paper's
// Algorithm 2 shape; core.ReverseFirstK is the model-aware variant). k is
// clamped to [0, L]; k = 0 is almost the conventional order (δW precedes δO
// within a layer) and k = L defers every δW (gradient fast-forwarding).
func ReverseFirstK(L, k int) BackwardSchedule {
	return AppendReverseFirstK(make(BackwardSchedule, 0, 2*L), L, k)
}

// AppendReverseFirstK appends ReverseFirstK(L, k) to dst, for callers that
// build many schedules into one reused buffer.
func AppendReverseFirstK(dst BackwardSchedule, L, k int) BackwardSchedule {
	k = max(0, min(k, L))
	for i := L; i >= 1; i-- {
		if i > k {
			dst = append(dst, Op{Kind: WeightGrad, Layer: i})
		}
		dst = append(dst, Op{Kind: OutGrad, Layer: i})
	}
	for i := 1; i <= k; i++ {
		dst = append(dst, Op{Kind: WeightGrad, Layer: i})
	}
	return dst
}
