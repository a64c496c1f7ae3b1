package graph

import (
	"fmt"

	"oooback/internal/models"
)

// This file is the dependency / ready-set analysis of backward schedules.
// The concurrent executor in internal/train consumes it: the §2 dependency
// structure is what makes every δW op off the critical path (δW_i needs only
// δO_{i+1}, and nothing downstream ever needs δW_i within the iteration), so
// a schedule walk can hand each δW to a worker pool the moment the schedule
// issues it while the δO chain keeps running.

// Dependency returns the backward op that op directly depends on — δO_{i+1}
// for both δO_i and δW_i — and reports whether such an op exists. Layer-L ops
// consume the loss gradient, which is available before the backward pass
// starts, so they depend on nothing inside the schedule.
func Dependency(op Op, L int) (Op, bool) {
	if op.Layer >= L {
		return Op{}, false
	}
	return Op{Kind: OutGrad, Layer: op.Layer + 1}, true
}

// Analysis summarizes the dependency structure of one backward schedule for
// an execution engine: when each δW becomes ready, in what order the δWs are
// issued, and how many gradient tensors the schedule's retention plan keeps
// alive at peak.
type Analysis struct {
	// L is the layer count the schedule covers.
	L int

	// PeakLiveGrads is the maximum number of gradient tensors simultaneously
	// retained under the both-consumers rule: g_i stays live until δO_i and
	// δW_i have both executed. It is a property of the schedule's retention
	// plan, not of any particular engine — a concurrent executor retains
	// exactly the tensors the plan retains, so the serial walk and the
	// concurrent one report the same value.
	PeakLiveGrads int

	// PeakLiveGradBytes is PeakLiveGrads in dtype-sized bytes: the maximum
	// sum of OutBytes over simultaneously retained gradients. Tensor counts
	// mislead when layer widths differ by orders of magnitude (an embedding
	// gradient vs a logit gradient), so budget decisions use this field.
	// Filled by AnalyzeModel; Analyze without a model leaves it zero.
	PeakLiveGradBytes int64

	// PeakMemoryBytes is the schedule's overall peak of live bytes —
	// retained gradients plus stored activations plus the transient δW
	// workspace, i.e. max(MemoryProfile). Filled by AnalyzeModel.
	PeakMemoryBytes int64

	// DWLayers lists the layer of every δW op in schedule order — the order a
	// dispatching executor hands weight-gradient work to its pool.
	DWLayers []int

	// DWIssueAfter[j] is the number of δO ops preceding the j-th δW op in the
	// schedule: the issue point on the critical chain. Because δO ops execute
	// in chain order δO_L → δO_1, the j-th δW's input gradient exists once
	// that many chain links have run.
	DWIssueAfter []int

	// DWReadyAfter[j] is the earliest legal issue point of the j-th δW op:
	// L − DWLayers[j] chain links (δW_i is ready as soon as δO_{i+1} has run;
	// δW_L is ready at zero). Validate guarantees
	// DWReadyAfter[j] ≤ DWIssueAfter[j] for every j.
	DWReadyAfter []int
}

// Analyze validates the schedule for an L-layer network and computes its
// dependency summary.
func Analyze(L int, s BackwardSchedule) (*Analysis, error) {
	if err := s.Validate(L); err != nil {
		return nil, err
	}
	a := &Analysis{
		L:            L,
		DWLayers:     make([]int, 0, L),
		DWIssueAfter: make([]int, 0, L),
		DWReadyAfter: make([]int, 0, L),
	}
	doneDO := make([]bool, L+1)
	doneDW := make([]bool, L+1)
	live, peak, doCount := 1, 1, 0
	for _, op := range s {
		i := op.Layer
		switch op.Kind {
		case OutGrad:
			doneDO[i] = true
			doCount++
			if i > 1 {
				live++
				if live > peak {
					peak = live
				}
			}
		case WeightGrad:
			doneDW[i] = true
			a.DWLayers = append(a.DWLayers, i)
			a.DWIssueAfter = append(a.DWIssueAfter, doCount)
			a.DWReadyAfter = append(a.DWReadyAfter, L-i)
		}
		if doneDO[i] && doneDW[i] {
			live--
		}
	}
	if live != 0 {
		// Unreachable for a validated schedule; guards future edits.
		return nil, fmt.Errorf("graph: analysis left %d gradients live", live)
	}
	a.PeakLiveGrads = peak
	return a, nil
}

// AnalyzeModel is Analyze with byte-level peak accounting: the schedule is
// analyzed for m's layer count and the byte fields (PeakLiveGradBytes,
// PeakMemoryBytes) are filled from the model's dtype-sized tensor sizes.
// The tensor-count and byte peaks can disagree on *where* the peak is — a
// retention plan holding many small gradients can be cheaper than one
// holding two huge ones — which is exactly why the byte fields exist.
func AnalyzeModel(m *models.Model, s BackwardSchedule) (*Analysis, error) {
	L := len(m.Layers)
	a, err := Analyze(L, s)
	if err != nil {
		return nil, err
	}
	layer := func(i int) models.Layer { return m.Layers[i-1] }

	// Gradient-byte walk, mirroring Analyze's count walk with OutBytes
	// weights. g_L is live from the start (the loss gradient).
	doneDO := make([]bool, L+1)
	doneDW := make([]bool, L+1)
	live := layer(L).OutBytes
	peak := live
	for _, op := range s {
		i := op.Layer
		switch op.Kind {
		case OutGrad:
			doneDO[i] = true
			if i > 1 {
				live += layer(i - 1).OutBytes
				if live > peak {
					peak = live
				}
			}
		case WeightGrad:
			doneDW[i] = true
		}
		if doneDO[i] && doneDW[i] {
			live -= layer(i).OutBytes
		}
	}
	a.PeakLiveGradBytes = peak
	a.PeakMemoryBytes = PeakMemory(m, s)
	return a, nil
}

// DWRank returns, for layers 1..L, each layer's position among the schedule's
// δW ops (0-based; rank[0] is unused). It is the completion order a serial
// per-replica backward walk emits weight gradients in — the quantity a
// data-parallel reducer needs to drain synchronization buckets in WFBP-style
// completion order.
func (a *Analysis) DWRank() []int {
	rank := make([]int, a.L+1)
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
