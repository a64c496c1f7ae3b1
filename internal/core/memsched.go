package core

import (
	"oooback/internal/graph"
	"oooback/internal/models"
)

// MemSchedule is the LESCEA-style peak-memory list scheduler: an alternative
// to reverse-first-k that orders the backward pass to minimize peak live
// bytes rather than makespan. At every step it looks at the ready ops — the
// next δO of the chain plus every δW whose input gradient exists — and
// applies the classic list-scheduling memory rule:
//
//   - if every ready op would raise the running peak, take the one with the
//     smallest resulting peak (the unavoidable growth step);
//   - otherwise, among the ops that fit under the current peak, take the one
//     that frees the most bytes relative to what it defines (equivalently:
//     minimizes the resulting live bytes).
//
// Byte accounting matches graph.MemoryProfile exactly: δO_i defines g_{i-1}
// and frees g_i when δW_i already ran; δW_i frees a_{i-1} (and g_i when δO_i
// already ran) and charges its workspace transiently. Ties break
// deterministically: prefer δW over δO (retiring a weight gradient releases
// its activation sooner), then the higher layer. The result is always a
// valid schedule — ready ops are legal by construction.
//
// The scheduler greedily minimizes memory and ignores time entirely; the
// Pareto sweep in internal/plansearch places it on the frontier next to the
// reverse-first-k family.
func MemSchedule(m *models.Model) graph.BackwardSchedule {
	L := len(m.Layers)
	layer := func(i int) *models.Layer { return &m.Layers[i-1] }

	var live int64
	for i := 1; i <= L; i++ {
		live += layer(i).ActBytes
	}
	live += layer(L).OutBytes // loss gradient g_L
	peak := live

	doneDO := make([]bool, L+1)
	doneDW := make([]bool, L+1)
	nextDO := L
	s := make(graph.BackwardSchedule, 0, 2*L)

	// step describes one ready op's memory effect: after is the live bytes
	// once it retires; opPeak the transient maximum it touches (after +
	// workspace for δW, mirroring MemoryProfile's charge).
	type step struct {
		op            graph.Op
		after, opPeak int64
	}
	eval := func(op graph.Op) step {
		i := op.Layer
		after := live
		var transient int64
		switch op.Kind {
		case graph.OutGrad:
			if i > 1 {
				after += layer(i - 1).OutBytes
			}
			if doneDW[i] {
				after -= layer(i).OutBytes
			}
		case graph.WeightGrad:
			after -= layer(i).ActBytes
			if doneDO[i] {
				after -= layer(i).OutBytes
			}
			transient = layer(i).WorkBytes
		}
		return step{op: op, after: after, opPeak: after + transient}
	}
	// prefer reports whether a beats b under the LESCEA comparison key:
	// primary key depends on the fit/grow phase, tie-breaks are fixed.
	tieBetter := func(a, b graph.Op) bool {
		if a.Kind != b.Kind {
			return a.Kind == graph.WeightGrad
		}
		return a.Layer > b.Layer
	}

	// At most one δO and L δW are ever ready.
	ready := make([]step, 0, L+1)
	for len(s) < 2*L {
		ready = ready[:0]
		if nextDO >= 1 {
			ready = append(ready, eval(graph.Op{Kind: graph.OutGrad, Layer: nextDO}))
		}
		for i := nextDO; i <= L; i++ {
			if i >= 1 && !doneDW[i] {
				ready = append(ready, eval(graph.Op{Kind: graph.WeightGrad, Layer: i}))
			}
		}

		// Fit phase: ops whose transient peak stays under the running peak.
		best := -1
		for c, cand := range ready {
			if cand.opPeak > peak {
				continue
			}
			if best < 0 || cand.after < ready[best].after ||
				(cand.after == ready[best].after && tieBetter(cand.op, ready[best].op)) {
				best = c
			}
		}
		if best < 0 {
			// Grow phase: every op raises the peak; take the smallest raise.
			for c, cand := range ready {
				if best < 0 || cand.opPeak < ready[best].opPeak ||
					(cand.opPeak == ready[best].opPeak && tieBetter(cand.op, ready[best].op)) {
					best = c
				}
			}
		}

		chosen := ready[best]
		s = append(s, chosen.op)
		live = chosen.after
		if chosen.opPeak > peak {
			peak = chosen.opPeak
		}
		if chosen.op.Kind == graph.OutGrad {
			doneDO[chosen.op.Layer] = true
			nextDO--
		} else {
			doneDW[chosen.op.Layer] = true
		}
	}
	return s
}
