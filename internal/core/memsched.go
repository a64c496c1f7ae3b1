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
// It reads each ready op's effect from a graph.Walker, so its byte
// accounting is graph.MemoryProfile's: an op's resulting live bytes are
// those after its frees, and its transient peak adds a δW's workspace. Ties
// break deterministically: prefer δW over δO (retiring a weight gradient
// releases its activation sooner), then the higher layer. The result is
// always a valid schedule — ready ops are legal by construction.
//
// The scheduler greedily minimizes memory and ignores time entirely; the
// Pareto sweep in internal/plansearch places it on the frontier next to the
// reverse-first-k family.
func MemSchedule(m *models.Model) graph.BackwardSchedule {
	L := len(m.Layers)
	var w graph.Walker
	w.Reset(m)
	peak := w.Live()
	s := make(graph.BackwardSchedule, 0, 2*L)

	// step is one ready op's memory effect: after is the live bytes once it
	// retires, opPeak the transient maximum it touches.
	type step struct {
		op            graph.Op
		after, opPeak int64
	}
	// tieBetter breaks ties of the LESCEA comparison key, whose primary key
	// depends on the fit/grow phase.
	tieBetter := func(a, b graph.Op) bool {
		if a.Kind != b.Kind {
			return a.Kind == graph.WeightGrad
		}
		return a.Layer > b.Layer
	}

	// The ready list: the chain's next δO and every δW whose input gradient
	// exists and that has not run — at most one δO and L δW. The comparison
	// key is a total order, so the list's order does not matter.
	ready := make([]step, 0, L+1)
	ready = append(ready,
		step{op: graph.Op{Kind: graph.OutGrad, Layer: L}},
		step{op: graph.Op{Kind: graph.WeightGrad, Layer: L}})
	for len(ready) > 0 {
		for c := range ready {
			ready[c].after, ready[c].opPeak = w.Peek(ready[c].op)
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
		if err := w.Step(chosen.op); err != nil {
			panic(err) // unreachable: ready ops are legal
		}
		s = append(s, chosen.op)
		peak = max(peak, chosen.opPeak)
		// δO_i hands g_{i-1} to δO_{i-1} and δW_{i-1}.
		if i := chosen.op.Layer - 1; chosen.op.Kind == graph.OutGrad && i >= 1 {
			ready[best] = step{op: graph.Op{Kind: graph.OutGrad, Layer: i}}
			ready = append(ready, step{op: graph.Op{Kind: graph.WeightGrad, Layer: i}})
		} else {
			ready[best] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
		}
	}
	return s
}
