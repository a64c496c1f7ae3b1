package plansearch

import (
	"time"

	"oooback/internal/core"
)

// kBounds carries, per deferral depth k, the admissible lower bound on the
// simulated makespan and the predictor's feature row. Both are closed-form
// in O(1) per k after one O(L) prefix-sum pass, and both are independent of
// the channel discipline — a priority permutation or preemption cannot make
// the channel serve faster than its total service time, and the GPU timeline
// does not depend on the discipline at all.
type kBounds struct {
	// lb[k] ≤ makespan of reverse-first-k under ANY discipline of the space.
	lb []time.Duration
	// base = ΣδO + ΣδW + ΣF ≤ the makespan of ANY schedule under any
	// discipline (the base bound below).
	base time.Duration
	// feats[k] is the predictor feature row φ(k) (see features()).
	feats [][numFeatures]float64
}

// numFeatures is the size of the predictor's feature vector.
const numFeatures = 6

// computeBounds derives the per-k bounds and features from the cost vector.
//
// Notation (1-indexed layers, L = len): B = ΣδO + ΣδW is the backward end
// (schedule-independent: the GPU runs every backward op back to back),
// ΣF the forward compute, prefDW(k) = Σ_{i≤k} δW_i the deferred compute
// mass, prefSync(k) = Σ_{i≤k} S_i the deferred synchronization mass, and
// Ftail(k) = Σ_{j≥k} F_j.
//
// Admissible bounds (each provably ≤ the true makespan):
//
//   - base: B + ΣF — the forward pass starts after the backward ends and
//     runs serially.
//   - first-layer: dW₁done(k) + S₁ + lag₁ + ΣF — F₁ cannot start before
//     layer 1's synchronization completes, which needs its δW done plus its
//     full channel service plus its aggregation lag; F₂..F_L follow
//     serially. dW₁done(k) is exact: B − prefDW(k) + δW₁ for k ≥ 1 (δW₁ is
//     the first deferred gradient, issued right after the δO chain ends at
//     the point where the non-deferred suffix finished), and B − δO₁ for
//     k = 0 (conventional order ends with δW₁, δO₁).
//   - channel: B − prefDW(k) + prefSync(k) + Ftail(k) for k ≥ 1 — no
//     deferred synchronization can become ready before the deferred block
//     starts at B − prefDW(k); the channel must spend prefSync(k) serving
//     all of them (preemption conserves total service); whichever deferred
//     layer m ≤ k finishes last still has forward tail Σ_{j≥m}F ≥ Ftail(k).
//   - comm: δW_L + ΣS + F_L — the channel cannot start before the first
//     backward op (δW_L for k < L) completes, must serve every
//     synchronization, and the last-served layer's forward tail is ≥ F_L.
//
// lb(k) is the max of the four. The cutoff in searchGuided only ever uses
// lb(k) ≤ makespan(k), so a loose bound costs probes, never correctness.
func computeBounds(c core.IterCosts) *kBounds {
	L := c.Layers()
	pref := make([]time.Duration, 3*(L+1))
	prefDW := pref[:L+1]          // prefDW[k] = Σ_{i≤k} δW_i
	prefSync := pref[L+1 : 2*L+2] // prefSync[k] = Σ_{i≤k} S_i
	prefF := pref[2*L+2:]         // prefF[k] = Σ_{i≤k} F_i
	var sumDO time.Duration
	for i := 0; i < L; i++ {
		prefDW[i+1] = prefDW[i] + c.DW[i]
		prefSync[i+1] = prefSync[i] + c.SyncW[i]
		prefF[i+1] = prefF[i] + c.F[i]
		sumDO += c.DO[i]
	}
	B := sumDO + prefDW[L]
	sumF := prefF[L]
	totalSync := prefSync[L]
	lag1 := time.Duration(0)
	if c.SyncLag != nil {
		lag1 = c.SyncLag[0]
	}

	kb := &kBounds{
		lb:    make([]time.Duration, L),
		base:  B + sumF,
		feats: make([][numFeatures]float64, L),
	}
	invB := 1.0
	if B > 0 {
		invB = 1.0 / float64(B)
	}
	for k := 0; k < L; k++ {
		// dW₁done(k): exact on the serial GPU timeline.
		var dw1done time.Duration
		if k >= 1 {
			dw1done = B - prefDW[k] + c.DW[0]
		} else {
			dw1done = B - c.DO[0]
		}
		lb := kb.base
		if c.SyncW[0] > 0 {
			if v := dw1done + c.SyncW[0] + lag1 + sumF; v > lb {
				lb = v
			}
		}
		if k >= 1 && prefSync[k] > 0 {
			ftail := sumF - prefF[k-1]
			if v := B - prefDW[k] + prefSync[k] + ftail; v > lb {
				lb = v
			}
		}
		if totalSync > 0 {
			if v := c.DW[L-1] + totalSync + c.F[L-1]; v > lb {
				lb = v
			}
		}
		kb.lb[k] = lb
		kb.feats[k] = [numFeatures]float64{
			1,
			float64(lb) * invB,
			float64(prefDW[k]) * invB,
			float64(prefSync[k]) * invB,
			float64(dw1done) * invB,
			float64(k) / float64(L),
		}
	}
	return kb
}
