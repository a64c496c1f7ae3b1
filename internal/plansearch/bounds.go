package plansearch

import (
	"time"

	"oooback/internal/core"
)

// kBounds carries, per candidate schedule, an admissible lower bound on the
// simulated makespan, and the prefix sums the predictor's feature rows are
// read from. Both are closed-form in O(1) per k after one O(L) prefix-sum
// pass, and both are independent of the channel discipline — a priority
// permutation or preemption cannot make the channel serve faster than its
// total service time, and the GPU timeline does not depend on the
// discipline at all.
type kBounds struct {
	// lb[k] ≤ the makespan of reverse first-k under ANY discipline of the
	// space, for k < L; lb[L] is the base bound ΣδO + ΣδW + ΣF, which holds
	// for every schedule, the list schedule included.
	lb []time.Duration
	// prefDW[k] = Σ_{i≤k} δW_i and prefSync[k] = Σ_{i≤k} S_i.
	prefDW, prefSync []time.Duration
	// B = ΣδO + ΣδW is the backward end; invB its inverse (1 when B = 0).
	B    time.Duration
	invB float64
	// do1 and dw1 are layer 1's δO and δW times.
	do1, dw1 time.Duration
}

// numFeatures is the size of the predictor's feature vector.
const numFeatures = 6

// computeBounds derives the per-k bounds from the cost vector.
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
// lb(k) is the max of the four; lb(L), the list schedule's, is the base
// bound alone. Every stop rule only ever uses lb ≤ makespan, so a loose
// bound costs probes, never correctness.
func computeBounds(c core.IterCosts) *kBounds {
	L := c.Layers()
	buf := make([]time.Duration, 4*(L+1))
	prefDW := buf[:L+1]          // prefDW[k] = Σ_{i≤k} δW_i
	prefSync := buf[L+1 : 2*L+2] // prefSync[k] = Σ_{i≤k} S_i
	prefF := buf[2*L+2 : 3*L+3]  // prefF[k] = Σ_{i≤k} F_i
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
		lb:       buf[3*L+3:],
		prefDW:   prefDW,
		prefSync: prefSync,
		B:        B,
		invB:     1.0,
		do1:      c.DO[0],
		dw1:      c.DW[0],
	}
	if B > 0 {
		kb.invB = 1.0 / float64(B)
	}
	base := B + sumF
	for k := 0; k < L; k++ {
		lb := base
		if c.SyncW[0] > 0 {
			if v := kb.dw1done(k) + c.SyncW[0] + lag1 + sumF; v > lb {
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
	}
	kb.lb[L] = base
	return kb
}

// dw1done is layer 1's δW completion time under reverse first-k, exact on
// the serial GPU timeline.
func (kb *kBounds) dw1done(k int) time.Duration {
	if k >= 1 {
		return kb.B - kb.prefDW[k] + kb.dw1
	}
	return kb.B - kb.do1
}

// features is the predictor's feature row φ(k) of reverse first-k: the
// intercept, the bound, the deferred δW and synchronization masses and layer
// 1's δW completion (all over B), and k/L.
func (kb *kBounds) features(k int) [numFeatures]float64 {
	return [numFeatures]float64{
		1,
		float64(kb.lb[k]) * kb.invB,
		float64(kb.prefDW[k]) * kb.invB,
		float64(kb.prefSync[k]) * kb.invB,
		float64(kb.dw1done(k)) * kb.invB,
		float64(k) / float64(len(kb.lb)-1),
	}
}
