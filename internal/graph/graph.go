// Package graph formalizes the training-iteration dependency structure from
// §2 of the paper: per layer i, a forward computation F_i, an output-gradient
// computation δO_i, a weight-gradient computation δW_i, optional
// synchronizations S[δO_i]/S[δW_i], and a weight update U_i.
//
// The op dependencies (the constraints of the §2 optimization problem) are:
//
//	δO_i, δW_i   require δO_{i+1}        (the gradient flowing into layer i)
//	S[δO_i]      requires δO_i
//	S[δW_i]      requires δW_i
//	U_i          requires S[δW_i] (or δW_i if no sync)
//	F_i          requires U_i and F_{i-1} (next iteration)
//
// The package provides schedule representation and one schedule walk, the
// Walker, which checks a backward schedule against these dependencies and
// applies the §3 tensor-lifetime rule. Validate, the memory profile (the
// quantity Algorithm 2 constrains and Figure 9 plots), its checkpointed
// variant, the alloc trace and the dependency analysis are walks.
//
// Convention: layers are numbered 1..L as in the paper; δO_{L+1} is the loss
// gradient, treated as available at time zero and not represented explicitly.
package graph

import (
	"fmt"
	"strconv"

	"oooback/internal/models"
)

// OpKind distinguishes the op families of the §2 formulation.
type OpKind int

const (
	// Forward is F_i.
	Forward OpKind = iota
	// OutGrad is δO_i: the gradient w.r.t. layer i's input, consumed by
	// layer i−1's gradient computations.
	OutGrad
	// WeightGrad is δW_i.
	WeightGrad
	// SyncW is S[δW_i] (parameter synchronization in data-parallel training).
	SyncW
	// SyncO is S[δO_i] (activation-gradient hand-off in pipeline training).
	SyncO
	// Update is U_i.
	Update
)

func (k OpKind) String() string {
	switch k {
	case Forward:
		return "F"
	case OutGrad:
		return "dO"
	case WeightGrad:
		return "dW"
	case SyncW:
		return "S[dW]"
	case SyncO:
		return "S[dO]"
	case Update:
		return "U"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op identifies one operation of one layer. Layer is 1-based, per the paper.
type Op struct {
	Kind  OpKind
	Layer int
}

func (o Op) String() string {
	var buf [24]byte
	return string(o.AppendTo(buf[:0]))
}

// AppendTo appends the op's label ("dW12") to dst, for callers that render
// whole schedules into one buffer.
func (o Op) AppendTo(dst []byte) []byte {
	return strconv.AppendInt(append(dst, o.Kind.String()...), int64(o.Layer), 10)
}

// BackwardSchedule is an ordered execution plan for the backward pass: a
// permutation of {δO_L..δO_1, δW_L..δW_1}. The scheduling algorithms in
// internal/core produce these.
type BackwardSchedule []Op

// Conventional returns the strict reverse-layout order used by existing
// systems (Fig 3a): δO_L, δW_L, δO_{L-1}, δW_{L-1}, ..., δO_1, δW_1.
// (δO_i and δW_i of the same layer both consume δO_{i+1}; conventional
// executors run δO first so the critical path is not lengthened.)
func Conventional(L int) BackwardSchedule {
	s := make(BackwardSchedule, 0, 2*L)
	for i := L; i >= 1; i-- {
		s = append(s, Op{OutGrad, i}, Op{WeightGrad, i})
	}
	return s
}

// Validate checks that the schedule is a legal execution order for an
// L-layer network: each op appears exactly once and no op runs before its
// dependency (δO_i and δW_i require δO_{i+1}). It is a walk without a model.
func (s BackwardSchedule) Validate(L int) error {
	var w Walker
	return w.Validate(s, L)
}

// MemoryProfile computes the temporary-memory timeline of a backward
// schedule over a model (the paper's Fig 9 and the M(·) terms of
// Algorithm 2). Position p of the result is the live bytes after executing
// schedule op p, under the Walker's lifetime rule, plus the workspace when
// op p is a δW: the workspace is charged after that op's frees. The
// schedule must be valid; MemoryProfile panics with Validate's error
// otherwise.
func MemoryProfile(m *models.Model, s BackwardSchedule) []int64 {
	prof := make([]int64, len(s))
	var w Walker
	w.profile(m, s, prof)
	return prof
}

// PeakMemory returns the maximum of MemoryProfile as a running max: no
// profile is materialised, and for models of up to 512 layers the walk's
// flags live on the stack, so the call does not allocate. It panics on an
// invalid schedule as MemoryProfile does.
func PeakMemory(m *models.Model, s BackwardSchedule) int64 {
	var flags [512 + 2]uint8
	w := Walker{done: flags[:0]}
	return w.profile(m, s, nil)
}

// profile walks s over m and returns the largest of MemoryProfile's
// charges, storing each in prof unless prof is nil.
func (w *Walker) profile(m *models.Model, s BackwardSchedule, prof []int64) int64 {
	w.begin(m, s)
	var peak int64
	for p, op := range s {
		if w.every > 1 {
			w.materialise(op)
		}
		e, ok := w.next(op)
		if !ok {
			panic(w.illegal(op))
		}
		charge := w.live + e.work
		if prof != nil {
			prof[p] = charge
		}
		peak = max(peak, charge)
	}
	return peak
}
