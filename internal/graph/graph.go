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
// The package provides schedule representation, legality checking against
// these dependencies, and the memory profile of a backward schedule — the
// quantity Algorithm 2 constrains and Figure 9 plots.
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
// dependency (δO_i and δW_i require δO_{i+1}).
func (s BackwardSchedule) Validate(L int) error {
	flags := make([]bool, 2*(L+2))
	return s.validate(L, flags[:L+2], flags[L+2:])
}

// validate is Validate on caller-supplied tables: seenDO and seenDW hold
// L+2 cleared flags each and come back marking the ops seen.
func (s BackwardSchedule) validate(L int, seenDO, seenDW []bool) error {
	if len(s) != 2*L {
		return fmt.Errorf("graph: schedule has %d ops, want %d", len(s), 2*L)
	}
	seenDO[L+1] = true // loss gradient
	for pos, op := range s {
		if op.Layer < 1 || op.Layer > L {
			return fmt.Errorf("graph: op %v at %d: layer out of range 1..%d", op, pos, L)
		}
		seen := seenDO
		switch op.Kind {
		case OutGrad:
		case WeightGrad:
			seen = seenDW
		default:
			return fmt.Errorf("graph: op %v at %d: backward schedules hold only dO/dW", op, pos)
		}
		if seen[op.Layer] {
			return fmt.Errorf("graph: op %v duplicated at %d", op, pos)
		}
		seen[op.Layer] = true
		if !seenDO[op.Layer+1] {
			return fmt.Errorf("graph: op %v at %d runs before dO%d", op, pos, op.Layer+1)
		}
	}
	return nil
}

// WeightGradOrder extracts the layer indices of the δW ops in schedule order.
func (s BackwardSchedule) WeightGradOrder() []int {
	var order []int
	for _, op := range s {
		if op.Kind == WeightGrad {
			order = append(order, op.Layer)
		}
	}
	return order
}

// MemoryProfile computes the temporary-memory timeline of a backward
// schedule over a model (the paper's Fig 9 and the M(·) terms of
// Algorithm 2). Position p of the result is the live bytes after executing
// schedule op p.
//
// Tensor lifetime rules (the paper's §3 memory discussion):
//   - activation a_{i-1} (models.Layer.ActBytes of layer i) is live from the
//     start of the backward pass (stored by the forward pass) and is freed
//     once δW_i has executed;
//   - gradient g_i (OutBytes of layer i) is produced by the upstream δO
//     (δO_{i+1}, or the loss for i=L) and freed once both δO_i and δW_i have
//     executed;
//   - the δW workspace (WorkBytes) is live only during its own op and is
//     charged at that position.
func MemoryProfile(m *models.Model, s BackwardSchedule) []int64 {
	w := newMemWalk(m, make([]uint8, len(m.Layers)+1))
	prof := make([]int64, len(s))
	for p, op := range s {
		prof[p] = w.step(op)
	}
	return prof
}

// PeakMemory returns the maximum of MemoryProfile as a running max: no
// profile is materialised, and for models of up to 512 layers the walk's
// flags live on the stack, so the call does not allocate.
func PeakMemory(m *models.Model, s BackwardSchedule) int64 {
	var stack [513]uint8
	done := stack[:]
	if n := len(m.Layers) + 1; n > len(stack) {
		done = make([]uint8, n)
	}
	w := newMemWalk(m, done)
	var peak int64
	for _, op := range s {
		peak = max(peak, w.step(op))
	}
	return peak
}

// memWalk applies MemoryProfile's lifetime rules one op at a time.
type memWalk struct {
	layers []models.Layer
	live   int64
	done   []uint8 // per layer: doneDO | doneDW
}

const (
	doneDO = 1 << iota
	doneDW
)

// newMemWalk starts a walk at the backward pass's initial residency: all
// stored activations plus the loss gradient g_L. done holds at least L+1
// cleared flags.
func newMemWalk(m *models.Model, done []uint8) memWalk {
	w := memWalk{layers: m.Layers, done: done}
	for i := range m.Layers {
		w.live += m.Layers[i].ActBytes
	}
	w.live += m.Layers[len(m.Layers)-1].OutBytes
	return w
}

// step executes op and returns the live bytes charged at its position.
func (w *memWalk) step(op Op) int64 {
	i := op.Layer
	l := &w.layers[i-1]
	switch op.Kind {
	case OutGrad:
		w.done[i] |= doneDO
		if i > 1 {
			w.live += w.layers[i-2].OutBytes // produces g_{i-1}
		}
	case WeightGrad:
		w.done[i] |= doneDW
		w.live -= l.ActBytes // frees a_{i-1}
	}
	if w.done[i] == doneDO|doneDW {
		w.live -= l.OutBytes // frees g_i
	}
	if op.Kind == WeightGrad {
		return w.live + l.WorkBytes
	}
	return w.live
}
