package graph

import (
	"fmt"
	"math/bits"
	"time"

	"oooback/internal/models"
)

// Walker steps through a backward schedule one op at a time. It is the one
// place that states the two rules every backward schedule is read under:
//
//   - legality (§2): each op is a δO or δW of a layer in 1..L, runs once,
//     and runs after δO_{i+1}; δO_{L+1} is the loss gradient, there from the
//     start;
//   - tensor lifetimes (§3): activation a_{i−1} (ActBytes of layer i) is
//     live from the start of the pass until δW_i runs; gradient g_i
//     (OutBytes of layer i) is produced by δO_{i+1} (g_L by the loss) and
//     lives until both δO_i and δW_i have run; δW_i's workspace (WorkBytes)
//     lives only while δW_i runs.
//
// Validate checks legality alone. Every other walk — MemoryProfile,
// PeakMemory, MemoryProfileRecompute, the alloc trace, Analyze, and core's
// list scheduler asking what each ready op would do — is over a model and
// weighs tensors in its bytes.
//
// A checkpointed walk (MemoryProfileRecompute) stores a_{i−1} from the
// forward pass only for i ≡ 1 mod its interval. Before δW_i reads an a_{i−1}
// that is not resident, it re-forwards layers c..i−1 from the nearest
// resident activation a_{c−1}, c ≤ i (the input batch a_0 is always at
// hand), and keeps of what it passes through only the activations whose δW
// has yet to run. δW_i then frees a_{i−1} as on any walk.
//
// The zero value is ready to use and a warm walker allocates nothing. A
// walker is not safe for concurrent use.
type Walker struct {
	layers []models.Layer // nil on a walk that checks legality alone
	done   []uint8        // per layer 1..L+1: ranDO | ranDW | resident
	live   int64          // bytes live after the ops run so far

	every     int           // checkpoint interval; ≤ 1 stores every activation
	refwd     int           // layers re-forwarded so far on a checkpointed walk
	refwdTime time.Duration // their forward time
}

// An op's done flag is its kind's value. resident marks a_{i−1} as held
// while δW_i has yet to run; only a checkpointed walk sets or reads it.
const (
	ranDO    = uint8(OutGrad)
	ranDW    = uint8(WeightGrad)
	resident = uint8(4)
)

// Reset starts a walk over m's backward pass. Live bytes start at the pass's
// initial residency: every stored activation plus the loss gradient g_L.
func (w *Walker) Reset(m *models.Model) {
	w.reset(len(m.Layers), m.Layers)
}

// reset starts a walk of an L-layer pass; layers is nil for a walk that
// checks legality alone.
func (w *Walker) reset(L int, layers []models.Layer) {
	if cap(w.done) < L+2 {
		w.done = make([]uint8, L+2)
	} else {
		w.done = w.done[:L+2]
		clear(w.done)
	}
	w.done[L+1] = ranDO
	var live int64
	if w.every > 1 {
		w.refwd, w.refwdTime = 0, 0
		for i := 1; i <= len(layers); i += w.every {
			w.done[i] = resident
			live += layers[i-1].ActBytes
		}
	} else {
		for i := range layers {
			live += layers[i].ActBytes
		}
	}
	if len(layers) > 0 {
		live += layers[L-1].OutBytes
	}
	w.layers, w.live = layers, live
}

// start resets the walker for schedule s of an L-layer pass and checks that s
// has one δO and one δW per layer's worth of ops.
func (w *Walker) start(L int, layers []models.Layer, s BackwardSchedule) error {
	w.reset(L, layers)
	if len(s) != 2*L {
		return fmt.Errorf("graph: schedule has %d ops, want %d", len(s), 2*L)
	}
	return nil
}

// begin starts a walk of s over m for the walks that return no error: they
// panic with Validate's error, here and at the first illegal op.
func (w *Walker) begin(m *models.Model, s BackwardSchedule) {
	if err := w.start(len(m.Layers), m.Layers, s); err != nil {
		panic(err)
	}
}

// Validate walks s as the backward schedule of an L-layer network, checking
// legality alone, and returns the first rule it breaks, or nil.
func (w *Walker) Validate(s BackwardSchedule, L int) error {
	if err := w.start(L, nil, s); err != nil {
		return err
	}
	done := w.done
	for _, op := range s {
		if !ready(done, op) {
			return w.illegal(op)
		}
		done[op.Layer] |= uint8(op.Kind)
	}
	return nil
}

// ready reports whether op may run next on a walk's done flags: it is a δO
// or δW of a layer in range that has not run yet, and δO_{i+1} has run.
func ready(done []uint8, op Op) bool {
	i := op.Layer
	if i < 1 || i > len(done)-2 || uint(op.Kind-OutGrad) > 1 { // a δO or a δW
		return false
	}
	d := done[i : i+2]
	return d[0]&uint8(op.Kind) == 0 && d[1]&ranDO != 0
}

// illegal returns the error for an op ready rejects: the first rule it
// breaks, in the order layer range, kind, duplicate, dependency.
func (w *Walker) illegal(op Op) error {
	L := len(w.done) - 2
	pos := 0 // every op run so far set one flag of its own
	for _, d := range w.done[1 : L+1] {
		pos += bits.OnesCount8(d & (ranDO | ranDW))
	}
	switch {
	case op.Layer < 1 || op.Layer > L:
		return fmt.Errorf("graph: op %v at %d: layer out of range 1..%d", op, pos, L)
	case op.Kind != OutGrad && op.Kind != WeightGrad:
		return fmt.Errorf("graph: op %v at %d: backward schedules hold only dO/dW", op, pos)
	case w.done[op.Layer]&uint8(op.Kind) != 0:
		return fmt.Errorf("graph: op %v duplicated at %d", op, pos)
	}
	return fmt.Errorf("graph: op %v at %d runs before dO%d", op, pos, op.Layer+1)
}

// Step runs op if it may run next, and otherwise returns the rule it breaks.
// Step and Peek continue a walk that Reset started.
func (w *Walker) Step(op Op) error {
	if _, ok := w.next(op); !ok {
		return w.illegal(op)
	}
	return nil
}

// Live returns the bytes live after the ops run so far.
func (w *Walker) Live() int64 { return w.live }

// Peek returns what op, which must be able to run next, would do: the
// live bytes it leaves, and the bytes MemoryProfile charges at its position
// — those plus a δW's workspace.
func (w *Walker) Peek(op Op) (after, charge int64) {
	e := w.effect(op)
	after = w.live + e.def - e.act - e.grad
	return after, after + e.work
}

// next runs op if it may run next and returns its effect; otherwise ok is
// false and nothing runs.
func (w *Walker) next(op Op) (e effect, ok bool) {
	done := w.done
	if !ready(done, op) {
		return e, false
	}
	e = w.effect(op)
	w.live += e.def - e.act - e.grad
	done[op.Layer] |= uint8(op.Kind)
	return e, true
}

// effect is what one op does to the tensors under the lifetime rule, in
// bytes: the tensor it defines, the ones it frees, and the workspace it holds
// only while it runs.
type effect struct {
	def  int64 // g_{i−1}, which δO_i defines for i > 1
	act  int64 // a_{i−1}, which δW_i frees
	grad int64 // g_i, which the second of δO_i and δW_i to run frees
	work int64 // δW_i's workspace
}

// effect returns what op, which must be able to run next, does.
func (w *Walker) effect(op Op) (e effect) {
	i := op.Layer
	l := &w.layers[i-1]
	if op.Kind == WeightGrad {
		e.act, e.work = l.ActBytes, l.WorkBytes
	} else if i > 1 {
		e.def = w.layers[i-2].OutBytes
	}
	if w.done[i]&((ranDO|ranDW)^uint8(op.Kind)) != 0 { // the other of δO_i, δW_i ran
		e.grad = l.OutBytes
	}
	return e
}

// materialise makes a_{i−1} resident on a checkpointed walk before op, δW_i,
// reads it, re-forwarding as the Walker's doc states. It does nothing for
// any other op, or for one that may not run next.
func (w *Walker) materialise(op Op) {
	i, done := op.Layer, w.done
	if op.Kind != WeightGrad || !ready(done, op) || done[i]&resident != 0 {
		return
	}
	c := i
	for c > 1 && done[c]&(resident|ranDW) != resident {
		c--
	}
	w.refwd += i - c
	for j := c; j < i; j++ {
		w.refwdTime += w.layers[j-1].Fwd
		if done[j+1]&ranDW == 0 { // a_j, the input of layer j+1, is still needed
			done[j+1] |= resident
			w.live += w.layers[j].ActBytes
		}
	}
}
