package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"oooback/internal/models"
)

func TestConventionalIsValid(t *testing.T) {
	for _, L := range []int{1, 2, 5, 50} {
		s := Conventional(L)
		if err := s.Validate(L); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		if len(s) != 2*L {
			t.Fatalf("L=%d: len=%d", L, len(s))
		}
	}
}

func TestConventionalOrder(t *testing.T) {
	s := Conventional(2)
	want := []Op{{OutGrad, 2}, {WeightGrad, 2}, {OutGrad, 1}, {WeightGrad, 1}}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s = %v, want %v", s, want)
		}
	}
}

func TestValidateRejectsPrematureOp(t *testing.T) {
	// δW_1 before δO_2 is illegal: the gradient has not reached layer 1.
	s := BackwardSchedule{{WeightGrad, 1}, {OutGrad, 2}, {WeightGrad, 2}, {OutGrad, 1}}
	if err := s.Validate(2); err == nil {
		t.Fatal("schedule with premature dW1 validated")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	s := BackwardSchedule{{OutGrad, 2}, {OutGrad, 2}, {WeightGrad, 2}, {OutGrad, 1}}
	if err := s.Validate(2); err == nil {
		t.Fatal("duplicate op validated")
	}
}

func TestValidateRejectsWrongLength(t *testing.T) {
	s := BackwardSchedule{{OutGrad, 1}}
	if err := s.Validate(2); err == nil {
		t.Fatal("short schedule validated")
	}
}

func TestValidateRejectsForeignKinds(t *testing.T) {
	s := BackwardSchedule{{Forward, 1}, {OutGrad, 1}}
	if err := s.Validate(1); err == nil {
		t.Fatal("schedule containing F validated")
	}
}

func TestDeferredDWIsValid(t *testing.T) {
	// All δO first, then all δW (gradient fast-forwarding order).
	L := 5
	var s BackwardSchedule
	for i := L; i >= 1; i-- {
		s = append(s, Op{OutGrad, i})
	}
	for i := L; i >= 1; i-- {
		s = append(s, Op{WeightGrad, i})
	}
	if err := s.Validate(L); err != nil {
		t.Fatal(err)
	}
}

func testModel(L int) *models.Model {
	return models.FFNN(models.V100Profile(), L, 512, 32)
}

func TestMemoryProfileConventionalDecreases(t *testing.T) {
	m := testModel(8)
	prof := MemoryProfile(m, Conventional(8))
	// Conventional backprop frees as it goes: the profile must end below its
	// start and be globally non-increasing at δW positions.
	if prof[len(prof)-1] >= prof[0] {
		t.Fatalf("profile did not decrease: first=%d last=%d", prof[0], prof[len(prof)-1])
	}
}

func TestDeferredDWUsesMoreMemory(t *testing.T) {
	L := 8
	m := testModel(L)
	conv := PeakMemory(m, Conventional(L))
	var ff BackwardSchedule
	for i := L; i >= 1; i-- {
		ff = append(ff, Op{OutGrad, i})
	}
	for i := L; i >= 1; i-- {
		ff = append(ff, Op{WeightGrad, i})
	}
	def := PeakMemory(m, ff)
	if def <= conv {
		t.Fatalf("deferring all dW should raise peak: conv=%d deferred=%d", conv, def)
	}
}

func TestMemoryNeverNegative(t *testing.T) {
	L := 8
	m := testModel(L)
	for _, s := range []BackwardSchedule{Conventional(L)} {
		for _, v := range MemoryProfile(m, s) {
			if v < 0 {
				t.Fatalf("negative live memory %d", v)
			}
		}
	}
}

// randomLegalSchedule builds a random valid schedule by repeatedly picking a
// runnable op. When dOFirst is set, δW_i additionally waits for δO_i — the
// class of schedules the paper's algorithms emit (δW is deferred, never
// hoisted before its layer's δO).
func randomLegalSchedule(L int, rng *rand.Rand, dOFirst bool) BackwardSchedule {
	var s BackwardSchedule
	doneDO := make([]bool, L+2)
	doneDO[L+1] = true
	pending := map[Op]bool{}
	for i := 1; i <= L; i++ {
		pending[Op{OutGrad, i}] = true
		pending[Op{WeightGrad, i}] = true
	}
	for len(pending) > 0 {
		var runnable []Op
		for op := range pending {
			if !doneDO[op.Layer+1] {
				continue
			}
			if dOFirst && op.Kind == WeightGrad && !doneDO[op.Layer] {
				continue
			}
			runnable = append(runnable, op)
		}
		// Deterministic order before sampling (map iteration is random).
		for i := 1; i < len(runnable); i++ {
			for j := i; j > 0; j-- {
				a, b := runnable[j-1], runnable[j]
				if a.Layer > b.Layer || (a.Layer == b.Layer && a.Kind > b.Kind) {
					runnable[j-1], runnable[j] = b, a
				}
			}
		}
		op := runnable[rng.Intn(len(runnable))]
		delete(pending, op)
		if op.Kind == OutGrad {
			doneDO[op.Layer] = true
		}
		s = append(s, op)
	}
	return s
}

// Property: every randomly generated legal schedule validates, and its memory
// profile stays non-negative and ends at zero live gradient state plus the
// workspace-free baseline.
func TestRandomSchedulesValidateProperty(t *testing.T) {
	m := testModel(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomLegalSchedule(6, rng, false)
		if err := s.Validate(6); err != nil {
			return false
		}
		prof := MemoryProfile(m, s)
		for _, v := range prof {
			if v < 0 {
				return false
			}
		}
		// After the full backward pass every activation and gradient is freed.
		return prof[len(prof)-1] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: among schedules that never hoist δW_i before δO_i (the class the
// paper's algorithms emit — δW is only ever *deferred*), conventional order
// has the minimum peak: it frees every tensor at the earliest legal point.
func TestConventionalPeakIsMinimalProperty(t *testing.T) {
	m := testModel(6)
	convPeak := PeakMemory(m, Conventional(6))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomLegalSchedule(6, rng, true)
		return PeakMemory(m, s) >= convPeak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if got := (Op{WeightGrad, 3}).String(); got != "dW3" {
		t.Fatalf("String = %q, want dW3", got)
	}
	if got := (Op{SyncW, 1}).String(); got != "S[dW]1" {
		t.Fatalf("String = %q", got)
	}
}

func TestDOTStructure(t *testing.T) {
	out := DOT(3, true)
	// Every op node present.
	for _, want := range []string{"dO3", "dW3", "U3", "F3", "S[dW3]", "dO1", "loss"} {
		if !strings.Contains(out, "\""+want+"\"") {
			t.Fatalf("dot missing node %q:\n%s", want, out)
		}
	}
	// The decoupling edge: dO2 feeds both dO1 and dW1.
	for _, want := range []string{`"dO2" -> "dO1"`, `"dO2" -> "dW1"`, `"dW1" -> "S[dW1]"`, `"F1" -> "F2"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot missing edge %q:\n%s", want, out)
		}
	}
	// Balanced braces and deterministic output.
	if !strings.HasPrefix(out, "digraph") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("malformed dot:\n%s", out)
	}
	if DOT(3, true) != out {
		t.Fatal("DOT not deterministic")
	}
	// Without sync, dW feeds U directly.
	plain := DOT(2, false)
	if strings.Contains(plain, "S[dW") {
		t.Fatal("sync nodes present without withSync")
	}
	if !strings.Contains(plain, `"dW1" -> "U1"`) {
		t.Fatal("missing direct dW→U edge")
	}
}
