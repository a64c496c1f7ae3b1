package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oooback/internal/models"
)

// refValidate is the map-based Validate the dense tables replaced.
func refValidate(s BackwardSchedule, L int) error {
	if len(s) != 2*L {
		return fmt.Errorf("graph: schedule has %d ops, want %d", len(s), 2*L)
	}
	doneDO := make([]bool, L+2)
	doneDO[L+1] = true
	seen := make(map[Op]bool, 2*L)
	for pos, op := range s {
		if op.Layer < 1 || op.Layer > L {
			return fmt.Errorf("graph: op %v at %d: layer out of range 1..%d", op, pos, L)
		}
		if op.Kind != OutGrad && op.Kind != WeightGrad {
			return fmt.Errorf("graph: op %v at %d: backward schedules hold only dO/dW", op, pos)
		}
		if seen[op] {
			return fmt.Errorf("graph: op %v duplicated at %d", op, pos)
		}
		seen[op] = true
		if !doneDO[op.Layer+1] {
			return fmt.Errorf("graph: op %v at %d runs before dO%d", op, pos, op.Layer+1)
		}
		if op.Kind == OutGrad {
			doneDO[op.Layer] = true
		}
	}
	return nil
}

// refTraceAllocs is the map-based TraceAllocs the AllocTracer replaced.
func refTraceAllocs(m *models.Model, s BackwardSchedule) AllocTrace {
	L := len(m.Layers)
	if err := refValidate(s, L); err != nil {
		panic(fmt.Sprintf("graph: %v", err))
	}
	layer := func(i int) models.Layer { return m.Layers[i-1] }
	wsID := 2*L + 1

	tr := AllocTrace{OpEnd: make([]int, len(s))}
	allocated := make(map[int]bool)
	alloc := func(id int, bytes int64) {
		if bytes <= 0 {
			return
		}
		tr.Events = append(tr.Events, AllocEvent{ID: id, Bytes: bytes})
		allocated[id] = true
	}
	free := func(id int) {
		if !allocated[id] {
			return
		}
		tr.Events = append(tr.Events, AllocEvent{ID: id, Free: true})
		delete(allocated, id)
	}
	for i := 1; i <= L; i++ {
		alloc(i, layer(i).ActBytes)
	}
	alloc(L+L, layer(L).OutBytes)
	tr.Init = len(tr.Events)

	doneDO := make([]bool, L+1)
	doneDW := make([]bool, L+1)
	for p, op := range s {
		i := op.Layer
		switch op.Kind {
		case OutGrad:
			doneDO[i] = true
			if i > 1 {
				alloc(L+i-1, layer(i-1).OutBytes)
			}
			if doneDW[i] {
				free(L + i)
			}
		case WeightGrad:
			doneDW[i] = true
			alloc(wsID, layer(i).WorkBytes)
			free(i)
			if doneDO[i] {
				free(L + i)
			}
			free(wsID)
		}
		tr.OpEnd[p] = len(tr.Events)
	}
	return tr
}

// sameTrace compares traces, treating nil and empty slices alike.
func sameTrace(a, b AllocTrace) bool {
	return a.Init == b.Init &&
		(len(a.Events) == 0 && len(b.Events) == 0 || reflect.DeepEqual(a.Events, b.Events)) &&
		(len(a.OpEnd) == 0 && len(b.OpEnd) == 0 || reflect.DeepEqual(a.OpEnd, b.OpEnd))
}

// TestAllocTracerMatchesReference traces random models on ONE tracer, layer
// counts shrinking and growing from call to call, against the map-based
// reference and against a fresh one-shot TraceAllocs.
func TestAllocTracerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var tracer AllocTracer
	for trial := 0; trial < 300; trial++ {
		L := 1 + rng.Intn(1<<uint(1+rng.Intn(6)))
		m := randModel(rng, L)
		for _, s := range schedules(rng, L) {
			want := refTraceAllocs(m, s)
			if got := tracer.Trace(m, s); !sameTrace(got, want) {
				t.Fatalf("trial %d L=%d: warm tracer\n%+v\nreference\n%+v", trial, L, got, want)
			}
			if got := TraceAllocs(m, s); !sameTrace(got, want) {
				t.Fatalf("trial %d L=%d: one-shot trace differs from the reference", trial, L)
			}
		}
	}
}

// invalidSchedules returns one schedule per Validate failure for L layers.
func invalidSchedules(L int) map[string]BackwardSchedule {
	mutate := func(f func(s BackwardSchedule) BackwardSchedule) BackwardSchedule {
		return f(Conventional(L))
	}
	return map[string]BackwardSchedule{
		"short":      mutate(func(s BackwardSchedule) BackwardSchedule { return s[:len(s)-1] }),
		"layer-low":  mutate(func(s BackwardSchedule) BackwardSchedule { s[0].Layer = 0; return s }),
		"layer-high": mutate(func(s BackwardSchedule) BackwardSchedule { s[0].Layer = L + 1; return s }),
		"kind":       mutate(func(s BackwardSchedule) BackwardSchedule { s[1].Kind = Forward; return s }),
		"dup-dO":     mutate(func(s BackwardSchedule) BackwardSchedule { s[1] = s[0]; return s }),
		"dup-dW":     mutate(func(s BackwardSchedule) BackwardSchedule { s[2] = s[1]; return s }),
		"early-dO":   mutate(func(s BackwardSchedule) BackwardSchedule { s[0], s[2] = s[2], s[0]; return s }),
		"early-dW":   mutate(func(s BackwardSchedule) BackwardSchedule { s[0], s[3] = s[3], s[0]; return s }),
	}
}

// TestValidateMatchesReference: the dense Validate returns the reference's
// verdict, error text included, on valid and invalid schedules.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, L := range []int{2, 3, 9, 40} {
		cases := invalidSchedules(L)
		for i, s := range schedules(rng, L) {
			cases[fmt.Sprintf("valid-%d", i)] = s
		}
		for name, s := range cases {
			got, want := s.Validate(L), refValidate(s, L)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Errorf("L=%d %s: Validate = %v, reference = %v", L, name, got, want)
			}
			if (want == nil) != strings.HasPrefix(name, "valid-") {
				t.Errorf("L=%d %s: reference verdict %v", L, name, want)
			}
		}
	}
}

// TestWarmTracerPanicsOnInvalidSchedule: a tracer whose tables are already
// larger than the schedule still rejects every invalid schedule, and traces
// correctly afterwards.
func TestWarmTracerPanicsOnInvalidSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	big := randModel(rng, 48)
	var tracer AllocTracer
	tracer.Trace(big, ReverseFirstK(48, 20))

	const L = 6
	m := randModel(rng, L)
	good := ReverseFirstK(L, 3)
	want := refTraceAllocs(m, good)
	for name, s := range invalidSchedules(L) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			tracer.Trace(m, s)
		}()
		if got := tracer.Trace(m, good); !sameTrace(got, want) {
			t.Fatalf("after %s: trace differs from the reference", name)
		}
	}
}

func TestWarmTracerAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randModel(rng, 40)
	s := ReverseFirstK(40, 17)
	var tracer AllocTracer
	tracer.Trace(m, s)
	if n := testing.AllocsPerRun(20, func() { tracer.Trace(m, s) }); n != 0 {
		t.Fatalf("warm trace allocates %v times", n)
	}
}
