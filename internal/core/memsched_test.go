package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"oooback/internal/graph"
	"oooback/internal/models"
)

func zooModels(t *testing.T) []*models.Model {
	t.Helper()
	out := make([]*models.Model, 0, 13)
	for _, e := range models.Zoo() {
		out = append(out, e.Build(models.V100Profile()))
	}
	return out
}

func TestMemScheduleLegalAndDeterministic(t *testing.T) {
	for _, m := range zooModels(t) {
		L := len(m.Layers)
		s := MemSchedule(m)
		if err := s.Validate(L); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if again := MemSchedule(m); !reflect.DeepEqual(s, again) {
			t.Fatalf("%s: MemSchedule not deterministic", m.Name)
		}
	}
}

// TestMemSchedulePeakBeatsReverseFirstK: the memory scheduler must never be
// worse than the best reverse-first-k schedule on peak bytes — k = 0 is the
// family's memory minimum (the peak is nondecreasing in k).
func TestMemSchedulePeakBeatsReverseFirstK(t *testing.T) {
	for _, m := range zooModels(t) {
		memPeak := graph.PeakMemory(m, MemSchedule(m))
		k0Peak := graph.PeakMemory(m, ReverseFirstK(m, 0, 0))
		convPeak := graph.PeakMemory(m, graph.Conventional(len(m.Layers)))
		if memPeak > k0Peak {
			t.Errorf("%s: MemSchedule peak %d above reverse-first-0's %d",
				m.Name, memPeak, k0Peak)
		}
		if memPeak > convPeak {
			t.Errorf("%s: MemSchedule peak %d above conventional's %d",
				m.Name, memPeak, convPeak)
		}
	}
}

// TestMemScheduleGolden pins the schedule itself: on ResNet-50 (as on every
// zoo model) the list scheduler lands on the reverse-first-0 order.
func TestMemScheduleGolden(t *testing.T) {
	m, err := models.BuildZoo("resnet50", models.V100Profile())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := MemSchedule(m), graph.ReverseFirstK(len(m.Layers), 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("resnet50 MemSchedule:\n%v\nwant\n%v", got, want)
	}
}

// TestMemScheduleRandomModels fuzzes the scheduler over random byte profiles:
// always legal, never above the conventional schedule's peak, and — where
// the zoo never leaves reverse-first-0 — the same schedules, op for op, as
// the digest recorded before the ready buffer was hoisted.
func TestMemScheduleRandomModels(t *testing.T) {
	const golden = "c6bbb068986564f85b29adbcd21a1368ca5344542d9c8f8ca399800b5f04b756"
	digest := sha256.New()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		L := 1 + rng.Intn(32)
		m := &models.Model{Name: "rand", Layers: make([]models.Layer, L)}
		for i := range m.Layers {
			m.Layers[i] = models.Layer{
				ActBytes:  int64(rng.Intn(1 << 22)),
				OutBytes:  int64(rng.Intn(1 << 22)),
				WorkBytes: int64(rng.Intn(1 << 20)),
			}
		}
		s := MemSchedule(m)
		if err := s.Validate(L); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		fmt.Fprintln(digest, s)
		memPeak := graph.PeakMemory(m, s)
		convPeak := graph.PeakMemory(m, graph.Conventional(L))
		if memPeak > convPeak {
			t.Errorf("L=%d: MemSchedule peak %d above conventional's %d",
				L, memPeak, convPeak)
		}
	}
	if got := fmt.Sprintf("%x", digest.Sum(nil)); got != golden {
		t.Fatalf("schedules digest %s, want %s", got, golden)
	}
}
