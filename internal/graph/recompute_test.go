package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oooback/internal/models"
)

func TestRecomputeEveryOneMatchesPlainProfile(t *testing.T) {
	m := testModel(8)
	s := Conventional(8)
	plain := MemoryProfile(m, s)
	rc := MemoryProfileRecompute(m, s, 1)
	if rc.RecomputeTime != 0 || rc.Recomputed != 0 {
		t.Fatalf("every=1 recomputed %d acts (%v)", rc.Recomputed, rc.RecomputeTime)
	}
	for i := range plain {
		if plain[i] != rc.Profile[i] {
			t.Fatalf("profile diverges at %d: %d vs %d", i, plain[i], rc.Profile[i])
		}
	}
}

func TestRecomputeLowersPeak(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 16, 1024, 64)
	s := Conventional(16)
	plain := PeakMemory(m, s)
	rc := MemoryProfileRecompute(m, s, 4)
	if rc.Peak() >= plain {
		t.Fatalf("checkpointing did not lower peak: %d vs %d", rc.Peak(), plain)
	}
	if rc.RecomputeTime <= 0 {
		t.Fatal("no recompute time charged")
	}
}

func TestRecomputeTimeGrowsWithSparserCheckpoints(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 16, 1024, 64)
	s := Conventional(16)
	r2 := MemoryProfileRecompute(m, s, 2)
	r8 := MemoryProfileRecompute(m, s, 8)
	if r8.RecomputeTime <= r2.RecomputeTime {
		t.Fatalf("sparser checkpoints should recompute more: every=2 %v, every=8 %v",
			r2.RecomputeTime, r8.RecomputeTime)
	}
	// The classic √L trade-off: the intermediate interval minimizes memory
	// (checkpoints + one segment), while both extremes cost more.
	r4 := MemoryProfileRecompute(m, s, 4)
	if r4.Peak() >= PeakMemory(m, s) {
		t.Fatalf("every=4 peak %d not below the no-checkpoint peak %d", r4.Peak(), PeakMemory(m, s))
	}
}

// TestSection6ReverseKUnderRecompute checks the §6 claim: reverse first-k can
// be combined with re-computation because the deferred δW of the first k
// layers runs when most checkpointed segments are already freed — the peak
// under reverse-k stays close to the conventional checkpointed peak, far
// below the no-checkpoint peak.
func TestSection6ReverseKUnderRecompute(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 16, 1024, 64)
	L := 16
	noCkpt := PeakMemory(m, Conventional(L))
	convCkpt := MemoryProfileRecompute(m, Conventional(L), 4).Peak()
	revCkpt := MemoryProfileRecompute(m, ReverseFirstK(L, 5), 4).Peak()
	if revCkpt >= noCkpt {
		t.Fatalf("reverse-k + checkpointing (%d) should stay below no-checkpoint peak (%d)", revCkpt, noCkpt)
	}
	// Deferral retains the first segment's activations — some overhead over
	// conventional checkpointing is expected, but bounded.
	if float64(revCkpt) > 1.5*float64(convCkpt) {
		t.Fatalf("reverse-k raised the checkpointed peak too much: %d vs %d", revCkpt, convCkpt)
	}
}

func TestRecomputeFastForwardStillValid(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 12, 512, 32)
	var s BackwardSchedule
	for i := 12; i >= 1; i-- {
		s = append(s, Op{OutGrad, i})
	}
	for i := 12; i >= 1; i-- {
		s = append(s, Op{WeightGrad, i})
	}
	rc := MemoryProfileRecompute(m, s, 3)
	for _, v := range rc.Profile {
		if v < 0 {
			t.Fatalf("negative live memory %d", v)
		}
	}
}

// Property: under any legal schedule and any checkpoint interval, the profile
// is non-negative and ends at zero, and recompute count is bounded by L.
func TestRecomputeInvariantProperty(t *testing.T) {
	m := testModel(6)
	f := func(seed int64, everyRaw uint8) bool {
		every := int(everyRaw%6) + 1
		s := randomLegalSchedule(6, randSource(seed), false)
		rc := MemoryProfileRecompute(m, s, every)
		for _, v := range rc.Profile {
			if v < 0 {
				return false
			}
		}
		return rc.Profile[len(rc.Profile)-1] == 0 && rc.Recomputed <= 6*6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
