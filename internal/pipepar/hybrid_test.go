package pipepar

import (
	"strings"
	"testing"

	"oooback/internal/core"
	"oooback/internal/models"
	"oooback/internal/netsim"
)

func hybridCfg(m *models.Model, ff bool, k, replicas int) Config {
	return Config{
		GPUs: 4, MicroBatches: 4,
		Alloc:       core.ModuloAllocation(len(m.Layers), 4, 1),
		FastForward: ff, ReverseK: k,
		Schedule: GPipe, Link: netsim.NVLink(),
		Replicas: replicas, SyncLink: netsim.Ethernet10G(),
		Iterations: 5,
	}
}

func TestHybridSingleReplicaMatchesPlain(t *testing.T) {
	// Replicas=1 must behave exactly like a plain pipeline (no syncs).
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	plain := Run(m, Config{
		GPUs: 4, MicroBatches: 4, Alloc: core.ModuloAllocation(len(m.Layers), 4, 1),
		FastForward: true, Schedule: GPipe, Link: netsim.NVLink(), Iterations: 5,
	})
	hybrid := Run(m, hybridCfg(m, true, 0, 1))
	if plain.Period != hybrid.Period {
		t.Fatalf("replicas=1 period %v differs from plain %v", hybrid.Period, plain.Period)
	}
}

func TestHybridSyncSlowsIteration(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	solo := Run(m, hybridCfg(m, true, 0, 1))
	replicated := Run(m, hybridCfg(m, true, 0, 4))
	// Per-replica period must grow (sync stalls), but global throughput
	// must still beat a single replica.
	if replicated.Period <= solo.Period {
		t.Fatalf("sync-gated period %v not above solo %v", replicated.Period, solo.Period)
	}
	if replicated.Throughput <= solo.Throughput {
		t.Fatalf("4 replicas (%v) not above 1 (%v)", replicated.Throughput, solo.Throughput)
	}
}

// TestSection6CombinedScheduling is the §6 claim: under cross-replica
// synchronization, pure fast-forwarding delays all syncs (it can lose to
// conventional), and combining it with reverse first-k recovers and beats
// both.
func TestSection6CombinedScheduling(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	conv := Run(m, hybridCfg(m, false, 0, 4))
	ff := Run(m, hybridCfg(m, true, 0, 4))
	best := 0.0
	for _, k := range []int{4, 8, 13} {
		if r := Run(m, hybridCfg(m, true, k, 4)); r.Throughput > best {
			best = r.Throughput
		}
	}
	if best <= conv.Throughput {
		t.Fatalf("combined schedule (%v) not above conventional (%v)", best, conv.Throughput)
	}
	if best <= ff.Throughput {
		t.Fatalf("combined schedule (%v) not above ff-only (%v)", best, ff.Throughput)
	}
}

func TestHybridDeterministic(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	a := Run(m, hybridCfg(m, true, 8, 4))
	b := Run(m, hybridCfg(m, true, 8, 4))
	if a.Period != b.Period {
		t.Fatalf("non-deterministic hybrid: %v vs %v", a.Period, b.Period)
	}
}

func TestDAPPLEMatchesGPipeThroughputClass(t *testing.T) {
	// DAPPLE (synchronous 1F1B) should be within a few percent of GPipe —
	// its benefit is activation memory, not steady throughput.
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 512), 8)
	mk := func(s Schedule) Result {
		return Run(m, Config{
			GPUs: 8, MicroBatches: 8, Alloc: BalancedContiguous(m, 8),
			Schedule: s, Link: netsim.NVLink(), Iterations: 4,
		})
	}
	gp := mk(GPipe)
	dp := mk(DAPPLE)
	ratio := dp.Throughput / gp.Throughput
	if ratio < 0.9 || ratio > 1.2 {
		t.Fatalf("DAPPLE/GPipe = %.2f, want ≈ 1", ratio)
	}
}

func TestBidirectionalBeatsPlainGPipe(t *testing.T) {
	// Chimera-style dual pipelines interleave the fill/drain bubbles of the
	// two directions, beating single-direction GPipe at M = n.
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 512), 8)
	mk := func(bidi bool) Result {
		return Run(m, Config{
			GPUs: 8, MicroBatches: 8, Alloc: BalancedContiguous(m, 8),
			Schedule: GPipe, Bidirectional: bidi, Link: netsim.NVLink(),
			Iterations: 3,
		})
	}
	plain := mk(false)
	bidi := mk(true)
	if bidi.Throughput <= plain.Throughput {
		t.Fatalf("bidirectional (%v) not above GPipe (%v)", bidi.Throughput, plain.Throughput)
	}
}

// TestPipelineMemoryOverhead reproduces the §8.4.1 memory finding:
// fast-forwarding raises per-GPU activation residency over GPipe (the paper
// measured +11% for BERT on 4 GPUs), and modulo allocation pulls it back
// toward the baseline.
func TestPipelineMemoryOverhead(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	mk := func(ff, modulo bool) Result {
		alloc := BalancedContiguous(m, 4)
		if modulo {
			alloc = core.ModuloAllocation(len(m.Layers), 4, 1)
		}
		return Run(m, Config{
			GPUs: 4, MicroBatches: 4, Alloc: alloc, FastForward: ff,
			Schedule: GPipe, Link: netsim.NVLink(),
		})
	}
	gpipe := mk(false, false)
	ff := mk(true, false)
	modulo := mk(true, true)
	if ff.PeakActBytes <= gpipe.PeakActBytes {
		t.Fatalf("fast-forwarding did not raise activation residency: %d vs %d",
			ff.PeakActBytes, gpipe.PeakActBytes)
	}
	overhead := float64(ff.PeakActBytes)/float64(gpipe.PeakActBytes) - 1
	if overhead > 0.6 {
		t.Fatalf("fast-forwarding overhead %.0f%% implausibly large", 100*overhead)
	}
	if modulo.PeakActBytes >= ff.PeakActBytes {
		t.Fatalf("modulo did not reduce the fast-forwarding residency: %d vs %d",
			modulo.PeakActBytes, ff.PeakActBytes)
	}
}

// TestRecomputeCompatibility is the §6 pipeline claim: re-materialization
// slows training (extra forward work) but the ooo gains survive, and the
// activation residency drops because GPipe-style recompute discards stored
// activations (modelled here as the compute charge; the residency win shows
// in the faster drain of retained gradients... we assert the throughput
// relations).
func TestRecomputeCompatibility(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	mk := func(ff, modulo, recompute bool) Result {
		alloc := BalancedContiguous(m, 4)
		if modulo {
			alloc = core.ModuloAllocation(len(m.Layers), 4, 1)
		}
		return Run(m, Config{
			GPUs: 4, MicroBatches: 4, Alloc: alloc, FastForward: ff,
			Recompute: recompute, Schedule: GPipe, Link: netsim.NVLink(),
		})
	}
	gpPlain := mk(false, false, false)
	gpRe := mk(false, false, true)
	oooRe := mk(true, true, true)
	if gpRe.Throughput >= gpPlain.Throughput {
		t.Fatalf("recompute should cost throughput: %v vs %v", gpRe.Throughput, gpPlain.Throughput)
	}
	s := oooRe.Throughput / gpRe.Throughput
	if s < 1.2 {
		t.Fatalf("ooo gain under recompute = %.2f, want ≥ 1.2", s)
	}
}

func TestHybridTracesSyncLanes(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	r := Run(m, hybridCfg(m, true, 8, 4))
	var syncBusy bool
	for _, lane := range r.Trace.Lanes() {
		if strings.HasPrefix(lane, "SYNC") && r.Trace.BusyTime(lane) > 0 {
			syncBusy = true
		}
	}
	if !syncBusy {
		t.Fatal("no sync lane recorded for the hybrid run")
	}
}
