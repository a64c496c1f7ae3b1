package pipepar

import (
	"testing"
	"time"

	"oooback/internal/core"
	"oooback/internal/models"
	"oooback/internal/netsim"
)

func ffnn(layers int) *models.Model {
	return models.FFNN(models.V100Profile(), layers, 4096, 1024)
}

func cfgMP(m *models.Model, gpus, micro int, ff bool, modulo bool) Config {
	L := len(m.Layers)
	alloc := BalancedContiguous(m, gpus)
	if modulo {
		alloc = core.ModuloAllocation(L, gpus, 1)
	}
	_ = L
	return Config{
		GPUs: gpus, MicroBatches: micro, Alloc: alloc,
		FastForward: ff, Schedule: GPipe, Link: netsim.NVLink(),
	}
}

// TestFig5CrossLayerMP reproduces Figure 5's ordering on an 8-layer FFNN
// with 2 GPUs and no micro-batching: conventional MP < fast-forwarding <
// fast-forwarding + modulo allocation.
func TestFig5CrossLayerMP(t *testing.T) {
	m := ffnn(8)
	conv := Run(m, cfgMP(m, 2, 1, false, false))
	ff := Run(m, cfgMP(m, 2, 1, true, false))
	mod := Run(m, cfgMP(m, 2, 1, true, true))
	if !(ff.Throughput > conv.Throughput) {
		t.Fatalf("fast-forwarding (%v) not above conventional (%v)", ff.Throughput, conv.Throughput)
	}
	if !(mod.Throughput > ff.Throughput) {
		t.Fatalf("modulo (%v) not above fast-forwarding (%v)", mod.Throughput, ff.Throughput)
	}
	// Paper: (b) is 21% over (a); (c) is 1.44× over (a).
	s := mod.Throughput / conv.Throughput
	if s < 1.2 || s > 1.9 {
		t.Errorf("modulo+ff speedup %.2f, want ≈ 1.44", s)
	}
}

// TestFig6Pipeline reproduces Figure 6 / 12: with micro-batches, GPipe <
// OOO-Pipe1 < OOO-Pipe2.
func TestFig6Pipeline(t *testing.T) {
	m := ffnn(8)
	gpipe := Run(m, cfgMP(m, 2, 2, false, false))
	pipe1 := Run(m, cfgMP(m, 2, 2, true, false))
	pipe2 := Run(m, cfgMP(m, 2, 2, true, true))
	if !(pipe1.Throughput > gpipe.Throughput) {
		t.Fatalf("OOO-Pipe1 (%v) not above GPipe (%v)", pipe1.Throughput, gpipe.Throughput)
	}
	if !(pipe2.Throughput > pipe1.Throughput) {
		t.Fatalf("OOO-Pipe2 (%v) not above OOO-Pipe1 (%v)", pipe2.Throughput, pipe1.Throughput)
	}
}

// TestFFNN16On4GPUs checks the §8.4.1 FFNN numbers: fast-forwarding ≈ 1.2×
// over GPipe and + modulo ≈ 1.5–1.6×.
func TestFFNN16On4GPUs(t *testing.T) {
	m := ffnn(16)
	gpipe := Run(m, cfgMP(m, 4, 4, false, false))
	pipe1 := Run(m, cfgMP(m, 4, 4, true, false))
	pipe2 := Run(m, cfgMP(m, 4, 4, true, true))
	s1 := pipe1.Throughput / gpipe.Throughput
	s2 := pipe2.Throughput / gpipe.Throughput
	if s1 < 1.05 || s1 > 1.45 {
		t.Errorf("OOO-Pipe1/GPipe = %.2f, want ≈ 1.2", s1)
	}
	if s2 < 1.3 || s2 > 1.9 {
		t.Errorf("OOO-Pipe2/GPipe = %.2f, want ≈ 1.5", s2)
	}
	if s2 <= s1 {
		t.Errorf("modulo must add on top of fast-forwarding: %.2f vs %.2f", s2, s1)
	}
}

func TestGPipeUtilizationBelowOOO(t *testing.T) {
	m := ffnn(16)
	gpipe := Run(m, cfgMP(m, 4, 4, false, false))
	pipe2 := Run(m, cfgMP(m, 4, 4, true, true))
	if pipe2.MeanUtil <= gpipe.MeanUtil {
		t.Fatalf("OOO-Pipe2 util %.2f not above GPipe %.2f", pipe2.MeanUtil, gpipe.MeanUtil)
	}
}

func TestPipeDreamBetweenGPipeAndOOO(t *testing.T) {
	// Fig 13a: OOO-Pipe2 > PipeDream > GPipe for BERT-style stacks.
	// The output projection is vocab-parallel (it would otherwise bottleneck
	// one stage for every system alike).
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 12, 128, 512), 8)
	L := len(m.Layers)
	mk := func(sched Schedule, ff, modulo bool, versions int) Result {
		alloc := BalancedContiguous(m, 8)
		if modulo {
			alloc = core.ModuloAllocation(L, 8, 1)
		}
		return Run(m, Config{
			GPUs: 8, MicroBatches: 8, Alloc: alloc, FastForward: ff,
			Schedule: sched, MaxVersions: versions, Link: netsim.NVLink(),
			Iterations: 4,
		})
	}
	gpipe := mk(GPipe, false, false, 1)
	pd := mk(PipeDream, false, false, 4)
	ooo := mk(GPipe, true, true, 1)
	if !(pd.Throughput > gpipe.Throughput) {
		t.Fatalf("PipeDream (%v) not above GPipe (%v)", pd.Throughput, gpipe.Throughput)
	}
	if !(ooo.Throughput > pd.Throughput) {
		t.Fatalf("OOO-Pipe2 (%v) not above PipeDream (%v)", ooo.Throughput, pd.Throughput)
	}
	if pd.Versions <= 1 {
		t.Fatal("PipeDream should report weight staleness > 1")
	}
}

// TestModuloGranularityOnEthernet reproduces §8.4.1's communication study:
// on 10 Gb Ethernet, per-layer modulo allocation collapses, and grouping two
// transformers per shard recovers the performance.
func TestModuloGranularityOnEthernet(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	L := len(m.Layers)
	mk := func(link netsim.LinkSpec, group int) Result {
		return Run(m, Config{
			GPUs: 4, MicroBatches: 4,
			Alloc:       core.ModuloAllocation(L, 4, group),
			FastForward: true, Schedule: GPipe, Link: link,
		})
	}
	nvFine := mk(netsim.NVLink(), 1)
	ethFine := mk(netsim.Ethernet10G(), 1)
	ethGrouped := mk(netsim.Ethernet10G(), 2)
	if !(nvFine.Throughput > ethFine.Throughput) {
		t.Fatalf("NVLink (%v) not above Ethernet (%v) at fine granularity", nvFine.Throughput, ethFine.Throughput)
	}
	if !(ethGrouped.Throughput > ethFine.Throughput) {
		t.Fatalf("grouping (%v) did not recover Ethernet performance (%v)", ethGrouped.Throughput, ethFine.Throughput)
	}
}

func TestRNNMicroBatchingHurts(t *testing.T) {
	// §8.4.1: for the RNN, micro-batching reduces performance; the paper
	// applies its optimizations without micro-batches.
	m := models.RNN(models.V100Profile(), 16, 1024, 32, 1024)
	noMicro := Run(m, cfgMP(m, 4, 1, false, false))
	micro := Run(m, cfgMP(m, 4, 4, false, false))
	if micro.Throughput >= noMicro.Throughput*1.2 {
		t.Fatalf("micro-batching helped the RNN too much: %v vs %v", micro.Throughput, noMicro.Throughput)
	}
}

func TestBERTFineTuning4GPUs(t *testing.T) {
	// Fig 11a BERT-24: OOO-Pipe1 ≈ 1.15× GPipe, OOO-Pipe2 ≈ 1.59× GPipe.
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	gpipe := Run(m, cfgMP(m, 4, 4, false, false))
	pipe1 := Run(m, cfgMP(m, 4, 4, true, false))
	pipe2 := Run(m, cfgMP(m, 4, 4, true, true))
	s1 := pipe1.Throughput / gpipe.Throughput
	s2 := pipe2.Throughput / gpipe.Throughput
	if s1 < 1.02 || s1 > 1.4 {
		t.Errorf("Pipe1/GPipe = %.2f, want ≈ 1.15", s1)
	}
	if s2 < 1.2 || s2 > 2.0 {
		t.Errorf("Pipe2/GPipe = %.2f, want ≈ 1.59", s2)
	}
}

func TestDeterministic(t *testing.T) {
	m := ffnn(16)
	a := Run(m, cfgMP(m, 4, 4, true, true))
	b := Run(m, cfgMP(m, 4, 4, true, true))
	if a.Period != b.Period {
		t.Fatalf("non-deterministic: %v vs %v", a.Period, b.Period)
	}
}

func TestSingleGPUDegenerate(t *testing.T) {
	m := ffnn(4)
	r := Run(m, Config{
		GPUs: 1, MicroBatches: 1, Alloc: make([]int, 4),
		Schedule: GPipe, Link: netsim.NVLink(),
	})
	// One GPU, no transfers: period ≈ pure compute + per-task overheads.
	var overhead time.Duration
	for _, l := range m.Layers {
		overhead += perTaskOverhead(l.FwdKernels) + perTaskOverhead(l.DOKernels) + perTaskOverhead(l.DWKernels)
	}
	want := m.IterTime() + overhead
	if r.Period != want {
		t.Fatalf("period = %v, want %v", r.Period, want)
	}
}

func TestMoreMicroBatchesReduceBubbles(t *testing.T) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 12, 128, 512), 4)
	L := len(m.Layers)
	mk := func(micro int) Result {
		return Run(m, Config{
			GPUs: 4, MicroBatches: micro, Alloc: BalancedContiguous(m, 4),
			Schedule: GPipe, Link: netsim.NVLink(),
		})
	}
	_ = L
	m1 := mk(1)
	m8 := mk(8)
	if m8.Throughput <= m1.Throughput {
		t.Fatalf("micro-batching should help transformers: M=1 %v vs M=8 %v", m1.Throughput, m8.Throughput)
	}
}
