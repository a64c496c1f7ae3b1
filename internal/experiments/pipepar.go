package experiments

import (
	"fmt"
	"strings"

	"oooback/internal/core"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/pipepar"
	"oooback/internal/stats"
)

func init() {
	register("fig5", "cross-layer model parallelism timelines: conventional / fast-forwarding / modulo (Fig 5)", Fig5)
	register("fig6", "pipeline with micro-batches timelines (Fig 6)", Fig6)
	register("fig11a", "fine-tuning on 4×V100: RNN, BERT-24, FFNN (Fig 11a)", Fig11a)
	register("fig11b", "BERT-24 across NVLink / PCIe / 10GbE interconnects (Fig 11b)", Fig11b)
	register("fig12", "FFNN-8 pipeline timelines: GPipe / OOO-Pipe1 / OOO-Pipe2 (Fig 12)", Fig12)
	register("fig13a", "weak scaling of pre-training: GPipe / PipeDream / OOO-Pipe2 (Fig 13a)", Fig13a)
	register("fig13b", "strong scaling of pre-training: BERT-24/48, GPT-3 Medium (Fig 13b)", Fig13b)
}

// pipeRun executes one pipeline configuration.
func pipeRun(m *models.Model, gpus, micro int, ff, modulo bool, sched pipepar.Schedule,
	versions, group int, link netsim.LinkSpec) pipepar.Result {
	alloc := pipepar.BalancedContiguous(m, gpus)
	if modulo {
		alloc = core.ModuloAllocation(len(m.Layers), gpus, group)
	}
	return pipepar.Run(m, pipepar.Config{
		GPUs: gpus, MicroBatches: micro, Alloc: alloc, FastForward: ff,
		Schedule: sched, MaxVersions: versions, Link: link, Iterations: 4,
	})
}

// renderPipe runs a config and renders the last-iteration timeline.
func renderPipe(title string, m *models.Model, gpus, micro int, ff, modulo bool) string {
	r := pipeRun(m, gpus, micro, ff, modulo, pipepar.GPipe, 1, 1, netsim.NVLink())
	return fmt.Sprintf("(%s) period=%v util=%.2f\n%s\n", title, r.Period, r.MeanUtil,
		r.Trace.Shifted().Render(100))
}

// Fig5 renders the cross-layer model-parallel executions of Figure 5
// (8-layer FFNN on 2 GPUs, no micro-batching).
func Fig5() string {
	m := models.FFNN(models.V100Profile(), 8, 4096, 1024)
	var b strings.Builder
	b.WriteString(renderPipe("a: conventional cross-layer MP", m, 2, 1, false, false))
	b.WriteString(renderPipe("b: gradient fast-forwarding", m, 2, 1, true, false))
	b.WriteString(renderPipe("c: fast-forwarding + modulo allocation", m, 2, 1, true, true))
	return b.String()
}

// Fig6 renders the micro-batched pipeline executions of Figure 6
// (8-layer FFNN on 2 GPUs, 2 micro-batches).
func Fig6() string {
	m := models.FFNN(models.V100Profile(), 8, 4096, 1024)
	var b strings.Builder
	b.WriteString(renderPipe("a: GPipe", m, 2, 2, false, false))
	b.WriteString(renderPipe("b: OOO-Pipe1 (fast-forwarding)", m, 2, 2, true, false))
	b.WriteString(renderPipe("c: OOO-Pipe2 (+ modulo allocation)", m, 2, 2, true, true))
	return b.String()
}

// Fig12 is Fig 6 rendered for the §8.4.1 analysis (same workload; the paper
// reuses the 8-layer FFNN).
func Fig12() string { return Fig6() }

// Fig11a reports fine-tuning throughput of RNN, BERT-24 and FFNN-16 on
// 4×V100 under MP / GPipe / OOO-Pipe1 / OOO-Pipe2 / PipeDream, normalized to
// single-GPU training.
func Fig11a() string {
	p := models.V100Profile()
	type cse struct {
		name  string
		m     *models.Model
		micro int // micro-batches for pipelined settings (RNN trains without)
	}
	cases := []cse{
		// The RNN's baselines use micro-batches (hurting them, §8.4.1); the
		// paper applies its own optimizations without micro-batches.
		{"RNN-16", models.RNN(p, 16, 1024, 32, 1024), 4},
		{"BERT-24", models.VocabParallelHead(models.BERT(p, 24, 128, 96), 4), 4},
		{"FFNN-16", models.FFNN(p, 16, 4096, 1024), 4},
	}
	t := stats.NewTable("model", "setting", "seq/s", "vs 1 GPU", "vs GPipe")
	for _, c := range cases {
		oooMicro := c.micro
		if strings.HasPrefix(c.name, "RNN") {
			oooMicro = 1
		}
		single := pipeRun(c.m, 1, 1, false, false, pipepar.GPipe, 1, 1, netsim.NVLink())
		mp := pipeRun(c.m, 4, 1, false, false, pipepar.GPipe, 1, 1, netsim.NVLink())
		gp := pipeRun(c.m, 4, c.micro, false, false, pipepar.GPipe, 1, 1, netsim.NVLink())
		p1 := pipeRun(c.m, 4, oooMicro, true, false, pipepar.GPipe, 1, 1, netsim.NVLink())
		p2 := pipeRun(c.m, 4, oooMicro, true, true, pipepar.GPipe, 1, 1, netsim.NVLink())
		// Fine-tuning memory limits PipeDream to two weight versions.
		pd := pipeRun(c.m, 4, c.micro, false, false, pipepar.PipeDream, 2, 1, netsim.NVLink())
		for _, row := range []struct {
			name string
			r    pipepar.Result
		}{{"model-parallel", mp}, {"GPipe", gp}, {"OOO-Pipe1", p1}, {"OOO-Pipe2", p2}, {"PipeDream", pd}} {
			t.Add(c.name, row.name, fmt.Sprintf("%.0f", row.r.Throughput),
				row.r.Throughput/single.Throughput, row.r.Throughput/gp.Throughput)
		}
	}
	return t.String()
}

// Fig11b trains BERT-24 on 4×V100 across three interconnects, comparing
// GPipe, PipeDream and OOO-Pipe2 (with the §8.4.1 grouping fix on Ethernet).
func Fig11b() string {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	links := []struct {
		name  string
		spec  netsim.LinkSpec
		group int // modulo granularity: 2 transformers on slow Ethernet
	}{
		{"NVLink", netsim.NVLink(), 1},
		{"PCIe", netsim.PCIe3x16(), 1},
		{"10GbE", netsim.Ethernet10G(), 2},
	}
	t := stats.NewTable("interconnect", "GPipe", "PipeDream", "OOO-Pipe2", "OOO/GPipe", "fine-grained OOO")
	for _, l := range links {
		gp := pipeRun(m, 4, 4, false, false, pipepar.GPipe, 1, 1, l.spec)
		pd := pipeRun(m, 4, 4, false, false, pipepar.PipeDream, 4, 1, l.spec)
		p2 := pipeRun(m, 4, 4, true, true, pipepar.GPipe, 1, l.group, l.spec)
		fine := pipeRun(m, 4, 4, true, true, pipepar.GPipe, 1, 1, l.spec)
		t.Add(l.name, fmt.Sprintf("%.0f", gp.Throughput), fmt.Sprintf("%.0f", pd.Throughput),
			fmt.Sprintf("%.0f", p2.Throughput), p2.Throughput/gp.Throughput,
			fmt.Sprintf("%.0f", fine.Throughput))
	}
	return t.String()
}

// Fig13a runs the weak-scaling pre-training sweep: 8 GPUs → BERT-12,
// 16 → BERT-24, 32 → BERT-48, with per-system best-effort batch sizes.
func Fig13a() string {
	p := models.V100Profile()
	cases := []struct {
		gpus, encoders, batch int
	}{{8, 12, 512}, {16, 24, 768}, {32, 48, 1024}}
	t := stats.NewTable("GPUs", "model", "GPipe", "PipeDream", "OOO-Pipe2", "OOO/GPipe", "OOO/PipeDream")
	for _, c := range cases {
		m := models.VocabParallelHead(models.BERT(p, c.encoders, 128, c.batch), c.gpus)
		gp := pipeRun(m, c.gpus, c.gpus, false, false, pipepar.GPipe, 1, 1, netsim.NVLink())
		pd := pipeRun(m, c.gpus, c.gpus, false, false, pipepar.PipeDream, 8, 1, netsim.NVLink())
		p2 := pipeRun(m, c.gpus, c.gpus, true, true, pipepar.GPipe, 1, 1, netsim.NVLink())
		t.Add(c.gpus, fmt.Sprintf("BERT-%d", c.encoders),
			fmt.Sprintf("%.0f", gp.Throughput), fmt.Sprintf("%.0f", pd.Throughput),
			fmt.Sprintf("%.0f", p2.Throughput),
			p2.Throughput/gp.Throughput, p2.Throughput/pd.Throughput)
	}
	return t.String()
}

// Fig13b runs the strong-scaling sweep of OOO-Pipe2: BERT-24/48 on 8–32
// GPUs, GPT-3 Medium on 12–36 GPUs (4 of which serve the vocab-parallel
// embedding/head, per §8.4.2).
func Fig13b() string {
	p := models.V100Profile()
	t := stats.NewTable("model", "GPUs", "OOO-Pipe2 (seq/s)", "scaling vs 8")
	// The micro-batch count is fixed across the sweep (strong scaling keeps
	// the global batch and its partitioning constant).
	const microBatches = 32
	for _, enc := range []int{24, 48} {
		base := 0.0
		for _, gpus := range []int{8, 16, 24, 32} {
			m := models.VocabParallelHead(models.BERT(p, enc, 128, 1024), gpus)
			r := pipeRun(m, gpus, microBatches, true, true, pipepar.GPipe, 1, 1, netsim.NVLink())
			if base == 0 {
				base = r.Throughput
			}
			t.Add(fmt.Sprintf("BERT-%d", enc), gpus, fmt.Sprintf("%.0f", r.Throughput), r.Throughput/base)
		}
	}
	base := 0.0
	for _, gpus := range []int{12, 24, 36} {
		pipeGPUs := gpus - 4 // 4 GPUs are dedicated to the embedding/head
		m := models.VocabParallelHead(models.GPT3Medium(p, 512, 96), 4)
		r := pipeRun(m, pipeGPUs, 24, true, true, pipepar.GPipe, 1, 1, netsim.NVLink())
		if base == 0 {
			base = r.Throughput
		}
		t.Add("GPT-3 Medium", gpus, fmt.Sprintf("%.0f", r.Throughput), r.Throughput/base)
	}
	return t.String()
}
