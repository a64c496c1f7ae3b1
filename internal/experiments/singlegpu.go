package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"oooback/internal/gpusim"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/singlegpu"
	"oooback/internal/stats"
)

func init() {
	register("fig1", "kernel issue overhead vs execution time per DenseNet-121 block (TF, V100)", Fig1)
	register("fig2", "issue/execution timeline of DenseNet-121 training under eager issue", Fig2)
	register("fig7", "single-GPU training throughput: XLA / +Opt1 / +Opt1+Opt2 / Nimble", Fig7)
	register("fig8", "two-stream schedule of DenseNet-121 under Algorithm 1 (regions R1–R5)", Fig8)
	register("fig9", "backward-pass memory profile: conventional vs multi-stream ooo", Fig9)
	register("mem-single", "§8.2 peak-memory overhead of OOO-XLA under the 1.1× constraint", MemSingle)
}

// Fig1 reports, per DenseNet block, the mean per-layer kernel issue time
// against the mean execution time under the eager TF executor — the Fig 1
// phenomenon (issue up to ~4× execution in the late blocks).
func Fig1() string {
	m := models.DenseNet(models.V100Profile(), 121, 32, 32, models.ImageNet)
	exec := singlegpu.TF()
	type agg struct {
		issue, run time.Duration
		n          int
	}
	byBlock := map[string]*agg{}
	var order []string
	for _, l := range m.Layers {
		a, ok := byBlock[l.Block]
		if !ok {
			a = &agg{}
			byBlock[l.Block] = a
			order = append(order, l.Block)
		}
		a.issue += singlegpu.IssueTime(l.FwdKernels, exec) + singlegpu.IssueTime(l.DOKernels, exec)
		a.run += l.Fwd + l.DO
		a.n++
	}
	t := stats.NewTable("block", "layers", "mean issue (µs)", "mean exec (µs)", "issue/exec")
	for _, b := range order {
		a := byBlock[b]
		iu := float64(a.issue.Microseconds()) / float64(a.n)
		ru := float64(a.run.Microseconds()) / float64(a.n)
		t.Add(b, a.n, iu, ru, iu/ru)
	}
	return t.String()
}

// Fig2 renders the eager-issue timeline of DenseNet-121: the issue lane stays
// saturated while the GPU starves between kernels in the small-kernel blocks.
func Fig2() string {
	m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
	r := singlegpu.Run(m, singlegpu.TF(), gpusim.V100())
	var b strings.Builder
	fmt.Fprintf(&b, "steady-state iteration=%v  GPU utilization=%.0f%% (the rest is issue-bound starvation)\n\n",
		r.IterTime, 100*r.Trace.Utilization("main"))
	b.WriteString(r.Trace.Render(110))
	return b.String()
}

// fig7Models returns the Fig 7 model/batch grid.
func fig7Models() []*models.Model {
	p := models.V100Profile()
	var out []*models.Model
	for _, batch := range []int{32, 64} {
		out = append(out,
			models.DenseNet(p, 121, 12, batch, models.CIFAR100),
			models.DenseNet(p, 121, 32, batch, models.CIFAR100),
			models.DenseNet(p, 169, 32, batch, models.CIFAR100),
			models.MobileNetV3Large(p, 0.25, batch, models.ImageNet),
			models.MobileNetV3Large(p, 1.0, batch, models.ImageNet),
			models.ResNet(p, 50, batch, models.ImageNet),
			models.ResNet(p, 101, batch, models.ImageNet),
		)
	}
	return out
}

// Fig7 reproduces the single-GPU throughput comparison, normalized to XLA.
func Fig7() string {
	gpu := gpusim.V100()
	t := stats.NewTable("model", "XLA (img/s)", "+Opt1", "+Opt1+Opt2", "Nimble", "OOO/XLA", "SM util XLA→OOO")
	for _, m := range fig7Models() {
		xla := singlegpu.Run(m, singlegpu.XLA(), gpu)
		o1 := singlegpu.Run(m, singlegpu.OOOXLAOpt1(), gpu)
		ooo := singlegpu.Run(m, singlegpu.OOOXLA(), gpu)
		nim := singlegpu.Run(m, singlegpu.Nimble(), gpu)
		norm := func(r singlegpu.Result) string {
			if r.OOM {
				return "N/A"
			}
			return fmt.Sprintf("%.2f", r.Throughput/xla.Throughput)
		}
		t.Add(m.Name, fmt.Sprintf("%.0f", xla.Throughput), norm(o1), norm(ooo), norm(nim),
			ooo.Throughput/xla.Throughput,
			fmt.Sprintf("%.2f→%.2f", xla.SMUtil, ooo.SMUtil))
	}
	return t.String()
}

// Fig8 shows the Algorithm 1 plan for DenseNet-121: the δW layers assigned to
// each backward region and the two-stream execution timeline.
func Fig8() string {
	m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
	r := singlegpu.Run(m, singlegpu.OOOXLA(), gpusim.V100())
	var b strings.Builder
	if r.Plan != nil {
		for i, layers := range r.Plan.Regions {
			fmt.Fprintf(&b, "R%d: %d sub-stream dW kernels\n", i+1, len(layers))
		}
		fmt.Fprintf(&b, "overflow past last region: %d\n\n", len(r.Plan.Overflow))
	}
	b.WriteString(r.Trace.Render(110))
	return b.String()
}

// Fig9 compares the backward-pass memory profile of conventional backprop
// and the ooo schedule induced by the Algorithm 1 plan.
func Fig9() string {
	m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
	r := singlegpu.Run(m, singlegpu.OOOXLA(), gpusim.V100())
	L := len(m.Layers)
	conv := graph.MemoryProfile(m, graph.Conventional(L))
	ooo := graph.MemoryProfile(m, singlegpu.InducedBackwardOrder(m, r.Plan))
	t := stats.NewTable("backward position", "conventional (MB)", "ooo (MB)")
	step := len(conv) / 16
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(conv); i += step {
		t.Add(i, float64(conv[i])/float64(1<<20), float64(ooo[i])/float64(1<<20))
	}
	peakC, peakO := slices.Max(conv), slices.Max(ooo)
	return t.String() + fmt.Sprintf("\npeak: conventional=%.1fMB ooo=%.1fMB (+%.2f%%)\n",
		float64(peakC)/float64(1<<20), float64(peakO)/float64(1<<20),
		100*(float64(peakO)/float64(peakC)-1))
}

// MemSingle reports the §8.2 peak-memory claim across the Fig 7 models.
func MemSingle() string {
	t := stats.NewTable("model", "conv peak (MB)", "ooo peak (MB)", "increase")
	for _, m := range fig7Models() {
		r := singlegpu.Run(m, singlegpu.OOOXLA(), gpusim.V100())
		L := len(m.Layers)
		convPeak := graph.PeakMemory(m, graph.Conventional(L))
		oooPeak := graph.PeakMemory(m, singlegpu.InducedBackwardOrder(m, r.Plan))
		t.Add(m.Name, float64(convPeak)/float64(1<<20), float64(oooPeak)/float64(1<<20),
			fmt.Sprintf("%+.2f%%", 100*(float64(oooPeak)/float64(convPeak)-1)))
	}
	return t.String()
}
