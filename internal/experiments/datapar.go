package experiments

import (
	"fmt"
	"strings"
	"time"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/stats"
	"oooback/internal/trace"
)

func init() {
	register("fig4", "data-parallel timelines: conventional / priority comm / ooo (Fig 4)", Fig4)
	register("fig10", "data-parallel throughput scaling on the three clusters (Fig 10)", Fig10)
	register("disc-datapar", "§8.3 breakdown: ResNet-50 on 16×V100, where the 27% comes from", DiscDatapar)
}

// Fig4 renders the three executions of Figure 4 on the paper's 5-layer
// example (unit compute costs, CNN-shaped synchronizations).
func Fig4() string {
	L := 5
	unit := time.Millisecond
	c := core.IterCosts{
		F:  repeatDur(L, unit),
		DO: repeatDur(L, unit),
		DW: repeatDur(L, unit),
		SyncW: []time.Duration{4 * unit, 1 * unit, 1 * unit,
			1 * unit, 6 * unit},
	}
	m := models.FFNN(models.V100Profile(), L, 256, 32)
	fifo := func(int) int { return 0 }
	prio := func(layer int) int { return layer }

	var b strings.Builder
	show := func(title string, order graph.BackwardSchedule, p func(int) int, preemptive bool) {
		var s core.IterScratch
		tr := &trace.Trace{}
		r := s.SimulateIterationTraced(c, order, p, preemptive, tr)
		fmt.Fprintf(&b, "(%s) makespan=%v idle=%v\n%s\n", title, r.Makespan, r.GPUIdle,
			tr.Render(90))
	}
	show("a: conventional, FIFO comm", graph.Conventional(L), fifo, false)
	show("b: conventional, prioritized comm", graph.Conventional(L), prio, true)
	show("c: ooo backprop (reverse first-3), prioritized comm", core.ReverseFirstK(m, 3, 0), prio, true)
	return b.String()
}

// fig10Case is one cluster sweep of Figure 10.
type fig10Case struct {
	cluster datapar.Cluster
	model   *models.Model
	workers []int
}

// Fig10 sweeps worker counts on the three clusters for ResNet-50/101 and
// reports Horovod / BytePS / OOO-BytePS throughput.
func Fig10() string {
	cases := []fig10Case{
		{datapar.PrivA(), models.ResNet(models.TitanXPProfile(), 50, 64, models.ImageNet), []int{1, 2, 4, 8}},
		{datapar.PrivA(), models.ResNet(models.TitanXPProfile(), 101, 64, models.ImageNet), []int{1, 2, 4, 8}},
		{datapar.PrivB(), models.ResNet(models.P100Profile(), 50, 64, models.ImageNet), []int{1, 4, 8, 20}},
		{datapar.PrivB(), models.ResNet(models.P100Profile(), 101, 64, models.ImageNet), []int{1, 4, 8, 20}},
		{datapar.PubA(), models.ResNet(models.V100Profile(), 50, 128, models.ImageNet), []int{1, 4, 8, 16, 32, 48}},
		{datapar.PubA(), models.ResNet(models.V100Profile(), 101, 96, models.ImageNet), []int{1, 4, 8, 16, 32, 48}},
	}
	t := stats.NewTable("cluster", "model", "GPUs", "Horovod", "BytePS", "OOO-BytePS", "OOO/BytePS", "k")
	for _, cs := range cases {
		for _, w := range cs.workers {
			hv := datapar.Run(cs.model, cs.cluster, w, datapar.Horovod)
			bp := datapar.Run(cs.model, cs.cluster, w, datapar.BytePS)
			oo := datapar.Run(cs.model, cs.cluster, w, datapar.OOOBytePS)
			t.Add(cs.cluster.Name, cs.model.Name, w,
				fmt.Sprintf("%.0f", hv.Throughput), fmt.Sprintf("%.0f", bp.Throughput),
				fmt.Sprintf("%.0f", oo.Throughput), oo.Throughput/bp.Throughput, oo.K)
		}
	}
	return t.String()
}

// DiscDatapar reproduces the §8.3 analysis: the first layer's
// synchronization completion under BytePS vs OOO-BytePS on 16×V100 and the
// resulting GPU idle reduction.
func DiscDatapar() string {
	m := models.ResNet(models.V100Profile(), 50, 128, models.ImageNet)
	cl := datapar.PubA()
	bp := datapar.Run(m, cl, 16, datapar.BytePS)
	oo := datapar.Run(m, cl, 16, datapar.OOOBytePS)
	var b strings.Builder
	fmt.Fprintf(&b, "backward compute          : %v\n", m.TotalBackward())
	fmt.Fprintf(&b, "forward compute           : %v\n", m.TotalFwd())
	fmt.Fprintf(&b, "aggregation lag (modelled): %v\n", datapar.AggregationLag(cl, 16, m.TotalBackward()))
	fmt.Fprintf(&b, "BytePS     : sync1 done at %v, forward idle %v, iter %v\n", bp.Sync1, bp.GPUIdle, bp.IterTime)
	fmt.Fprintf(&b, "OOO-BytePS : sync1 done at %v, forward idle %v, iter %v (k=%d)\n", oo.Sync1, oo.GPUIdle, oo.IterTime, oo.K)
	fmt.Fprintf(&b, "speedup    : %.2f×\n", float64(bp.IterTime)/float64(oo.IterTime))
	return b.String()
}

func repeatDur(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}
