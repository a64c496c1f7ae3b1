package experiments

import (
	"fmt"

	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/plansearch"
	"oooback/internal/stats"
)

func init() {
	register("bfc-fragmentation", "bfc_allocator replay: fragmentation and arena peak under ooo schedules (§8.1)", BFCStudy)
}

// BFCStudy scores conventional and ooo backward schedules the way the
// planner's memory axis does (plansearch.MemFootprint: the schedule's
// graph.TraceAllocs trace replayed through the BFC arena) against an arena of
// 1.25× the conventional byte peak. A schedule fits when its fragmented peak
// is within the arena, the comparison plansearch.MemorySearch applies to a
// budget.
func BFCStudy() string {
	t := stats.NewTable("model", "schedule", "logical peak (MB)", "fragmented peak (MB)", "frag ratio", "fits 1.25×")
	for _, m := range []*models.Model{
		models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100),
		models.ResNet(models.V100Profile(), 50, 32, models.ImageNet),
	} {
		L := len(m.Layers)
		arena := int64(float64(graph.PeakMemory(m, graph.Conventional(L))) * 1.25)
		for _, sc := range []struct {
			name  string
			sched graph.BackwardSchedule
		}{
			{"conventional", graph.Conventional(L)},
			{"reverse-first-20", core.ReverseFirstK(m, 20, arena)},
		} {
			mem := plansearch.MemFootprint(m, sc.sched)
			t.Add(m.Name, sc.name, float64(mem.LogicalPeakBytes)/(1<<20), float64(mem.FragPeakBytes)/(1<<20),
				fmt.Sprintf("%.4f", mem.FragRatio), mem.FragPeakBytes <= arena)
		}
	}
	return t.String() + "\nArena sized at 1.25× the conventional peak. Each schedule's alloc/free trace\nis replayed through the BFC arena exactly as a plan's memory axis scores it.\n"
}
