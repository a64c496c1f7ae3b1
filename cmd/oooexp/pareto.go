package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/plansearch"
)

// runPareto prints the joint throughput×peak-memory frontier for every zoo
// model: per model the conventional order's replayed footprint, then each
// frontier point's schedule (k or the memory list schedule), simulated
// iteration time and BFC-replayed fragmented peak. With -o DIR the report is
// also written to DIR/pareto.txt.
func runPareto(w io.Writer, outDir string) error {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 8
	method := datapar.OOOBytePS

	var sb strings.Builder
	fmt.Fprintf(&sb, "Throughput × peak-memory Pareto frontier (zoo, pub-a, %d GPUs, %s)\n\n", gpus, method)
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		sp := plansearch.Space{
			Model:       m,
			Costs:       datapar.Costs(m, cl, gpus, method),
			Disciplines: []plansearch.Discipline{searchDiscipline(method)},
		}
		conv := plansearch.MemFootprint(m, graph.Conventional(len(m.Layers)))
		res := plansearch.ParetoSweep(sp, plansearch.Config{})
		head := res.Frontier[0]
		tail := res.Frontier[len(res.Frontier)-1]
		fmt.Fprintf(&sb, "%s (L=%d, %d candidates, conventional peak %s)\n",
			e.Name, m.NumLayers(), res.Probes, mib(conv.FragPeakBytes))
		fmt.Fprintf(&sb, "  %-10s %12s %12s %10s\n", "schedule", "iter-time", "frag-peak", "frag-ratio")
		for _, p := range res.Frontier {
			name := fmt.Sprintf("k=%d", p.K)
			if p.MemSched {
				name = "mem-list"
			}
			fmt.Fprintf(&sb, "  %-10s %12s %12s %10.3f\n",
				name, p.Makespan.Round(time.Microsecond), mib(p.Mem.FragPeakBytes), p.Mem.FragRatio)
		}
		fmt.Fprintf(&sb, "  span: %.2fx time for %.2fx memory\n\n",
			float64(tail.Makespan)/float64(head.Makespan),
			float64(head.Mem.FragPeakBytes)/float64(tail.Mem.FragPeakBytes))
	}
	fmt.Fprintf(&sb, "frontier: ascending iteration time, strictly decreasing BFC-replayed peak;\n")
	fmt.Fprintf(&sb, "first point = time optimum, last = memory optimum (the LESCEA list schedule\n")
	fmt.Fprintf(&sb, "anchors the low-memory end when reverse-first-k cannot reach it).\n")

	report := sb.String()
	if _, err := io.WriteString(w, report); err != nil {
		return err
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "pareto.txt"), []byte(report), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// mib renders a byte count as MiB with two decimals.
func mib(b int64) string {
	return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
}
