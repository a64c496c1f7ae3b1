package plansearch

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.txt from the current engine")

const goldenPath = "testdata/search_golden.txt"

// TestSearchGolden pins every probe sequence the engine issues. On each zoo
// model under OOO-BytePS, OOO-Horovod and P3 alone and OOO-BytePS beside P3,
// it runs Exact, Guided and Robust with no budget and with a binding one (the
// peak of reverse first-(L/3)), the Pareto sweep, and the memory search at no
// budget and at the tightest, mid, loosest and one-below-tightest footprints.
// Every field of every result — Probes, RobustProbes, the float fields bit for
// bit, Alternatives and Points — is rendered to text and hashed, and the
// digests must equal the committed ones. -update rewrites the file.
func TestSearchGolden(t *testing.T) {
	var cases, digests []string
	add := func(name, rendered string) {
		cases = append(cases, name)
		digests = append(digests, fmt.Sprintf("%x", sha256.Sum256([]byte(rendered))))
	}
	sets := [][]datapar.Method{{datapar.OOOBytePS}, {datapar.OOOHorovod}, {datapar.P3}, {datapar.OOOBytePS, datapar.P3}}
	for _, e := range models.Zoo() {
		m := e.Build(models.V100Profile())
		L := len(m.Layers)
		tab := NewMemTable(m)
		lo, hi := tab.Footprint(0).FragPeakBytes, tab.Footprint(0).FragPeakBytes
		for k := 0; k <= L; k++ {
			lo, hi = min(lo, tab.Footprint(k).FragPeakBytes), max(hi, tab.Footprint(k).FragPeakBytes)
		}
		binding := graph.PeakMemory(m, graph.ReverseFirstK(L, L/3))
		for _, set := range sets {
			sp := zooSpace(m, set...)
			sp.Mem = tab
			var names []string
			for _, method := range set {
				names = append(names, method.String())
			}
			name := e.Name + "/" + strings.Join(names, "+")
			for i, budget := range []int64{0, binding} {
				sp.MaxMemoryBytes = budget
				for _, mode := range []Mode{Exact, Guided, Robust} {
					add(fmt.Sprintf("%s/%v/%s", name, mode, []string{"free", "binding"}[i]), renderResult(Search(sp, mode, Config{Workers: 2})))
				}
			}
			sp.MaxMemoryBytes = 0
			add(name+"/pareto", renderPareto(ParetoSweep(sp, Config{Workers: 2})))
			for i, budget := range []int64{0, lo, lo + (hi-lo)/2, hi, lo - 1} {
				add(fmt.Sprintf("%s/memory/%s", name, []string{"free", "tightest", "mid", "loosest", "infeasible"}[i]),
					renderMem(MemorySearch(sp, budget, Config{Workers: 2})))
			}
		}
	}

	if *updateGolden {
		var b strings.Builder
		for i := range cases {
			fmt.Fprintf(&b, "%s %s\n", cases[i], digests[i])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden holds %d cases, the test runs %d", len(want), len(cases))
	}
	for i, name := range cases {
		if want[name] != digests[i] {
			t.Errorf("%s: digest %s, golden %q", name, digests[i], want[name])
		}
	}
}

func renderCandidate(b *strings.Builder, c Candidate) {
	fmt.Fprintf(b, "(k=%d d=%d %d)", c.K, c.Discipline, int64(c.Makespan))
}

func renderResult(r Result) string {
	var b strings.Builder
	renderCandidate(&b, r.Best)
	fmt.Fprintf(&b, " probes=%d robust=%d n=%d proven=%v corr=%x regret=%x alts:",
		r.Probes, r.RobustProbes, r.Candidates, r.CutoffProven,
		math.Float64bits(r.RankCorrelation), math.Float64bits(r.WorstRegret))
	for _, a := range r.Alternatives {
		renderCandidate(&b, a.Candidate)
		fmt.Fprintf(&b, "%x ", math.Float64bits(a.WorstRegret))
	}
	return b.String()
}

func renderPoint(b *strings.Builder, p MemPoint) {
	fmt.Fprintf(b, "(k=%d list=%v d=%d %d mem=%d/%d/%d/%x)", p.K, p.MemSched, p.Discipline, int64(p.Makespan),
		p.Mem.LogicalPeakBytes, p.Mem.AlignedPeakBytes, p.Mem.FragPeakBytes, math.Float64bits(p.Mem.FragRatio))
}

func renderPareto(r ParetoResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "probes=%d frontier:", r.Probes)
	for _, p := range r.Frontier {
		renderPoint(&b, p)
	}
	b.WriteString(" points:")
	for _, p := range r.Points {
		renderPoint(&b, p)
	}
	return b.String()
}

func renderMem(r MemResult) string {
	var b strings.Builder
	renderPoint(&b, r.Best)
	fmt.Fprintf(&b, " feasible=%v min=%d probes=%d n=%d", r.Feasible, r.MinFragPeakBytes, r.Probes, r.Candidates)
	return b.String()
}
