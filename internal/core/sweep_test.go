package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
)

// sweepCase counts which of the sweep's paths a check exercised.
type sweepCase struct {
	fifo, priority, preemptive int // family sweeps per channel case
	fallback                   int // sweeps whose costs fail the precondition
	cut                        int // depths with a preemptive sync in service at T_k
}

// checkSweep compares the family sweep of every depth, and of every
// sub-range (all of them for L ≤ 8, four random ones above), with one
// SimulateIteration per depth.
func checkSweep(t *testing.T, rng *rand.Rand, cs *sweepCase, sweep, ref *core.IterScratch, label string, c core.IterCosts, prio func(int) int, preemptive bool) {
	t.Helper()
	L := c.Layers()
	full := make([]time.Duration, L+1)
	sweep.SweepReverseFirstK(c, prio, preemptive, 0, L+1, full)

	classes := map[int]bool{}
	for i := 1; i <= L; i++ {
		if c.SyncW[i-1] > 0 {
			classes[prio(i)] = true
		}
	}
	strict := core.StrictArrivals(c)
	switch {
	case !strict:
		cs.fallback++
	case len(classes) <= 1:
		cs.fifo++
	case !preemptive:
		cs.priority++
	default:
		cs.preemptive++
	}
	var tk time.Duration // T_k: the clock after depth k's prefix
	for i := L; i >= 1; i-- {
		tk += c.DW[i-1] + c.DO[i-1]
	}
	for k := 0; k <= L; k++ {
		if k > 0 {
			tk -= c.DW[k-1] + c.DO[k-1]
		}
		want := ref.SimulateIteration(c, graph.ReverseFirstK(L, k), prio, preemptive).Makespan
		if full[k] != want {
			t.Fatalf("%s (L=%d preemptive=%v): depth %d makespan %v, one-shot %v", label, L, preemptive, k, full[k], want)
		}
		if strict && preemptive && len(classes) > 1 && k < L && ref.InServiceAt(tk) {
			cs.cut++
		}
	}

	type span struct{ lo, hi int }
	var spans []span
	if L <= 8 {
		for lo := 0; lo <= L+1; lo++ {
			for hi := lo; hi <= L+1; hi++ {
				spans = append(spans, span{lo, hi})
			}
		}
	} else {
		for range 4 {
			lo := rng.Intn(L + 2)
			spans = append(spans, span{lo, lo + rng.Intn(L+2-lo)})
		}
	}
	for _, sp := range spans {
		sub := make([]time.Duration, sp.hi-sp.lo)
		sweep.SweepReverseFirstK(c, prio, preemptive, sp.lo, sp.hi, sub)
		for i, v := range sub {
			if v != full[sp.lo+i] {
				t.Fatalf("%s (L=%d preemptive=%v): sweep of [%d, %d) has depth %d at %v, full sweep %v",
					label, L, preemptive, sp.lo, sp.hi, sp.lo+i, v, full[sp.lo+i])
			}
		}
	}
}

// TestReverseFirstKSweepMatchesOneShot is the family sweep's exactness gate:
// at every depth it must equal SimulateIteration on graph.ReverseFirstK bit
// for bit. Seeded random cost vectors (zero δO, layers without a sync,
// aggregation lag, long syncs that are still in service when a prefix ends)
// run under one-class, layer-indexed, few-class, negative, sparse, extreme
// and ranked priorities — spreads of exactly 4n − 1 and 4n over n synced
// layers sit either side of the ranking rule — each preemptive and run to
// completion; zero and negative δO/δW must take the one-shot fallback. The
// three channel cases, the fallback and a preemptive sync cut at a prefix's
// end must all occur. Then every zoo model under V100, TitanXP and P100
// costs, under the six datapar methods' channels.
func TestReverseFirstKSweepMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var sweep, ref core.IterScratch
	var cs sweepCase
	for trial := range 500 {
		L := 1 + rng.Intn(40)
		if trial%5 == 0 {
			L = 1 + rng.Intn(8)
		}
		c := core.IterCosts{
			F:     make([]time.Duration, L),
			DO:    make([]time.Duration, L),
			DW:    make([]time.Duration, L),
			SyncW: make([]time.Duration, L),
		}
		if rng.Intn(2) == 0 {
			c.SyncLag = make([]time.Duration, L)
		}
		for i := range L {
			c.F[i] = time.Duration(rng.Intn(20)) * time.Microsecond
			c.DO[i] = time.Duration(rng.Intn(8)) * time.Microsecond
			c.DW[i] = time.Duration(1+rng.Intn(8)) * time.Microsecond
			if rng.Intn(4) > 0 {
				c.SyncW[i] = time.Duration(1+rng.Intn(60)) * time.Microsecond
			}
			if c.SyncLag != nil {
				c.SyncLag[i] = time.Duration(rng.Intn(40)) * time.Microsecond
			}
		}
		costs := "strict"
		switch trial % 6 {
		case 4: // zero-cost ops tie ready times
			costs = "zero"
			for range 1 + rng.Intn(3) {
				i := rng.Intn(L)
				c.DO[i], c.DW[i] = 0, 0
			}
		case 5: // durations IterCosts does not reject
			costs = "negative"
			i := rng.Intn(L)
			if rng.Intn(2) == 0 {
				c.DO[i] = -c.DO[i] - time.Microsecond
			} else {
				c.DW[i] = -c.DW[i]
			}
		}

		var synced []int
		for i := 1; i <= L; i++ {
			if c.SyncW[i-1] > 0 {
				synced = append(synced, i)
			}
		}
		n := len(synced)
		few := make([]int, L+1)
		nclass := 1 + rng.Intn(4)
		for i := range few {
			few[i] = rng.Intn(nclass)
		}
		spread := func(width int) func(int) int {
			p := make([]int, L+1)
			for i := range p {
				p[i] = rng.Intn(max(width, 0) + 1)
			}
			if n > 0 {
				p[synced[0]], p[synced[n-1]] = 0, width
			}
			return func(l int) int { return p[l] }
		}
		prios := []struct {
			name string
			fn   func(int) int
		}{
			{"zero", func(int) int { return 0 }},
			{"seven", func(int) int { return 7 }},
			{"layer", func(l int) int { return l }},
			{"few", func(l int) int { return few[l] }},
			{"negative-sparse", func(l int) int { return -l * 1_000_000 }},
			{"extremes", func(l int) int {
				if l%2 == 0 {
					return math.MinInt64
				}
				return math.MaxInt64
			}},
			{"spread-4n-1", spread(4*n - 1)},
			{"spread-4n", spread(4 * n)},
		}
		for _, pr := range prios {
			for _, preemptive := range []bool{false, true} {
				label := fmt.Sprintf("trial %d/%s/%s", trial, costs, pr.name)
				checkSweep(t, rng, &cs, &sweep, &ref, label, c, pr.fn, preemptive)
			}
		}
	}
	if cs.fifo == 0 || cs.priority == 0 || cs.preemptive == 0 || cs.fallback == 0 || cs.cut == 0 {
		t.Fatalf("random cases: %d one-class, %d priority and %d preemptive family sweeps, %d fallbacks, %d preemptive cuts at a prefix's end; each must occur",
			cs.fifo, cs.priority, cs.preemptive, cs.fallback, cs.cut)
	}
	t.Logf("random cases: %d one-class, %d priority and %d preemptive family sweeps, %d fallbacks, %d preemptive cuts at a prefix's end",
		cs.fifo, cs.priority, cs.preemptive, cs.fallback, cs.cut)

	methods := []datapar.Method{datapar.WFBP, datapar.Horovod, datapar.P3, datapar.BytePS, datapar.OOOBytePS, datapar.OOOHorovod}
	var zoo sweepCase
	for _, profile := range []models.GPUProfile{models.V100Profile(), models.TitanXPProfile(), models.P100Profile()} {
		for _, e := range models.Zoo() {
			m := e.Build(profile)
			for _, method := range methods {
				prio, preemptive := method.Channel()
				checkSweep(t, rng, &zoo, &sweep, &ref, fmt.Sprintf("%s/%s/%s", profile.Name, e.Name, method),
					datapar.Costs(m, datapar.PubA(), 16, method), prio, preemptive)
			}
		}
	}
	t.Logf("zoo: %d one-class, %d priority and %d preemptive family sweeps, %d fallbacks, %d preemptive cuts at a prefix's end",
		zoo.fifo, zoo.priority, zoo.preemptive, zoo.fallback, zoo.cut)
}

// TestReverseFirstKSweepRange checks that an out-of-range sweep panics.
func TestReverseFirstKSweepRange(t *testing.T) {
	const L = 4
	d := make([]time.Duration, L)
	for i := range d {
		d[i] = time.Microsecond
	}
	c := core.IterCosts{F: d, DO: d, DW: d, SyncW: d}
	for _, r := range []struct{ lo, hi, out int }{{-1, 2, 3}, {3, 2, 1}, {0, L + 2, L + 2}, {1, 4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sweep of [%d, %d) into %d results did not panic", r.lo, r.hi, r.out)
				}
			}()
			var s core.IterScratch
			s.SweepReverseFirstK(c, nil, false, r.lo, r.hi, make([]time.Duration, r.out))
		}()
	}
}
