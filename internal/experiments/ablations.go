package experiments

import (
	"fmt"
	"time"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/parexec"
	"oooback/internal/pipepar"
	"oooback/internal/stats"
)

func init() {
	register("baselines-pipe", "§8.4.2 extra baselines: DAPPLE and Megatron-style interleaving (± fast-forwarding)", BaselinesPipe)
	register("ablation-regions", "ablation: Algorithm 1 region granularity (1 region vs per-block)", AblationRegions)
	register("ablation-ksweep", "ablation: reverse first-k — exhaustive sweep vs concave search vs list scheduling", AblationKSweep)
	register("ablation-modulo", "ablation: modulo allocation granularity across interconnects", AblationModulo)
	register("ablation-staleness", "ablation: PipeDream weight versions vs throughput", AblationStaleness)
}

// BaselinesPipe reproduces the §8.4.2 side comparisons: DAPPLE (synchronous
// 1F1B) and Megatron-style interleaved allocation (= modulo *without*
// fast-forwarding, which the paper argues has "very limited performance
// impact"), plus Megatron + fast-forwarding (the paper's +20.4% experiment).
func BaselinesPipe() string {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 48, 128, 512), 16)
	L := len(m.Layers)
	gpus := 16
	run := func(sched pipepar.Schedule, ff, modulo bool) pipepar.Result {
		alloc := pipepar.BalancedContiguous(m, gpus)
		if modulo {
			alloc = core.ModuloAllocation(L, gpus, 1)
		}
		return pipepar.Run(m, pipepar.Config{
			GPUs: gpus, MicroBatches: gpus, Alloc: alloc, FastForward: ff,
			Schedule: sched, MaxVersions: 8, Link: netsim.NVLink(), Iterations: 4,
		})
	}
	// The four systems are independent pipeline simulations; fan them out.
	cfgs := []struct {
		sched      pipepar.Schedule
		ff, modulo bool
	}{
		{pipepar.GPipe, false, false},
		{pipepar.DAPPLE, false, false},
		{pipepar.GPipe, false, true}, // interleaved stages, conventional backward
		{pipepar.GPipe, true, true},
	}
	rs := parexec.Map(len(cfgs), parexec.Default(), func(i int) pipepar.Result {
		return run(cfgs[i].sched, cfgs[i].ff, cfgs[i].modulo)
	})
	gp, dap, meg, megFF := rs[0], rs[1], rs[2], rs[3]
	ooo := megFF // OOO-Pipe2 is exactly modulo + fast-forwarding

	t := stats.NewTable("system", "seq/s", "vs GPipe", "note")
	t.Add("GPipe", fmt.Sprintf("%.0f", gp.Throughput), 1.0, "baseline")
	t.Add("DAPPLE", fmt.Sprintf("%.0f", dap.Throughput), dap.Throughput/gp.Throughput, "synchronous 1F1B")
	t.Add("Megatron-interleave", fmt.Sprintf("%.0f", meg.Throughput), meg.Throughput/gp.Throughput, "modulo, no ooo backprop")
	t.Add("Megatron+fast-fwd", fmt.Sprintf("%.0f", megFF.Throughput), megFF.Throughput/gp.Throughput,
		fmt.Sprintf("+%.1f%% over Megatron", 100*(megFF.Throughput/meg.Throughput-1)))
	t.Add("OOO-Pipe2", fmt.Sprintf("%.0f", ooo.Throughput), ooo.Throughput/gp.Throughput,
		fmt.Sprintf("%.2fx over DAPPLE", ooo.Throughput/dap.Throughput))
	return t.String()
}

// AblationRegions compares Algorithm 1 with its per-block regions against a
// degenerate single region (all δW placed by one global greedy pass) and
// against no reordering at all, isolating the value of region-based joint
// scheduling. It reports the simulated iteration times of the induced
// backward orders on the analytic simulator (no comm), where only kernel
// overlap quality differs — so we compare sub-stream placement quality via
// the overlap-weighted speedup totals.
func AblationRegions() string {
	m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
	blocks := m.Blocks()

	mkInput := func(regions int) (core.JointInput, []time.Duration) {
		// regions = len(blocks) uses the model's block structure; 1 merges
		// everything into a single region.
		rev := make([]string, len(blocks))
		for i, b := range blocks {
			rev[len(blocks)-1-i] = b
		}
		regionOf := func(block string) int {
			if regions == 1 {
				return 0
			}
			for i, b := range rev {
				if b == block {
					return i
				}
			}
			return 0
		}
		n := regions
		tMain := make([]time.Duration, n)
		mainBlocks := make([]int, n)
		counts := make([]int, n)
		for _, l := range m.Layers {
			r := regionOf(l.Block)
			tMain[r] += l.DO
			mainBlocks[r] += l.DOBlocks
			counts[r]++
		}
		for r := range mainBlocks {
			if counts[r] > 0 {
				mainBlocks[r] /= counts[r]
			}
		}
		var layers []int
		earliest := map[int]int{}
		L := len(m.Layers)
		for i := 1; i <= L; i++ {
			layers = append(layers, i)
			if i == L {
				earliest[i] = 0
			} else {
				earliest[i] = regionOf(m.Layers[i].Block)
			}
		}
		cap := models.V100Profile().SMCapacity
		in := core.JointInput{
			TMain: tMain, Layers: layers, Earliest: earliest,
			TSub: func(layer, region int) time.Duration { return m.Layers[layer-1].DW },
			Speedup: func(layer, region int) float64 {
				return core.PairSpeedup(mainBlocks[region], m.Layers[layer-1].DWBlocks, cap,
					tMain[region], m.Layers[layer-1].DW)
			},
		}
		return in, tMain
	}

	score := func(regions int) (placed int, meanSpeedup float64) {
		in, _ := mkInput(regions)
		out := core.MultiRegionJoint(in)
		var sum float64
		n := 0
		for r, layers := range out.Regions {
			for _, l := range layers {
				sum += in.Speedup(l, r)
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return n, sum / float64(n)
	}

	regionCfgs := []int{1, len(blocks)}
	type scored struct {
		placed int
		mean   float64
	}
	results := parexec.Map(len(regionCfgs), parexec.Default(), func(i int) scored {
		placed, mean := score(regionCfgs[i])
		return scored{placed, mean}
	})
	t := stats.NewTable("regions", "dW kernels placed", "mean co-run speedup")
	for i, r := range regionCfgs {
		t.Add(r, results[i].placed, results[i].mean)
	}
	return t.String() + "\nPer-block regions place kernels where their occupancy complements the\nmain stream; a single region collapses that choice.\n"
}

// AblationKSweep compares three ways to pick the reverse first-k depth on
// ResNet-50/16×V100: exhaustive sweep (ground truth), the paper's concave
// search, and the simulation-guided list scheduler (which needs the sync
// times, §5.1's closing discussion).
func AblationKSweep() string {
	m := models.ResNet(models.V100Profile(), 50, 128, models.ImageNet)
	cl := datapar.PubA()
	c := datapar.Costs(m, cl, 16, datapar.BytePS)
	L := len(m.Layers)
	prio := func(l int) int { return l }
	measure := func(k int) float64 {
		r := core.SimulateIteration(c, core.ReverseFirstK(m, k, 0), prio, true)
		return core.Throughput(r.Makespan, m.Batch)
	}

	// Exhaustive sweep (ground truth): the L depths as one family sweep,
	// reduced in k order so the argmax matches the serial scan exactly.
	sweep := make([]time.Duration, L)
	var s core.IterScratch
	s.SweepReverseFirstK(c, prio, true, 0, L, sweep)
	bestK, bestV := 0, 0.0
	evals := len(sweep)
	for k, makespan := range sweep {
		if v := core.Throughput(makespan, m.Batch); v > bestV {
			bestK, bestV = k, v
		}
	}
	searchEvals := 0
	searchK := core.SearchK(L, func(k int) float64 {
		searchEvals++
		return measure(k)
	})
	searchV := measure(searchK)

	ls := core.ListSchedule(c)
	lsV := core.Throughput(core.SimulateIteration(c, ls, prio, true).Makespan, m.Batch)

	conv := measure(0)
	// Optimality gap against the provable §2 lower bound.
	boundV := core.Throughput(core.MakespanLowerBound(c), m.Batch)
	t := stats.NewTable("method", "k", "throughput", "vs best", "measurements")
	t.Add("lower bound (unreachable)", "-", fmt.Sprintf("%.0f", boundV), boundV/bestV, "-")
	t.Add("exhaustive sweep", bestK, fmt.Sprintf("%.0f", bestV), 1.0, evals)
	t.Add("concave search (§5.1)", searchK, fmt.Sprintf("%.0f", searchV), searchV/bestV, searchEvals)
	t.Add("list scheduling", "-", fmt.Sprintf("%.0f", lsV), lsV/bestV, "needs sync times")
	t.Add("conventional (k=0)", 0, fmt.Sprintf("%.0f", conv), conv/bestV, "-")
	return t.String() + fmt.Sprintf("\nBest schedule sits within %.1f%% of the §2 lower bound.\n",
		100*(boundV/bestV-1))
}

// AblationModulo sweeps modulo-allocation group sizes for BERT-24 on 4 GPUs
// across the three interconnects (the §8.4.1 communication/computation
// trade-off).
func AblationModulo() string {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 96), 4)
	L := len(m.Layers)
	links := []struct {
		name string
		spec netsim.LinkSpec
	}{{"NVLink", netsim.NVLink()}, {"PCIe", netsim.PCIe3x16()}, {"10GbE", netsim.Ethernet10G()}}
	groups := []int{1, 2, 4, 0} // 0 = balanced contiguous baseline
	// The 3×4 (interconnect × allocation) grid is embarrassingly parallel:
	// evaluate all cells at once, then assemble rows in grid order.
	cells := parexec.Map(len(links)*len(groups), parexec.Default(), func(i int) float64 {
		l, g := links[i/len(groups)], groups[i%len(groups)]
		alloc := pipepar.BalancedContiguous(m, 4)
		if g > 0 {
			alloc = core.ModuloAllocation(L, 4, g)
		}
		r := pipepar.Run(m, pipepar.Config{
			GPUs: 4, MicroBatches: 4, Alloc: alloc,
			FastForward: true, Schedule: pipepar.GPipe, Link: l.spec,
		})
		return r.Throughput
	})
	t := stats.NewTable("interconnect", "group=1", "group=2", "group=4", "contiguous")
	for li, l := range links {
		row := []any{l.name}
		for gi := range groups {
			row = append(row, fmt.Sprintf("%.0f", cells[li*len(groups)+gi]))
		}
		t.Add(row...)
	}
	return t.String()
}

// AblationStaleness sweeps PipeDream's weight-version bound: more versions
// buy throughput (up to the pipeline bound) at the cost of staleness — the
// §8.4.2 note that training BERT-48 needed 32 versions for peak throughput.
func AblationStaleness() string {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 24, 128, 512), 8)
	versions := []int{1, 2, 4, 8}
	// Index len(versions) is the OOO-Pipe2 reference point; the whole sweep
	// fans out as one grid.
	rs := parexec.Map(len(versions)+1, parexec.Default(), func(i int) pipepar.Result {
		if i == len(versions) {
			return pipepar.Run(m, pipepar.Config{
				GPUs: 8, MicroBatches: 8, Alloc: core.ModuloAllocation(len(m.Layers), 8, 1),
				FastForward: true, Schedule: pipepar.GPipe, Link: netsim.NVLink(), Iterations: 4,
			})
		}
		return pipepar.Run(m, pipepar.Config{
			GPUs: 8, MicroBatches: 8, Alloc: pipepar.BalancedContiguous(m, 8),
			Schedule: pipepar.PipeDream, MaxVersions: versions[i], Link: netsim.NVLink(),
			Iterations: 6,
		})
	})
	t := stats.NewTable("max versions", "seq/s", "staleness")
	for i, v := range versions {
		t.Add(v, fmt.Sprintf("%.0f", rs[i].Throughput), rs[i].Versions)
	}
	ooo := rs[len(versions)]
	return t.String() + fmt.Sprintf("\nOOO-Pipe2 (no staleness at all): %.0f seq/s\n", ooo.Throughput)
}
