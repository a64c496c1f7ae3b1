package train

import (
	"fmt"
	"strings"
	"testing"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
)

// stashSources is what StepRecompute reads off a network: each layer's stash
// source.
func stashSources(n *Network) []nn.StashSource {
	srcs := make([]nn.StashSource, len(n.Layers))
	for i, l := range n.Layers {
		srcs[i] = l.StashSource()
	}
	return srcs
}

// String renders a row for the generator goldens: z zero, f/r forward /
// re-forward, s restash, L loss, o δO, w δW, x free activation, P publish bucket, ra/sa/
// rg/sg the pipeline queue ops; "#m" the microbatch; δW hand-off p pooled, ~
// deferred; ledger flags +a keep activation, +s hold stash, -s drop stash, -p
// drop input activation, ! last use of the gradient.
func (r row) String() string {
	names := [...]string{rowZero: "z", rowFwd: "f", rowRestash: "s", rowLoss: "L", rowDO: "o", rowDW: "w", rowFree: "x",
		rowPublish: "P", rowRecvAct: "ra", rowSendAct: "sa", rowRecvGrad: "rg", rowSendGrad: "sg"}
	s := names[r.kind]
	if r.flags&reFwd != 0 {
		s = "r"
	}
	if r.kind != rowZero && r.kind != rowLoss {
		s += fmt.Sprint(r.layer)
	}
	if r.micro > 0 {
		s += fmt.Sprintf("#%d", r.micro)
	}
	for _, f := range []struct {
		flag rowFlags
		tag  string
	}{{dwPooled, "p"}, {dwDeferred, "~"}, {keepAct, "+a"}, {holdStash, "+s"},
		{dropStash, "-s"}, {dropPrev, "-p"}, {lastUse, "!"}} {
		if r.flags&f.flag != 0 {
			s += f.tag
		}
	}
	return s
}

func rowsString(rows []row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = r.String()
	}
	return strings.Join(parts, " ")
}

// TestStepRowsGolden pins the whole-batch generator: one fixed op set, the
// schedule only reorders its backward rows, the engine only flags its δW rows.
// The set is the schedule's ops less δO_1, which feeds nothing (the reference
// walk computes and discards it), so no table has an o1.
func TestStepRowsGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		sched graph.BackwardSchedule
		dw    rowFlags
		want  string
	}{
		{"conventional", graph.Conventional(3), 0, "z f1 f2 f3 L o3 w3 o2 w2 w1"},
		{"reverse-first-1 pooled", graph.ReverseFirstK(3, 1), dwPooled, "z f1 f2 f3 L w3p o3 w2p o2 w1p"},
		{"fast-forward", core.FastForward(3), 0, "z f1 f2 f3 L o3 o2 w3 w2 w1"},
	} {
		rows := stepRows(3, c.sched, c.dw)
		if got := rowsString(rows); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		if got, want := rowsString(backwardRows(rows, 3)), c.want[len("z f1 f2 f3 L "):]; got != want {
			t.Errorf("%s backward rows:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestNoTableRunsDO1: no generator emits δO_1 — not the whole-batch table
// under any reverse-first-k depth or fast-forward, not its publishing copy,
// not a checkpointed table at any interval, not a pipeline stage — while every
// other δO of the schedule is there exactly once.
func TestNoTableRunsDO1(t *testing.T) {
	net := MLPNet(11, 16, 24, 3, 3)
	L := len(net.Layers)
	check := func(what string, rows []row, wantDO int) {
		t.Helper()
		seen := 0
		for _, r := range rows {
			if r.kind != rowDO {
				continue
			}
			if r.layer == 1 {
				t.Fatalf("%s: the table runs δO_1: %s", what, rowsString(rows))
			}
			seen++
		}
		if seen != wantDO {
			t.Fatalf("%s: %d δO rows, want %d: %s", what, seen, wantDO, rowsString(rows))
		}
	}
	scheds := []graph.BackwardSchedule{core.FastForward(L)}
	for k := 0; k <= L; k++ {
		scheds = append(scheds, graph.ReverseFirstK(L, k))
	}
	for i, sched := range scheds {
		a, err := graph.Analyze(L, sched)
		if err != nil {
			t.Fatal(err)
		}
		rows := stepRows(L, sched, dwPooled)
		check(fmt.Sprintf("stepRows sched %d", i), rows, L-1)
		check(fmt.Sprintf("publishRows sched %d", i), publishRows(rows, newReducePlan(net, a, SyncLayerPriority, -1)), L-1)
		for every := 1; every <= 3; every++ {
			rows, err := recomputeRows(L, stashSources(net), sched, every)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("recomputeRows sched %d every %d", i, every), rows, L-1)
		}
	}
	for _, sched := range []PipeSchedule{PipeGPipe, Pipe1F1B} {
		for S := 2; S <= 3; S++ {
			part, err := graph.PartitionEven(L, S)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < S; s++ {
				lo, hi := part.Range(s)
				want := 2 * (hi - lo) // M = 2 microbatches, one δO per layer each
				if lo == 0 {
					want -= 2
				}
				check(fmt.Sprintf("stageRows %v S%d s%d", sched, S, s), stageRows(sched, s, S, 2, lo, hi, true), want)
			}
		}
	}
}

// TestRecomputeRowsGolden pins the checkpointed generator on L = 5: which
// activations the forward rows keep, where the backward order restashes which
// layer or re-forwards which segment, and what every op releases. mlp is
// Dense/ReLU alternating (input, output, input, output, input sources); mix
// has a source-less layer and an output-sourced top layer, whose output (the
// logits) is never resident, so it always re-runs. Without δO_1 (stepRows),
// layer 1's gradient and stash are released by its δW.
func TestRecomputeRowsGolden(t *testing.T) {
	in, out, none := nn.StashFromInput, nn.StashFromOutput, nn.StashFromNothing
	mlp := []nn.StashSource{in, out, in, out, in}
	mix := []nn.StashSource{in, out, in, none, out}
	for _, c := range []struct {
		srcs  []nn.StashSource
		every int
		sched graph.BackwardSchedule
		want  string
	}{
		{mlp, 1, graph.Conventional(5), "z f1+a f2+a f3+a f4+a f5 L o5 w5! x4 o4 w4! x3 o3 w3! x2 o2 w2! x1 w1! x0"},
		{mlp, 2, graph.Conventional(5), "z f1+a+s-s f2+a+s-s-p f3+a+s-s f4+a+s-s-p f5+s-s L " +
			"s5 o5 w5-s! s4 x4 o4 w4-s! s3 o3 w3-s! s2 x2 o2 w2-s! s1 w1-s! x0"},
		{mlp, 3, graph.Conventional(5), "z f1+a+s-s f2+a+s-s-p f3+a+s-s-p f4+a+s-s f5+s-s-p L " +
			"r4+a+s s5 o5 w5-s! x4 o4 w4-s! x3 r1+a+s r2+a+s s3 o3 w3-s! x2 o2 w2-s! x1 w1-s! x0"},
		{mlp, 3, graph.ReverseFirstK(5, 2), "z f1+a+s-s f2+a+s-s-p f3+a+s-s-p f4+a+s-s f5+s-s-p L " +
			"r4+a+s s5 w5 x4 o5-s! w4 x3 o4-s! r1+a+s r2+a+s s3 w3 x2 o3-s! o2 w1-s! x0 w2-s! x1"},
		{mix, 2, graph.Conventional(5), "z f1+a+s-s f2+a+s-s-p f3+a+s-s f4+a+s-s-p f5+s-s L " +
			"r5+s o5 w5-s! x4 s4 o4 w4-s! s3 o3 w3-s! s2 x2 o2 w2-s! s1 w1-s! x0"},
		{mix, 3, graph.ReverseFirstK(5, 2), "z f1+a+s-s f2+a+s-s-p f3+a+s-s-p f4+a+s-s f5+s-s-p L " +
			"r4+a+s r5+s w5 x4 o5-s! w4 x3 o4-s! r1+a+s r2+a+s s3 w3 x2 o3-s! o2 w1-s! x0 w2-s! x1"},
	} {
		rows, err := recomputeRows(5, c.srcs, c.sched, c.every)
		if err != nil {
			t.Fatalf("every=%d: %v", c.every, err)
		}
		if got := rowsString(rows); got != c.want {
			t.Errorf("%v every=%d:\n got %s\nwant %s", c.srcs, c.every, got, c.want)
		}
	}
}

// TestRecomputeRowsMatchExecution: on the three reference nets, for every =
// 1..3, the table's restash and re-forward rows are exactly what the executed
// step reports as RestashedLayers and RecomputedLayers, and with
// checkpointing on every layer's stash is rebuilt exactly once — by a restash
// or by a re-forward that holds it. A re-forward remains only where a source
// is not a checkpoint: at every = 3 on the MLP and the conv net, and at both
// intervals on the token net, whose LayerNorm and Dense layers read odd
// activations.
func TestRecomputeRowsMatchExecution(t *testing.T) {
	want := map[string][4][2]int{ // every → {restashed, re-forwarded}
		"mlp":  {2: {7, 0}, 3: {4, 3}},
		"conv": {2: {7, 0}, 3: {4, 3}},
		"nlp":  {2: {3, 3}, 3: {3, 3}},
	}
	for _, tc := range execCases() {
		net := tc.build()
		L := len(net.Layers)
		for every := 1; every <= 3; every++ {
			sched := graph.ReverseFirstK(L, 2)
			rows, err := recomputeRows(L, stashSources(net), sched, every)
			if err != nil {
				t.Fatal(err)
			}
			restash, refwd, rebuilt := 0, 0, 0
			for _, r := range rows {
				switch {
				case r.kind == rowRestash:
					restash++
					rebuilt++
				case r.flags&reFwd != 0:
					refwd++
					if r.flags&holdStash != 0 {
						rebuilt++
					}
				}
			}
			_, st, err := NewExecutor(ExecSerial, 0).StepRecompute(net, tc.x, tc.labels, sched, every, &nn.SGD{LR: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			w := want[tc.name][every]
			if restash != w[0] || refwd != w[1] || st.RestashedLayers != restash || st.RecomputedLayers != refwd {
				t.Errorf("%s every=%d: %d restash and %d re-forward rows, step reports %d and %d, want %d and %d",
					tc.name, every, restash, refwd, st.RestashedLayers, st.RecomputedLayers, w[0], w[1])
			}
			if wantRebuilt := map[bool]int{false: 0, true: L}[every > 1]; rebuilt != wantRebuilt {
				t.Errorf("%s every=%d: %d stashes rebuilt, want %d: %s", tc.name, every, rebuilt, wantRebuilt, rowsString(rows))
			}
		}
	}
}

// TestRecomputeRejectsAtConstruction: the two conditions the checkpointed walk
// used to detect in the middle of a step — an op whose gradient is gone, a
// re-forward whose source is gone — are errors of the generator, and a
// schedule StepRecompute cannot run fails before any op does.
func TestRecomputeRejectsAtConstruction(t *testing.T) {
	dO := func(i int) graph.Op { return graph.Op{Kind: graph.OutGrad, Layer: i} }
	dW := func(i int) graph.Op { return graph.Op{Kind: graph.WeightGrad, Layer: i} }
	for _, c := range []struct {
		name  string
		sched graph.BackwardSchedule
		want  string
	}{
		{"δW before the δO that feeds it", graph.BackwardSchedule{dW(1), dO(2), dW(2), dO(1)}, "gradient was released"},
		{"op repeated after its gradient's last use", graph.BackwardSchedule{dO(2), dW(2), dW(2), dO(1), dW(1)}, "gradient was released"},
		{"op repeated after the batch was released", graph.BackwardSchedule{dO(2), dW(2), dO(1), dW(1), dW(1)}, "source for layer 1 already released"},
	} {
		if _, err := recomputeRows(2, []nn.StashSource{nn.StashFromInput, nn.StashFromOutput}, c.sched, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
		x, labels := data.Vectors(3, 4, 8, 3)
		net := MLPNet(1, 8, 4, 0, 3)
		net.Layers = append(net.Layers, nn.NewReLU("top")) // L = 2
		before := ParamSnapshot(net)
		e := NewExecutor(ExecSerial, 0)
		events := 0
		e.Observe(func(OpEvent) { events++ })
		if _, _, err := e.StepRecompute(net, x, labels, c.sched, 2, &nn.SGD{LR: 0.05}); err == nil {
			t.Errorf("%s: StepRecompute accepted the schedule", c.name)
		}
		if events != 0 || !SnapshotsEqual(before, ParamSnapshot(net)) {
			t.Errorf("%s: the rejected step ran %d ops", c.name, events)
		}
	}
}

// TestStageRowsGolden pins the pipeline generator — GPipe and 1F1B on (S, M) ∈
// {(2,4), (3,4)}, fill on and off — and its contract on every stage of larger
// shapes: each microbatch forwarded and backwarded once, backwards in
// ascending microbatch order per layer.
func TestStageRowsGolden(t *testing.T) {
	golden := map[string]string{
		"gpipe S2 s0": "f1#1 f2#1 sa2#1 f1#2 f2#2 sa2#2 f1#3 f2#3 sa2#3 f1#4 f2#4 sa2#4 " +
			"rg2#1 w2#1~ o2#1 w1#1~ rg2#2 w2#2~ o2#2 w1#2~ rg2#3 w2#3~ o2#3 w1#3~ rg2#4 w2#4~ o2#4 w1#4~",
		"gpipe S2 s1": "ra2#1 f3#1 f4#1 ra2#2 f3#2 f4#2 ra2#3 f3#3 f4#3 ra2#4 f3#4 f4#4 " +
			"L#1 w4#1~ o4#1 w3#1~ o3#1 sg2#1 L#2 w4#2~ o4#2 w3#2~ o3#2 sg2#2 L#3 w4#3~ o4#3 w3#3~ o3#3 sg2#3 L#4 w4#4~ o4#4 w3#4~ o3#4 sg2#4",
		"1f1b S2 s0": "f1#1 f2#1 sa2#1 f1#2 f2#2 sa2#2 rg2#1 w2#1~ o2#1 w1#1~ f1#3 f2#3 sa2#3 rg2#2 w2#2~ o2#2 w1#2~ " +
			"f1#4 f2#4 sa2#4 rg2#3 w2#3~ o2#3 w1#3~ rg2#4 w2#4~ o2#4 w1#4~",
		"1f1b S2 s1": "ra2#1 f3#1 f4#1 L#1 w4#1~ o4#1 w3#1~ o3#1 sg2#1 ra2#2 f3#2 f4#2 L#2 w4#2~ o4#2 w3#2~ o3#2 sg2#2 " +
			"ra2#3 f3#3 f4#3 L#3 w4#3~ o4#3 w3#3~ o3#3 sg2#3 ra2#4 f3#4 f4#4 L#4 w4#4~ o4#4 w3#4~ o3#4 sg2#4",
		"gpipe S3 s0": "f1#1 sa1#1 f1#2 sa1#2 f1#3 sa1#3 f1#4 sa1#4 rg1#1 w1#1~ rg1#2 w1#2~ rg1#3 w1#3~ rg1#4 w1#4~",
		"gpipe S3 s1": "ra1#1 f2#1 sa2#1 ra1#2 f2#2 sa2#2 ra1#3 f2#3 sa2#3 ra1#4 f2#4 sa2#4 " +
			"rg2#1 w2#1~ o2#1 sg1#1 rg2#2 w2#2~ o2#2 sg1#2 rg2#3 w2#3~ o2#3 sg1#3 rg2#4 w2#4~ o2#4 sg1#4",
		"gpipe S3 s2": "ra2#1 f3#1 ra2#2 f3#2 ra2#3 f3#3 ra2#4 f3#4 " +
			"L#1 w3#1~ o3#1 sg2#1 L#2 w3#2~ o3#2 sg2#2 L#3 w3#3~ o3#3 sg2#3 L#4 w3#4~ o3#4 sg2#4",
		"1f1b S3 s0": "f1#1 sa1#1 f1#2 sa1#2 f1#3 sa1#3 rg1#1 w1#1~ f1#4 sa1#4 rg1#2 w1#2~ rg1#3 w1#3~ rg1#4 w1#4~",
		"1f1b S3 s1": "ra1#1 f2#1 sa2#1 ra1#2 f2#2 sa2#2 rg2#1 w2#1~ o2#1 sg1#1 ra1#3 f2#3 sa2#3 rg2#2 w2#2~ o2#2 sg1#2 " +
			"ra1#4 f2#4 sa2#4 rg2#3 w2#3~ o2#3 sg1#3 rg2#4 w2#4~ o2#4 sg1#4",
		"1f1b S3 s2": "ra2#1 f3#1 L#1 w3#1~ o3#1 sg2#1 ra2#2 f3#2 L#2 w3#2~ o3#2 sg2#2 ra2#3 f3#3 L#3 w3#3~ o3#3 sg2#3 ra2#4 f3#4 L#4 w3#4~ o3#4 sg2#4",
	}
	for _, sched := range []PipeSchedule{PipeGPipe, Pipe1F1B} {
		for _, S := range []int{2, 3} {
			part, err := graph.PartitionEven(map[int]int{2: 4, 3: 3}[S], S)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < S; s++ {
				lo, hi := part.Range(s)
				name := fmt.Sprintf("%v S%d s%d", sched, S, s)
				if got := rowsString(stageRows(sched, s, S, 4, lo, hi, true)); got != golden[name] {
					t.Errorf("%s fill on:\n got %s\nwant %s", name, got, golden[name])
				}
				// Fill off is the same table with every δW inline.
				if got, want := rowsString(stageRows(sched, s, S, 4, lo, hi, false)), strings.ReplaceAll(golden[name], "~", ""); got != want {
					t.Errorf("%s fill off:\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
	for _, sched := range []PipeSchedule{PipeGPipe, Pipe1F1B} {
		for S := 2; S <= 5; S++ {
			for s := 0; s < S; s++ {
				for M := S; M <= S+3; M++ {
					fwd := map[int]int{}
					nextDW := map[int]int{}
					for _, r := range stageRows(sched, s, S, M, 2*s, 2*s+2, true) {
						switch r.kind {
						case rowFwd:
							fwd[r.micro]++
						case rowDW:
							if nextDW[r.layer]++; r.micro != nextDW[r.layer] {
								t.Fatalf("%v S=%d s=%d M=%d: layer %d backward order broken at microbatch %d", sched, S, s, M, r.layer, r.micro)
							}
						}
					}
					for m := 1; m <= M; m++ {
						if fwd[m] != 2 || nextDW[2*s+1] != M || nextDW[2*s+2] != M {
							t.Fatalf("%v S=%d s=%d M=%d: forwards %v, backwards %v", sched, S, s, M, fwd, nextDW)
						}
					}
				}
			}
		}
	}
}

// TestPublishRows: under conventional and reverse-first-k orders × per-layer,
// default and single-bucket plans, every bucket is published exactly once,
// right after the last δW of its members and never before, and the table is
// otherwise the serial one.
func TestPublishRows(t *testing.T) {
	net := MLPNet(11, 16, 24, 4, 3)
	L := len(net.Layers)
	for _, sched := range []graph.BackwardSchedule{graph.Conventional(L), graph.ReverseFirstK(L, 4)} {
		a, err := graph.Analyze(L, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, bb := range []int64{-1, defaultBucketBytes, 1 << 40} {
			plan := newReducePlan(net, a, SyncCompletion, bb)
			serial := stepRows(L, sched, 0)
			rows := publishRows(serial, plan)
			var stripped []row
			published := make([]int, len(plan.buckets))
			dwDone := make([]bool, L+1)
			for i, r := range rows {
				switch r.kind {
				case rowDW:
					dwDone[r.layer] = true
				case rowPublish:
					published[r.layer]++
					last := rows[i-1]
					if last.kind != rowDW || plan.layerBucket[last.layer] != r.layer {
						t.Fatalf("bucket %d published after %v, not after a member δW", r.layer, last)
					}
					for _, member := range plan.buckets[r.layer].layers {
						if !dwDone[member] {
							t.Fatalf("bucket %d published before δW of member layer %d", r.layer, member)
						}
					}
					continue
				}
				stripped = append(stripped, r)
			}
			for b, n := range published {
				if n != 1 {
					t.Fatalf("bucket %d published %d times", b, n)
				}
			}
			if rowsString(stripped) != rowsString(serial) {
				t.Fatalf("publish rows changed the table:\n got %s\nwant %s", rowsString(stripped), rowsString(serial))
			}
		}
	}
	// One golden: Dense/ReLU/Dense, a bucket per parameter layer (bucket 0 is
	// the head, assigned first by the L→1 walk). Deferring δW_1 and δW_2 moves
	// only bucket 1's publish point.
	small := MLPNet(11, 16, 24, 1, 3)
	for _, c := range []struct {
		sched graph.BackwardSchedule
		want  string
	}{
		{graph.Conventional(3), "z f1 f2 f3 L o3 w3 P0 o2 w2 w1 P1"},
		{graph.ReverseFirstK(3, 2), "z f1 f2 f3 L w3 P0 o3 o2 w1 P1 w2"},
	} {
		a, _ := graph.Analyze(3, c.sched)
		if got := rowsString(publishRows(stepRows(3, c.sched, 0), newReducePlan(small, a, SyncLayerPriority, -1))); got != c.want {
			t.Errorf("publish golden:\n got %s\nwant %s", got, c.want)
		}
	}
}
