package xir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func kinds(ks []Kernel) [][]OpKind {
	var out [][]OpKind
	for _, k := range ks {
		var row []OpKind
		for _, op := range k.Ops {
			row = append(row, op.Kind)
		}
		out = append(out, row)
	}
	return out
}

func TestFuseConvBNReLU(t *testing.T) {
	// conv → bn_stats → scale → shift → relu: the stats reduction cannot
	// fuse into the conv's epilogue... it CAN per our rules? conv opens the
	// kernel but bn_stats requires a pure-elementwise kernel — so it starts
	// its own; scale/shift/relu then pile onto nothing open → own kernel.
	ops := []Op{
		{Compute, "conv"}, {Reduction, "bn_stats"},
		{Elementwise, "scale"}, {Elementwise, "shift"}, {Elementwise, "relu"},
	}
	ks := Fuse(ops)
	if len(ks) != 3 {
		t.Fatalf("kernels = %d (%v), want 3 (conv | stats | fused ew)", len(ks), kinds(ks))
	}
	if len(ks[2].Ops) != 3 {
		t.Fatalf("elementwise chain not fused: %v", kinds(ks))
	}
}

func TestFuseGEMMEpilogue(t *testing.T) {
	// gemm → bias → relu fuses into ONE kernel.
	ks := Fuse(DenseForward(2))
	if len(ks) != 1 || len(ks[0].Ops) != 3 {
		t.Fatalf("gemm epilogue not fused: %v", kinds(ks))
	}
}

func TestOpaqueBreaksFusion(t *testing.T) {
	ops := []Op{{Compute, "conv"}, {Elementwise, "relu"}, {Opaque, "concat"}, {Elementwise, "post"}}
	ks := Fuse(ops)
	if len(ks) != 3 {
		t.Fatalf("kernels = %d (%v), want 3", len(ks), kinds(ks))
	}
}

func TestElementwiseIntoReduction(t *testing.T) {
	// ew → ew → reduce: input-side fusion into one kernel.
	ops := []Op{{Elementwise, "a"}, {Elementwise, "b"}, {Reduction, "sum"}}
	ks := Fuse(ops)
	if len(ks) != 1 {
		t.Fatalf("input fusion failed: %v", kinds(ks))
	}
}

func TestFusionConservesOps(t *testing.T) {
	ops := ConvForward(5)
	ks := Fuse(ops)
	if opCount(ks) != len(ops) {
		t.Fatalf("fusion lost ops: %d vs %d", opCount(ks), len(ops))
	}
}

func TestFusedKernelCountMatchesExecutorCalibration(t *testing.T) {
	// The singlegpu executors model XLA fusion as ceil(n/2). The IR pass
	// should land in the same neighbourhood for the kernel counts the model
	// zoo emits (1–7 kernels per computation).
	for total := 1; total <= 7; total++ {
		irConv := FusedKernelCount(total, true)
		irDense := FusedKernelCount(total, false)
		heuristic := (total + 1) / 2
		if diff := irConv - heuristic; diff < -1 || diff > 1 {
			t.Errorf("conv total=%d: IR %d vs heuristic %d", total, irConv, heuristic)
		}
		if irDense > heuristic {
			t.Errorf("dense total=%d: IR %d above heuristic %d", total, irDense, heuristic)
		}
	}
}

// Property: fusion conserves op count and order, never emits empty kernels,
// and is idempotent when re-run over the flattened result... (re-running on
// the flattened ops must give the same kernel count).
func TestFuseInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 1
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpKind(rng.Intn(4))}
		}
		ks := Fuse(ops)
		if opCount(ks) != n {
			return false
		}
		// Order preserved.
		idx := 0
		for _, k := range ks {
			if len(k.Ops) == 0 {
				return false
			}
			for _, op := range k.Ops {
				if op.Kind != ops[idx].Kind {
					return false
				}
				idx++
			}
		}
		// Idempotence on the flattened sequence.
		flat := make([]Op, 0, n)
		for _, k := range ks {
			flat = append(flat, k.Ops...)
		}
		return len(Fuse(flat)) == len(ks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		Compute: "compute", Elementwise: "elementwise",
		Reduction: "reduction", Opaque: "opaque",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
	if OpKind(42).String() != "OpKind(42)" {
		t.Fatalf("unknown kind string = %q", OpKind(42).String())
	}
}

func TestTransformerForwardShapes(t *testing.T) {
	// Truncation below the canonical 12 ops.
	short := TransformerForward(5)
	if len(short) != 5 {
		t.Fatalf("len = %d, want 5", len(short))
	}
	// Extension above it pads with elementwise companions.
	long := TransformerForward(15)
	if len(long) != 15 {
		t.Fatalf("len = %d, want 15", len(long))
	}
	for _, op := range long[12:] {
		if op.Kind != Elementwise {
			t.Fatalf("padding op kind = %v", op.Kind)
		}
	}
	// Six compute GEMMs in the canonical shape.
	var computes int
	for _, op := range TransformerForward(12) {
		if op.Kind == Compute {
			computes++
		}
	}
	if computes != 6 {
		t.Fatalf("computes = %d, want 6", computes)
	}
}

func TestFusedKernelCountFloor(t *testing.T) {
	if got := FusedKernelCount(0, true); got != 1 {
		t.Fatalf("0 kernels fused to %d, want 1", got)
	}
	if got := FusedKernelCount(1, false); got != 1 {
		t.Fatalf("bare gemm fused to %d, want 1", got)
	}
}

// opCount sums the ops across kernels (fusion must conserve ops).
func opCount(ks []Kernel) int {
	n := 0
	for _, k := range ks {
		n += len(k.Ops)
	}
	return n
}
