package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"oooback/internal/tensor"
)

// wsCase builds one layer plus a forward input generator (fresh data each
// round, so buffer-reuse bugs can't hide behind identical inputs).
type wsCase struct {
	name  string
	layer Layer
	input func(r *tensor.RNG) *tensor.Tensor
}

func wsCases(r *tensor.RNG) []wsCase {
	tokenInput := func(r *tensor.RNG) *tensor.Tensor {
		x := tensor.New(2, 3)
		for i := range x.Data {
			x.Data[i] = float64(r.Uint64() % 10)
		}
		return x
	}
	return []wsCase{
		{"dense", NewDense("d", 4, 7, r), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 5, 4) }},
		{"relu", NewReLU("r"), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 5, 6) }},
		{"conv", NewConv2D("c", 3, 2, 3, 3, r), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 2, 2, 6, 6) }},
		{"maxpool", NewMaxPool2("mp"), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 1, 2, 4, 4) }},
		{"flatten", NewFlatten("f"), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 2, 3, 4, 4) }},
		{"embedding", NewEmbedding("e", 10, 5, r), tokenInput},
		{"layernorm", NewLayerNorm("ln", 6, r), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 4, 6) }},
		{"meanpool", NewMeanPool1D("pool", 3), func(r *tensor.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 6, 5) }},
	}
}

func zeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}

func cloneGrads(l Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range l.Params() {
		out = append(out, p.Grad.Clone())
	}
	return out
}

// TestPooledBackwardMatchesPlainBitwise runs every layer's pooled backward
// against the plain allocating backward and requires bit-identical δO and
// parameter gradients from zeroed gradients — over two rounds with fresh data,
// so retained buffers must be correctly overwritten on reuse.
func TestPooledBackwardMatchesPlainBitwise(t *testing.T) {
	r := tensor.NewRNG(2024)
	for _, c := range wsCases(r) {
		t.Run(c.name, func(t *testing.T) {
			ws := tensor.NewWorkspace()
			for round := 0; round < 2; round++ {
				x := c.input(r)
				out := c.layer.Forward(x)
				g := tensor.Randn(r, 1, out.Shape...)

				plainGin := c.layer.InputGrad(g).Clone()
				zeroGrads(c.layer)
				c.layer.WeightGrad(g)
				want := cloneGrads(c.layer)

				gotGin := c.layer.InputGradWS(g, ws)
				zeroGrads(c.layer)
				c.layer.WeightGradAcc(g)
				got := cloneGrads(c.layer)

				if len(plainGin.Shape) != len(gotGin.Shape) {
					t.Fatalf("round %d: δO rank %v vs %v", round, plainGin.Shape, gotGin.Shape)
				}
				for i := range plainGin.Shape {
					if plainGin.Shape[i] != gotGin.Shape[i] {
						t.Fatalf("round %d: δO shape %v vs %v", round, plainGin.Shape, gotGin.Shape)
					}
				}
				if !tensor.Equal(plainGin, gotGin) {
					t.Fatalf("round %d: pooled δO differs from plain δO", round)
				}
				for i := range want {
					if !tensor.Equal(want[i], got[i]) {
						t.Fatalf("round %d: pooled grad for %s differs", round, c.layer.Params()[i].Name)
					}
				}
			}
		})
	}
}

// TestPooledBackwardWarmAllocs: after one warm-up round, a full pooled
// backward (δO + δW) for every layer touches the allocator zero times.
func TestPooledBackwardWarmAllocs(t *testing.T) {
	r := tensor.NewRNG(77)
	for _, c := range wsCases(r) {
		t.Run(c.name, func(t *testing.T) {
			ws := tensor.NewWorkspace()
			x := c.input(r)
			out := c.layer.Forward(x)
			g := tensor.Randn(r, 1, out.Shape...)
			cycle := func() {
				c.layer.InputGradWS(g, ws)
				c.layer.WeightGradAcc(g)
			}
			cycle() // warm retained buffers and the workspace pool
			if n := testing.AllocsPerRun(20, cycle); n != 0 {
				t.Fatalf("warm pooled backward allocates %v per run, want 0", n)
			}
		})
	}
}

// TestReLUPooledSelectMatchesPlainBitwise pins the branch-free select of
// ReLU.ForwardWS / InputGradWS to the plain `v > 0 ? v : 0` on every class of
// bit pattern a comparison treats specially — both zeros, NaN of either sign
// and any payload, both infinities, subnormals — and on random data: same
// output bits, same keep mask, same gradient bits.
func TestReLUPooledSelectMatchesPlainBitwise(t *testing.T) {
	patterns := []uint64{
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff8000000000000, 0xfff8000000000000, // ±quiet NaN
		0x7ff0000000000001, 0xfff0000000000001, // ±signalling NaN, smallest payload
		0x7fffffffffffffff, 0xffffffffffffffff, // ±NaN, all payload bits
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x0000000000000001, 0x8000000000000001, // ±smallest subnormal
		0x000fffffffffffff, 0x800fffffffffffff, // ±largest subnormal
		0x0010000000000000, 0x8010000000000000, // ±smallest normal
		0x7fefffffffffffff, 0xffefffffffffffff, // ±largest finite
		0x3ff0000000000000, 0xbff0000000000000, // ±1
	}
	r := tensor.NewRNG(404)
	x := tensor.Randn(r, 1, 1, len(patterns)+200)
	g := tensor.Randn(r, 1, 1, len(patterns)+200)
	for i, p := range patterns {
		x.Data[i] = math.Float64frombits(p)
		// Gradients cycle through the same patterns, offset so each meets
		// kept and dropped positions.
		g.Data[i] = math.Float64frombits(patterns[(i+3)%len(patterns)])
	}
	plain, pooled := NewReLU("plain"), NewReLU("pooled")
	ws := tensor.NewWorkspace()
	for round := 0; round < 2; round++ { // second round reuses retained buffers
		want, got := plain.Forward(x), pooled.ForwardWS(x, ws)
		if !tensor.Equal(want, got) {
			t.Fatalf("round %d: pooled forward differs from plain forward", round)
		}
		for i := range plain.mask {
			if plain.mask[i] != pooled.mask[i] {
				t.Fatalf("round %d: keep mask[%d] (x bits %#x): plain %v, pooled %v",
					round, i, math.Float64bits(x.Data[i]), plain.mask[i], pooled.mask[i])
			}
		}
		if !tensor.Equal(plain.InputGrad(g), pooled.InputGradWS(g, ws)) {
			t.Fatalf("round %d: pooled δO differs from plain δO", round)
		}
	}
}

// TestReLUStaleMaskPanics: a backward call whose keep mask was dropped
// (DropStash without a re-run) or belongs to another shape is a diagnostic
// panic on both paths, not a bare index-out-of-range.
func TestReLUStaleMaskPanics(t *testing.T) {
	r := tensor.NewRNG(6)
	x, g := tensor.Randn(r, 1, 4, 6), tensor.Randn(r, 1, 4, 6)
	ws := tensor.NewWorkspace()
	backward := map[string]func(l *ReLU, g *tensor.Tensor){
		"InputGrad":   func(l *ReLU, g *tensor.Tensor) { l.InputGrad(g) },
		"InputGradWS": func(l *ReLU, g *tensor.Tensor) { l.InputGradWS(g, ws) },
	}
	for name, call := range backward {
		for _, tc := range []struct {
			name  string
			spoil func(l *ReLU) *tensor.Tensor // returns the gradient to pass
		}{
			{"dropped", func(l *ReLU) *tensor.Tensor { l.DropStash(); return g }},
			{"larger gradient", func(*ReLU) *tensor.Tensor { return tensor.Randn(r, 1, 5, 6) }},
			{"smaller gradient", func(*ReLU) *tensor.Tensor { return tensor.Randn(r, 1, 2, 6) }},
		} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				l := NewReLU("relu")
				l.ForwardWS(x, ws)
				call(l, g) // a matching mask is fine
				bad := tc.spoil(l)
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "keep mask") {
						t.Fatalf("want a keep-mask diagnostic, got panic %q", msg)
					}
				}()
				call(l, bad)
			})
		}
	}
}

// stashCases are the layer types, each with a batch-sized input and
// gradient generator and the backward entry points that read what DropStash
// releases (Dense's and Embedding's δO need only weights or shapes; Flatten
// drops nothing).
type stashCase struct {
	name  string
	build func() Layer
	x     func(batch int) *tensor.Tensor
	grad  func(batch int) *tensor.Tensor
	reads []string
}

func stashCases(r *tensor.RNG) []stashCase {
	tokens := func(b int) *tensor.Tensor {
		x := tensor.New(b, 2)
		for i := range x.Data {
			x.Data[i] = float64(r.Uint64() % 10)
		}
		return x
	}
	both := []string{"InputGrad", "InputGradWS", "WeightGrad", "WeightGradAcc"}
	dw := both[2:]
	return []stashCase{
		{"conv", func() Layer { return NewConv2D("c", 4, 2, 3, 3, r) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 2, 7, 6) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 4, 5, 4) }, both},
		{"dense", func() Layer { return NewDense("d", 6, 5, r) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 6) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 5) }, dw},
		{"relu", func() Layer { return NewReLU("r") },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 6) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 6) }, both[:2]},
		{"maxpool", func() Layer { return NewMaxPool2("mp") },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 2, 4, 6) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 2, 2, 3) }, both[:2]},
		{"embedding", func() Layer { return NewEmbedding("e", 10, 5, r) }, tokens,
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, 2*b, 5) }, dw},
		{"layernorm", func() Layer { return NewLayerNorm("ln", 6, r) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 6) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 6) }, both},
		{"meanpool", func() Layer { return NewMeanPool1D("pool", 3) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, 3*b, 5) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 5) }, both[:2]},
		{"flatten", func() Layer { return NewFlatten("flat") },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 2, 3, 2) },
			func(b int) *tensor.Tensor { return tensor.Randn(r, 1, b, 12) }, nil},
	}
}

// wantStashPanic, deferred, fails t unless the call it guards panicked with
// the stash diagnostic.
func wantStashPanic(t *testing.T) {
	msg, _ := recover().(string)
	if !strings.Contains(msg, "stash dropped, or stale from another shape?") {
		t.Fatalf("want the stash diagnostic, got panic %q", msg)
	}
}

// TestDroppedStashPanics: every backward entry point of every layer that
// reads stashed forward state — plain and pooled — answers a call before any
// forward pass, after DropStash without a re-forward, or with a gradient of a
// smaller or a larger batch, with the stash diagnostic instead of a nil
// dereference, an index out of range or a result silently shaped for the
// stashed batch. The drop keeps capacity (a truncated slice, a parked
// tensor), so this is the state a checkpointed step leaves a layer in.
func TestDroppedStashPanics(t *testing.T) {
	r := tensor.NewRNG(8)
	ws := tensor.NewWorkspace()
	for _, lc := range stashCases(r) {
		for _, name := range lc.reads {
			call := func(l Layer, g *tensor.Tensor) {
				switch name {
				case "InputGrad":
					l.InputGrad(g)
				case "InputGradWS":
					l.InputGradWS(g, ws)
				case "WeightGrad":
					l.WeightGrad(g)
				case "WeightGradAcc":
					l.WeightGradAcc(g)
				}
			}
			t.Run(fmt.Sprintf("%s/%s/not forwarded", lc.name, name), func(t *testing.T) {
				l := lc.build()
				defer wantStashPanic(t)
				call(l, lc.grad(3))
			})
			for _, tc := range []struct {
				name  string
				spoil func(l Layer) *tensor.Tensor // returns the gradient to pass
			}{
				{"dropped", func(l Layer) *tensor.Tensor { l.DropStash(); return lc.grad(3) }},
				{"other batch", func(Layer) *tensor.Tensor { return lc.grad(2) }},
				{"larger batch", func(Layer) *tensor.Tensor { return lc.grad(4) }},
			} {
				for _, pooled := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%s/pooled=%v", lc.name, name, tc.name, pooled), func(t *testing.T) {
						l := lc.build()
						if pooled {
							l.ForwardWS(lc.x(3), ws)
						} else {
							l.Forward(lc.x(3))
						}
						call(l, lc.grad(3)) // a matching stash is fine
						bad := tc.spoil(l)
						defer wantStashPanic(t)
						call(l, bad)
					})
				}
			}
		}
	}
}

// TestDroppedStashKeepsCapacity: after DropStash a layer reports no stash
// bytes, and what rebuilds it — a pooled forward, or a Restash from the tensor
// StashSource names after a pooled or a plain forward, at the same batch or a
// smaller one — does so in the buffers the drop left behind: no allocation,
// the full stash bytes, and the same bits as a layer that never dropped
// anything.
func TestDroppedStashKeepsCapacity(t *testing.T) {
	r := tensor.NewRNG(21)
	ws := tensor.NewWorkspace()
	for _, lc := range stashCases(r) {
		t.Run(lc.name, func(t *testing.T) {
			l := lc.build()
			l.Forward(lc.x(4))
			l.DropStash()
			if b := l.StashBytes(); b != 0 {
				t.Fatalf("StashBytes after DropStash = %d, want 0", b)
			}
			l.ForwardWS(lc.x(4), ws)
			full := l.StashBytes()
			for _, batch := range []int{4, 2} {
				for _, how := range []string{"re-forward", "restash after pooled forward", "restash after plain forward"} {
					x, g := lc.x(batch), lc.grad(batch)
					forward := func(x *tensor.Tensor) *tensor.Tensor { return l.ForwardWS(x, ws) }
					if how == "restash after plain forward" {
						forward = l.Forward
					}
					// The source is a copy of the output, taken before a
					// forward on other values leaves its stash — and its
					// retained output buffer — in the buffers the restash
					// must overwrite.
					out := forward(x).Clone()
					src := map[StashSource]*tensor.Tensor{StashFromInput: x, StashFromOutput: out}[l.StashSource()]
					forward(lc.x(batch))
					if allocs := testing.AllocsPerRun(5, func() {
						l.DropStash()
						if how == "re-forward" {
							out = l.ForwardWS(x, ws)
						} else {
							l.Restash(src)
						}
					}); allocs != 0 {
						t.Fatalf("batch %d: drop + %s allocates %v times, want 0", batch, how, allocs)
					}
					if got, want := l.StashBytes(), full*int64(batch)/4; got != want {
						t.Fatalf("batch %d: StashBytes after the %s = %d, want %d", batch, how, got, want)
					}
					fresh := lc.build()
					copyParams(fresh, l)
					if !tensor.Equal(out, fresh.Forward(x)) {
						t.Fatalf("batch %d %s: forward on parked buffers differs from a fresh layer's", batch, how)
					}
					zeroGrads(l)
					zeroGrads(fresh)
					if !tensor.Equal(l.InputGradWS(g, ws), fresh.InputGrad(g)) {
						t.Fatalf("batch %d: δO on the stash rebuilt by %s differs", batch, how)
					}
					l.WeightGradAcc(g)
					fresh.WeightGrad(g)
					for i, p := range l.Params() {
						if !tensor.Equal(p.Grad, fresh.Params()[i].Grad) {
							t.Fatalf("batch %d: δW of %s on the stash rebuilt by %s differs", batch, p.Name, how)
						}
					}
				}
			}
		})
	}
}

// copyParams makes dst's parameter values equal src's.
func copyParams(dst, src Layer) {
	for i, p := range src.Params() {
		copy(dst.Params()[i].Value.Data, p.Value.Data)
	}
}

// TestConv2DForwardMatchesRepackingReference: the layer's forward — per-image
// GEMMs written straight into NCHW — equals tensor.Conv2D, the im2col +
// pixel-major GEMM + repack reference, bit for bit, warm buffers included —
// and owns no stash afterwards: the input it borrows is all δW reads.
func TestConv2DForwardMatchesRepackingReference(t *testing.T) {
	r := tensor.NewRNG(12)
	l := NewConv2D("c", 5, 3, 3, 3, r)
	for _, n := range []int{4, 1, 3} { // shrinking and growing retained buffers
		x := tensor.Randn(r, 1, n, 3, 9, 7)
		if !tensor.Equal(l.Forward(x), tensor.Conv2D(x, l.W.Value)) {
			t.Fatalf("batch %d: Conv2D.Forward differs from tensor.Conv2D", n)
		}
		if b := l.StashBytes(); b != 0 {
			t.Fatalf("batch %d: StashBytes after a forward = %d, want 0", n, b)
		}
	}
}

// TestConv2DFollowsRepointedWeights: the layer's [F, K] view of its weights is
// re-derived when Param.Value is pointed at another tensor, so every path
// trains on the weights the parameter holds — and an in-place update keeps the
// view it has.
func TestConv2DFollowsRepointedWeights(t *testing.T) {
	r := tensor.NewRNG(77)
	l := NewConv2D("c", 4, 2, 3, 3, r)
	x, g := tensor.Randn(r, 1, 2, 2, 6, 5), tensor.Randn(r, 1, 2, 4, 4, 3)
	ws := tensor.NewWorkspace()
	l.Forward(x)
	view := l.wm
	l.W.Value.Data[0] += 1 // what the optimizers do
	if l.Forward(x); l.wm != view {
		t.Fatal("an in-place update rebuilt the weight view")
	}
	l.W.Value = tensor.Randn(r, 1, 4, 2, 3, 3)
	if !tensor.Equal(l.Forward(x), tensor.Conv2D(x, l.W.Value)) {
		t.Fatal("forward after re-pointing W.Value used the old weights")
	}
	if !tensor.Equal(l.InputGradWS(g, ws), tensor.Conv2DInputGrad(g, l.W.Value, 6, 5)) {
		t.Fatal("δO after re-pointing W.Value used the old weights")
	}
}

// reluSpecials are the tensor suite's rectifier specials: both zeros, NaNs of
// both signs and with a payload, infinities, subnormals, the extremes.
var reluSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff8000000abcdef),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// TestReLURestashMatchesForwardMask: a keep mask rebuilt by DropStash +
// Restash from the forward's output equals, byte for byte, the mask that
// forward wrote — on lengths 0–9 and 50 001, with every special value in
// every lane position. Between the forward and the rebuild a forward on the
// complementary signs leaves every mask byte wrong, so a rebuild that skips
// an element shows.
func TestReLURestashMatchesForwardMask(t *testing.T) {
	r := tensor.NewRNG(47)
	ws := tensor.NewWorkspace()
	maskBytes := func(m []bool) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), len(m)) }
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50001} {
		for phase := 0; phase < len(reluSpecials); phase++ {
			x := &tensor.Tensor{Shape: []int{n}, Data: make([]float64, n)}
			for i := range x.Data {
				if i%3 == 0 {
					x.Data[i] = reluSpecials[(i/3+phase)%len(reluSpecials)]
				} else {
					x.Data[i] = r.Norm()
				}
			}
			l := NewReLU("relu")
			if n == 0 {
				// No forward takes an empty tensor; the empty output of one
				// rebuilds an empty mask over a longer stale one.
				l.ForwardWS(tensor.Randn(r, 1, 5), ws)
				l.DropStash()
				l.Restash(x)
				if len(l.mask) != 0 {
					t.Fatalf("restash of an empty output left %d mask entries", len(l.mask))
				}
				continue
			}
			out := l.ForwardWS(x, ws).Clone()
			want := append([]byte(nil), maskBytes(l.mask)...)
			flip := &tensor.Tensor{Shape: []int{n}, Data: make([]float64, n)}
			for i, k := range want {
				flip.Data[i] = 1 - 2*float64(k)
			}
			l.ForwardWS(flip, ws)
			l.DropStash()
			l.Restash(out)
			got := maskBytes(l.mask)
			if len(got) != n {
				t.Fatalf("n=%d phase=%d: restashed mask has %d entries", n, phase, len(got))
			}
			for i := range want {
				if got[i] != want[i] || want[i] > 1 {
					t.Fatalf("n=%d phase=%d: restashed mask byte %d = %d, forward wrote %d (x = %v)", n, phase, i, got[i], want[i], x.Data[i])
				}
			}
		}
	}
}
