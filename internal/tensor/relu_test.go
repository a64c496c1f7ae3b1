package tensor

import (
	"math"
	"testing"
	"unsafe"
)

// reluSpecials meet the rectifier's compare and its bit select: both zeros,
// NaNs of both signs and with a payload, infinities, subnormals, the extremes.
var reluSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff8000000abcdef),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// TestReLUVectorMatchesGoLoop: forward, mask alone and backward, vector body
// against the Go loop, on lengths 0–9 and 50 001 at an odd element offset,
// every special value in every lane position. Outputs are compared as bits (a
// kept NaN keeps its payload on both paths — nothing is computed), the masks
// as bytes, each of which must be exactly 0 or 1; and all must agree with the
// definition.
func TestReLUVectorMatchesGoLoop(t *testing.T) {
	if !useVector {
		t.Skip("no vector path on this CPU (or this is the portable run)")
	}
	r := NewRNG(5)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50001} {
		for phase := 0; phase < len(reluSpecials); phase++ {
			fill := func(salt int) func(int) float64 {
				return func(i int) float64 {
					if (i+salt)%3 == 0 {
						return reluSpecials[(i/3+phase+salt)%len(reluSpecials)]
					}
					return r.Norm()
				}
			}
			x := &Tensor{Shape: []int{n}, Data: oddSlice(n, fill(0))}
			g := &Tensor{Shape: []int{n}, Data: oddSlice(n, fill(1))}
			type result struct {
				out, gin   *Tensor
				keep, mask []bool
			}
			run := func() result {
				res := result{out: Randn(r, 1, n+1), gin: Randn(r, 1, n+1), keep: make([]bool, n+1)[1:], mask: make([]bool, n+1)[1:]}
				res.out.Data, res.gin.Data = res.out.Data[1:], res.gin.Data[1:]
				for i := range res.mask {
					res.mask[i] = i%2 == 0
				}
				ReLUInto(res.out, res.keep, x)
				ReLUMaskInto(res.mask, x)
				ReLUGradInto(res.gin, g, res.keep)
				return res
			}
			vec := run()
			var ref result
			onGoPath(func() { ref = run() })
			bytesOf := func(m []bool) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), n) }
			vb, rb, vm, rm := bytesOf(vec.keep), bytesOf(ref.keep), bytesOf(vec.mask), bytesOf(ref.mask)
			for i := 0; i < n; i++ {
				if vb[i] != rb[i] || vb[i] > 1 {
					t.Fatalf("n=%d phase=%d: mask byte %d = %d, Go loop %d (x = %v)", n, phase, i, vb[i], rb[i], x.Data[i])
				}
				if vm[i] != vb[i] || rm[i] != vb[i] {
					t.Fatalf("n=%d phase=%d: mask alone byte %d = %d, Go loop %d, forward's %d (x = %v)", n, phase, i, vm[i], rm[i], vb[i], x.Data[i])
				}
				if want := x.Data[i] > 0; vec.keep[i] != want {
					t.Fatalf("n=%d phase=%d: keep[%d] = %v for x = %v", n, phase, i, vec.keep[i], x.Data[i])
				}
				wantOut, wantGin := uint64(0), uint64(0)
				if vec.keep[i] {
					wantOut, wantGin = math.Float64bits(x.Data[i]), math.Float64bits(g.Data[i])
				}
				for _, c := range []struct {
					what      string
					got, want uint64
				}{
					{"vector out", math.Float64bits(vec.out.Data[i]), wantOut}, {"Go out", math.Float64bits(ref.out.Data[i]), wantOut},
					{"vector gin", math.Float64bits(vec.gin.Data[i]), wantGin}, {"Go gin", math.Float64bits(ref.gin.Data[i]), wantGin},
				} {
					if c.got != c.want {
						t.Fatalf("n=%d phase=%d: %s[%d] = %x, want %x (x = %v)", n, phase, c.what, i, c.got, c.want, x.Data[i])
					}
				}
			}
		}
	}
}

// TestReLUShapePanics: mismatched lengths are diagnostics, an empty input a
// no-op.
func TestReLUShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"forward: dst":   func() { ReLUInto(New(3), make([]bool, 4), New(4)) },
		"forward: mask":  func() { ReLUInto(New(4), make([]bool, 3), New(4)) },
		"mask alone":     func() { ReLUMaskInto(make([]bool, 5), New(4)) },
		"backward: dst":  func() { ReLUGradInto(New(5), New(4), make([]bool, 4)) },
		"backward: mask": func() { ReLUGradInto(New(4), New(4), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	empty := &Tensor{Shape: []int{0}}
	ReLUInto(empty, nil, empty)
	ReLUMaskInto(nil, empty)
	ReLUGradInto(empty, empty, nil)
}
