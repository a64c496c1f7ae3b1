package tensor

import (
	"fmt"
	"math"
)

// keepBits is all ones for true and zero for false. The compiler lowers the
// branch to a flag move, so AND-ing a float's bit pattern with it selects
// "the value or +0" with no data-dependent jump — on a rectifier's inputs,
// whose signs are a coin flip, the branch it replaces mispredicts every other
// element.
func keepBits(keep bool) uint64 {
	var one uint64
	if keep {
		one = 1
	}
	return -one
}

// ReLUInto writes the rectified x into dst (same element count, any shape) and
// the keep mask keep[i] = x[i] > 0 it selected by, fully overwriting both.
// x[i] > 0 is false for −0 and for a NaN of either sign; a kept value keeps its
// bits, the rest become +0. The vector body and the Go loop — the portable
// path and its oracle — produce the same bits and the same mask bytes.
func ReLUInto(dst *Tensor, keep []bool, x *Tensor) *Tensor {
	n := len(x.Data)
	if len(dst.Data) != n || len(keep) != n {
		panic(fmt.Sprintf("tensor: ReLUInto dst %v and %d mask entries for input %v", dst.Shape, len(keep), x.Shape))
	}
	if n == 0 {
		return dst
	}
	if useVector {
		reluVec(&dst.Data[0], &keep[0], &x.Data[0], n)
		return dst
	}
	out := dst.Data[:n]
	for i, v := range x.Data {
		k := v > 0
		keep[i] = k
		out[i] = math.Float64frombits(math.Float64bits(v) & keepBits(k))
	}
	return dst
}

// ReLUMaskInto writes ReLUInto's keep mask alone, keep[i] = x[i] > 0, fully
// overwriting keep (same element count) and writing no rectified value. The
// rectified output is > 0 exactly where its input is, so a checkpointed step
// rebuilds a dropped mask from the output with it.
func ReLUMaskInto(keep []bool, x *Tensor) []bool {
	n := len(x.Data)
	if len(keep) != n {
		panic(fmt.Sprintf("tensor: ReLUMaskInto %d mask entries for input %v", len(keep), x.Shape))
	}
	if n == 0 {
		return keep
	}
	if useVector {
		reluMaskVec(&keep[0], &x.Data[0], n)
		return keep
	}
	for i, v := range x.Data {
		keep[i] = v > 0
	}
	return keep
}

// ReLUGradInto writes gradOut masked by keep into dst (same element count):
// a kept gradient keeps its bits, the rest become +0.
func ReLUGradInto(dst, gradOut *Tensor, keep []bool) *Tensor {
	n := len(gradOut.Data)
	if len(dst.Data) != n || len(keep) != n {
		panic(fmt.Sprintf("tensor: ReLUGradInto dst %v and %d mask entries for gradient %v", dst.Shape, len(keep), gradOut.Shape))
	}
	if n == 0 {
		return dst
	}
	if useVector {
		reluGradVec(&dst.Data[0], &gradOut.Data[0], &keep[0], n)
		return dst
	}
	out := dst.Data[:n]
	for i, v := range gradOut.Data {
		out[i] = math.Float64frombits(math.Float64bits(v) & keepBits(keep[i]))
	}
	return dst
}
