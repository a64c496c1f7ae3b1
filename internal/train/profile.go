package train

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"oooback/internal/calib"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/trace"
)

// This file adapts the engines' op events (observe.go) to the repo's two
// consumers: trace.Trace timelines and calib.Profiler cost profiles. Both
// adapters lock, because an engine calls its observer from every goroutine
// that runs ops. Observing must not change a single gradient bit — an
// observed step runs the exact op sequence of an unobserved one, with timing
// reads around each op — and ProfileObserver adds no allocations on the warm
// path (the profiler's slot storage is bounded and pre-grown at first
// observe).

// stepScope labels the step-scoped ops (loss, update, zeroGrad) that belong
// to the whole iteration rather than one layer.
const stepScope = "step"

// layerTypeName maps a layer to its cost-model type tag ("dense", "conv2d",
// ...). Same-type layers share a fitted per-type cost law ("fwd:dense") no
// matter where they sit in the network.
func layerTypeName(l nn.Layer) string {
	switch l.(type) {
	case *nn.Dense:
		return "dense"
	case *nn.ReLU:
		return "relu"
	case *nn.Conv2D:
		return "conv2d"
	case *nn.MaxPool2:
		return "maxpool2"
	case *nn.Flatten:
		return "flatten"
	case *nn.Embedding:
		return "embedding"
	case *nn.LayerNorm:
		return "layernorm"
	case *nn.MeanPool1D:
		return "meanpool1d"
	default:
		return "layer"
	}
}

// calibKind maps the event kinds a profile records to calib's op kinds. calib
// has no kind for a checkpointed step's re-forward or restash; both are
// forward-side work of their layer.
var calibKind = [...]calib.OpKind{
	OpZero: calib.OpZero, OpFwd: calib.OpFwd, OpLoss: calib.OpLoss, OpDO: calib.OpDO, OpDW: calib.OpDW,
	OpDWFill: calib.OpDWFill, OpUpdate: calib.OpUpdate, OpReduce: calib.OpReduce, OpRefwd: calib.OpFwd,
	OpRestash: calib.OpFwd,
}

// ProfileObserver returns an observer recording the steps of net n into p:
// one p.Observe per op event (idle aside) and one p.EndStep per OpStep. It
// owns the per-layer caches a profile needs — layer types and parameter
// counts, built here so the observed hot path performs no interface type
// switches or Params() walks, and each layer's work feature (elements
// touched: input + output + parameter elements), captured from its fwd event
// and reused for its δO/δW. The step-scoped zeroGrad/update ops carry the
// total parameter count as work, a reduce its bucket's gradient elements.
func ProfileObserver(p *calib.Profiler, n *Network) Observer {
	L := len(n.Layers)
	ltype := make([]string, L+1)
	params := make([]float64, L+1)
	work := make([]float64, L+1)
	var total float64
	for i, l := range n.Layers {
		ltype[i+1] = layerTypeName(l)
		for _, lp := range l.Params() {
			params[i+1] += float64(lp.Value.Len())
		}
		total += params[i+1]
	}
	var mu sync.Mutex // guards work: replicas and stages report fwd concurrently
	return func(ev OpEvent) {
		d := ev.End.Sub(ev.Start)
		lt, w := stepScope, float64(ev.Elems)
		switch ev.Kind {
		case OpIdle:
			return
		case OpStep:
			p.EndStep(d)
			return
		case OpZero, OpUpdate:
			w = total
		case OpReduce:
			lt = "bucket"
		case OpFwd, OpRefwd, OpRestash, OpDO, OpDW, OpDWFill:
			mu.Lock()
			if ev.Kind == OpFwd || ev.Kind == OpRefwd {
				work[ev.Layer] = w + params[ev.Layer]
			}
			lt, w = ltype[ev.Layer], work[ev.Layer]
			mu.Unlock()
		}
		p.Observe(calibKind[ev.Kind], ev.Layer, lt, w, d)
	}
}

// Profile trains net for steps serial conventional-order steps with a
// ProfileObserver attached and returns the profile, named name, of the steps
// after the first warmup.
func Profile(name string, net *Network, x *tensor.Tensor, labels []int, opt nn.Optimizer, steps, warmup int) (calib.NetProfile, error) {
	L := len(net.Layers)
	p := calib.NewProfiler(name, "serial", L, warmup)
	eng := NewExecutor(ExecSerial, 0)
	eng.Observe(ProfileObserver(p, net))
	sched := graph.Conventional(L)
	for s := 0; s < steps; s++ {
		if _, err := eng.Step(net, x, labels, sched, opt); err != nil {
			return calib.NetProfile{}, err
		}
	}
	return p.Snapshot(), nil
}

// TraceObserver returns an observer appending one span per op event to tr,
// timed from this call: lane "laneNN" per OpEvent.Lane, kind = the OpKind
// name, label = kind + layer (+ "#microbatch"), e.g. "dW3", "fwd2#1". OpStep
// is skipped — it would only cover its lane. Render with tr.Render or
// tr.ChromeJSON (Perfetto).
func TraceObserver(tr *trace.Trace) Observer {
	t0 := time.Now()
	var mu sync.Mutex
	return func(ev OpEvent) {
		if ev.Kind == OpStep {
			return
		}
		label := ev.Kind.String()
		if ev.Layer > 0 {
			label += strconv.Itoa(ev.Layer)
		}
		if ev.Micro > 0 {
			label += "#" + strconv.Itoa(ev.Micro)
		}
		mu.Lock()
		tr.Add(fmt.Sprintf("lane%02d", ev.Lane), label, ev.Kind.String(), ev.Start.Sub(t0), ev.End.Sub(t0))
		mu.Unlock()
	}
}
