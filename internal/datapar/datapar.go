// Package datapar simulates synchronous data-parallel training (§5.1, §8.3)
// on the paper's three clusters (Table 2). Because all workers run the same
// schedule in lockstep, the engine simulates one representative worker — its
// GPU executing the backward schedule, its bottleneck link carrying the
// parameter synchronizations — with collective costs that account for the
// worker count and topology.
//
// Methods compared (Fig 10):
//
//   - WFBP: wait-free backpropagation — each δW's synchronization starts when
//     the gradient is ready, FIFO on the link (Poseidon-style baseline);
//   - Horovod: decentralized ring all-reduce with coordinator negotiation,
//     no priority scheduling;
//   - BytePS: parameter-server push/pull with chunked priority scheduling
//     (the state-of-the-art baseline);
//   - OOO-BytePS: BytePS plus reverse first-k scheduling (Algorithm 2) with
//     the optimal k found by the §5.1 concave search.
package datapar

import (
	"fmt"
	"math"
	"time"

	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/trace"
)

// Cluster describes one of the Table 2 configurations.
type Cluster struct {
	Name string
	// PerNode is the number of GPUs per machine sharing the NIC.
	PerNode int
	// MaxGPUs bounds the cluster size.
	MaxGPUs int
	// NIC is the inter-node link.
	NIC netsim.LinkSpec
	// Intra is the intra-node GPU interconnect (used when all workers share
	// one machine).
	Intra netsim.LinkSpec
	// Profile converts model FLOPs to times for this GPU.
	Profile models.GPUProfile
}

// PrivA is the 8×Titan XP cluster (PCIe, 10 Gb Ethernet).
func PrivA() Cluster {
	return Cluster{Name: "Priv-A", PerNode: 1, MaxGPUs: 8,
		NIC: netsim.Ethernet10G(), Intra: netsim.PCIe3x16(), Profile: models.TitanXPProfile()}
}

// PrivB is the 20×P100 cluster (PCIe, 20 Gb Ethernet).
func PrivB() Cluster {
	return Cluster{Name: "Priv-B", PerNode: 1, MaxGPUs: 20,
		NIC: netsim.Ethernet20G(), Intra: netsim.PCIe3x16(), Profile: models.P100Profile()}
}

// PubA is the 48×V100 AWS cluster (NVLink intra-node, 10 Gb inter-node).
func PubA() Cluster {
	return Cluster{Name: "Pub-A", PerNode: 4, MaxGPUs: 48,
		NIC: netsim.Ethernet10G(), Intra: netsim.NVLink(), Profile: models.V100Profile()}
}

// Method selects the synchronization system.
type Method int

const (
	// WFBP is FIFO wait-free backpropagation.
	WFBP Method = iota
	// Horovod is ring all-reduce without priority scheduling.
	Horovod
	// P3 is priority-based parameter propagation at whole-tensor granularity
	// (TicTac/P3-style): urgent tensors jump the queue but cannot preempt an
	// in-flight transfer.
	P3
	// BytePS is priority parameter-server communication with chunk-level
	// preemption (ByteScheduler's tensor partitioning).
	BytePS
	// OOOBytePS is BytePS plus reverse first-k scheduling.
	OOOBytePS
	// OOOHorovod is Horovod plus reverse first-k (§8.3: "Our algorithm also
	// improved the performance of Horovod").
	OOOHorovod
)

func (m Method) String() string {
	switch m {
	case WFBP:
		return "WFBP"
	case Horovod:
		return "Horovod"
	case P3:
		return "P3"
	case BytePS:
		return "BytePS"
	case OOOBytePS:
		return "OOO-BytePS"
	case OOOHorovod:
		return "OOO-Horovod"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Channel returns the method's communication-channel discipline: the
// synchronization priority of a layer (lower is more urgent) and whether a
// more urgent synchronization preempts an in-flight one at chunk
// granularity. WFBP and the Horovods serve FIFO and run each transfer to
// completion; P3 prioritizes by layer without preemption; the BytePS
// methods prioritize and preempt.
func (m Method) Channel() (prio func(layer int) int, preemptive bool) {
	switch m {
	case P3:
		return func(layer int) int { return layer }, false
	case BytePS, OOOBytePS:
		return func(layer int) int { return layer }, true
	default:
		return func(int) int { return 0 }, false
	}
}

// horovodNegotiation is the per-tensor coordination cost of Horovod's
// decentralized readiness negotiation, growing with the worker count.
func horovodNegotiation(workers int) time.Duration {
	return time.Duration(workers) * 150 * time.Microsecond
}

// Result of one simulated iteration.
type Result struct {
	Method  Method
	Workers int
	// IterTime is the per-iteration makespan.
	IterTime time.Duration
	// Throughput is global samples/second (workers × batch / IterTime).
	Throughput float64
	// K is the reverse first-k depth (OOO-BytePS only).
	K int
	// GPUIdle is the forward-pass stall waiting for synchronizations.
	GPUIdle time.Duration
	// Sync1 is when the first layer's synchronization completed (the §8.3
	// critical quantity).
	Sync1 time.Duration
	// BackwardEnd is when backward compute finished.
	BackwardEnd time.Duration
}

// Costs builds the single-worker iteration costs for a model on a cluster
// with the given worker count and method (sync times differ per collective).
func Costs(m *models.Model, cl Cluster, workers int, method Method) core.IterCosts {
	L := len(m.Layers)
	c := core.IterCosts{
		F:     make([]time.Duration, L),
		DO:    make([]time.Duration, L),
		DW:    make([]time.Duration, L),
		SyncW: make([]time.Duration, L),
	}
	for i, l := range m.Layers {
		c.F[i] = l.Fwd
		c.DO[i] = l.DO
		c.DW[i] = l.DW
		c.SyncW[i] = SyncTime(cl, workers, method, l.ParamBytes)
	}
	lag := AggregationLag(cl, workers, m.TotalBackward())
	if lag > 0 {
		c.SyncLag = make([]time.Duration, L)
		for i := range c.SyncLag {
			if c.SyncW[i] > 0 {
				c.SyncLag[i] = lag
			}
		}
	}
	return c
}

// AggregationLag models the per-tensor completion lag of a multi-node
// collective: a pull cannot complete until every node's push arrived, so
// each synchronization waits out the slowest node's staggering. The lag
// grows with the expected maximum of the per-node skews (∝ √log nodes) and
// is zero inside a single machine. This is the §8.3 phenomenon that makes
// the first layer's synchronization take 350 ms on 16 GPUs despite
// prioritization — and it is exactly what reverse first-k hides by making
// the critical gradients ready earlier.
func AggregationLag(cl Cluster, workers int, backward time.Duration) time.Duration {
	nodes := (workers + cl.PerNode - 1) / cl.PerNode
	if nodes <= 1 {
		return 0
	}
	f := 0.35 * (1 - 1/float64(nodes)) * math.Sqrt(math.Log2(float64(2*nodes)))
	return time.Duration(f * float64(backward))
}

// SyncTime returns the standalone synchronization duration of one tensor.
func SyncTime(cl Cluster, workers int, method Method, bytes int64) time.Duration {
	if workers <= 1 || bytes == 0 {
		return 0
	}
	// All workers on one machine: the fast intra-node link carries the
	// collective and there is no NIC incast.
	spec := cl.NIC
	fanIn := cl.PerNode
	if workers <= cl.PerNode {
		spec = cl.Intra
		fanIn = 1
	}
	switch method {
	case Horovod, OOOHorovod:
		return netsim.RingAllReduceTime(spec, bytes, workers) + horovodNegotiation(workers)
	default:
		return netsim.PSSyncTime(spec, bytes, workers, fanIn)
	}
}

// Run simulates one iteration of data-parallel training.
func Run(m *models.Model, cl Cluster, workers int, method Method) Result {
	return RunTraced(m, cl, workers, method, nil)
}

// RunTraced is Run with span recording into tr (may be nil).
func RunTraced(m *models.Model, cl Cluster, workers int, method Method, tr *trace.Trace) Result {
	if workers < 1 {
		panic("datapar: need at least one worker")
	}
	if workers > cl.MaxGPUs {
		panic(fmt.Sprintf("datapar: %d workers exceed %s's %d GPUs", workers, cl.Name, cl.MaxGPUs))
	}
	L := len(m.Layers)
	c := Costs(m, cl, workers, method)

	prio, preemptive := method.Channel()
	var scratch core.IterScratch
	var order graph.BackwardSchedule
	k := 0
	switch method {
	case WFBP, Horovod, P3, BytePS:
		// Horovod negotiates tensors in reverse layer order with no urgency
		// notion; its FIFO non-preemptive channel models the fused pipeline.
		order = graph.Conventional(L)
	case OOOBytePS, OOOHorovod:
		// The OOO methods keep their base system's channel; only the
		// gradient computations are reordered. The probes run serially
		// through one scratch, so the search allocates only the candidate
		// schedules after warm-up.
		k = core.SearchK(L, func(kk int) float64 {
			s := core.ReverseFirstK(m, kk, 0)
			r := scratch.SimulateIteration(c, s, prio, preemptive)
			return core.Throughput(r.Makespan, m.Batch)
		})
		order = core.ReverseFirstK(m, k, 0)
	default:
		panic(fmt.Sprintf("datapar: unknown method %v", method))
	}

	r := scratch.SimulateIterationTraced(c, order, prio, preemptive, tr)
	res := Result{
		Method: method, Workers: workers, K: k,
		IterTime:    r.Makespan,
		Throughput:  core.Throughput(r.Makespan, m.Batch*workers),
		GPUIdle:     r.GPUIdle,
		BackwardEnd: r.BackwardEnd,
	}
	if len(r.SyncDone) > 0 {
		res.Sync1 = r.SyncDone[0]
	}
	return res
}
