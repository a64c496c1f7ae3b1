package singlegpu

import (
	"oooback/internal/sim"
	"oooback/internal/trace"
)

// issueWindow bounds how many kernels an eager executor may have issued but
// not yet executed (the executor/driver pipeline depth). This is what makes
// the Fig 2 masking effect disappear: once the GPU catches up with the
// bounded lead, every further kernel waits out its issue latency.
const issueWindow = 12

// issueEager models the eager executor path: a single CPU issue thread walks
// the kernel list, spending each item's issue cost before the kernel becomes
// visible to the GPU, and never running more than issueWindow kernels ahead
// of execution. The bounded lead is what Fig 2 shows: early big kernels let
// the executor bank a lead that masks issue latency, but once the GPU chews
// through the lead in a region of small kernels, every kernel waits out its
// own issue latency.
func issueEager(eng *sim.Engine, tr *trace.Trace, items []loweredKernel) {
	queue := items
	inflight := 0
	busy := false
	var pump func()
	pump = func() {
		if busy || len(queue) == 0 || inflight >= issueWindow {
			return
		}
		it := queue[0]
		queue = queue[1:]
		busy = true
		inflight++
		name := it.kernel.Name
		start := eng.Now()
		prevDone := it.kernel.OnDone
		it.kernel.OnDone = func() {
			if prevDone != nil {
				prevDone()
			}
			inflight--
			pump()
		}
		eng.After(it.issue, func() {
			tr.Add("issue", name, "issue", start, eng.Now())
			it.stream.Submit(it.kernel)
			busy = false
			pump()
		})
	}
	pump()
}
