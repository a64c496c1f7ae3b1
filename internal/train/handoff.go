package train

import (
	"runtime"
	"time"

	"oooback/internal/tensor"
)

// handoffPoll bounds how long a goroutine that has just finished work keeps
// looking for its next message before it parks. Parking is cheap; being woken
// is not: on the two-core sandbox a parked goroutine starts 70–350 µs after
// the send that wakes it, and the sender's own core stalls for ≈ 120 µs while
// the other one is brought back — more than most ops of the benchmark's small
// net, whose whole step is 0.4 ms. Polling for about as long as a wake-up
// costs is the ski-rental bound: never worse than twice the better choice.
// 250 µs also covers the two gaps a back-to-back small step has — the caller's
// update (≈ 50 µs) between two commands, and update + zero + forward
// (≈ 210 µs) between a pool worker's last δW and its next. Measured
// (DESIGN.md §7 *Hand-offs*): train_small's speedup_geomean reads 1.00 at
// 100 µs, 1.08 at 250 µs, no better at 500 µs; train_conv's ooo ÷ serial
// step stays at 0.97–1.00 throughout, as a poll ends when a kernel fans out.
const handoffPoll = 250 * time.Microsecond

// poller is one goroutine's polling record: whether its recent polls found
// their message. Where they did not — the sender is a long op away, or the
// host runs both threads on one core, so the sender cannot run while this
// goroutine spins — polling is skipped for exponentially more receives, up to
// 63, before it is tried again.
type poller struct {
	misses, skip uint8
}

// recvSoon receives from ch without parking: non-blocking receives until a
// value arrives or handoffPoll has passed. ok is false when nothing arrived —
// the bound passed, polling is backed off, or ch is closed — and the caller's
// blocking receive then decides which. It yields once before it polls, so
// that a goroutine this one has just made runnable (the step's caller, by an
// acknowledgement) gets the processor first, and never again: a poll that
// calls runtime.Gosched every round re-queues itself on the global run queue,
// so its processor never gets to steal the work it is waiting for. It stops
// as soon as a kernel fans out (tensor.FanOutActive): those chunks need this
// processor more than the poll does. With one processor nobody can send while
// this goroutine runs, so there is nothing to wait for.
func recvSoon[T any](ch <-chan T, p *poller) (v T, ok bool) {
	if runtime.GOMAXPROCS(0) == 1 {
		return v, false
	}
	if p.skip > 0 {
		p.skip--
		return v, false
	}
	runtime.Gosched()
	for deadline := time.Now().Add(handoffPoll); ; {
		select {
		case v, ok = <-ch:
			p.misses = 0
			return v, ok
		default:
		}
		if tensor.FanOutActive() {
			return v, false
		}
		if !time.Now().Before(deadline) {
			p.misses = min(p.misses+1, 6)
			p.skip = 1<<p.misses - 1
			return v, false
		}
	}
}

// recvHot is a receive that polls before it parks: recvSoon, then the
// blocking receive. ok is false once ch is closed and drained.
func recvHot[T any](ch <-chan T, p *poller) (v T, ok bool) {
	if v, ok = recvSoon(ch, p); !ok {
		v, ok = <-ch
	}
	return v, ok
}
