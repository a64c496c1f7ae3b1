package gpusim

import (
	"time"

	"oooback/internal/sim"
)

// Launcher models the CPU-side issue thread of a pre-compiled executor:
// IssueGraph models CUDA Graph launch (§4.2), making an entire pre-captured
// kernel sequence visible to the GPU after a single GraphLaunch occupancy, with
// no per-kernel issue cost. Eager per-kernel issue — the kernel-issue
// bottleneck of §2 — is singlegpu's issue thread, not this type.
type Launcher struct {
	// GraphLaunch is the one-time latency to launch a pre-compiled graph.
	GraphLaunch time.Duration

	srv *sim.Server
	// IssueSink, if non-nil, observes each issue occupancy for tracing.
	IssueSink func(kernel string, start, end sim.Time)
}

// NewLauncher returns a launcher whose issue thread runs on eng.
func NewLauncher(eng *sim.Engine, graphLaunch time.Duration) *Launcher {
	return &Launcher{GraphLaunch: graphLaunch, srv: sim.NewServer(eng)}
}

// GraphItem pairs a kernel with its destination stream inside a captured
// graph.
type GraphItem struct {
	Stream *Stream
	Kernel *Kernel
}

// IssueGraph occupies the issue thread once for GraphLaunch, then submits all
// items in order. Dependencies inside the graph are carried by the kernels'
// Waits/Record events, exactly as in a captured CUDA graph.
func (l *Launcher) IssueGraph(name string, items []GraphItem) {
	l.srv.Submit(0, l.GraphLaunch, func(start, end sim.Time) {
		if l.IssueSink != nil {
			l.IssueSink(name, start, end)
		}
		for _, it := range items {
			it.Stream.Submit(it.Kernel)
		}
	})
}
