// Package trace records execution spans produced by the simulators and
// renders them as utilization statistics, Chrome traces, SVG and ASCII timelines.
//
// A Trace is a flat list of spans, each tagged with a lane (a GPU, a stream,
// a link, ...) and a label. The training engines append spans as virtual time
// advances; the experiment harnesses then query utilization or render the
// timeline figures from the paper (Figs 2, 4, 5, 6, 8, 12).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one contiguous activity on a lane.
type Span struct {
	Lane  string
	Label string
	Start time.Duration
	End   time.Duration
	// Kind classifies the span for rendering and utilization accounting
	// (e.g. "fwd", "dO", "dW", "comm", "issue", "idle").
	Kind string
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Trace is an append-only collection of spans. The zero value is ready to use.
type Trace struct {
	Spans []Span
}

// Add appends a span. Spans with End < Start panic: they always indicate a
// simulator bug.
func (t *Trace) Add(lane, label, kind string, start, end time.Duration) {
	if end < start {
		panic(fmt.Sprintf("trace: span %q on %q ends %v before start %v", label, lane, end, start))
	}
	t.Spans = append(t.Spans, Span{Lane: lane, Label: label, Kind: kind, Start: start, End: end})
}

// Lanes returns the distinct lane names in first-appearance order.
func (t *Trace) Lanes() []string {
	seen := make(map[string]bool)
	var lanes []string
	for _, s := range t.Spans {
		if !seen[s.Lane] {
			seen[s.Lane] = true
			lanes = append(lanes, s.Lane)
		}
	}
	return lanes
}

// Makespan returns the end time of the last span (zero for an empty trace).
func (t *Trace) Makespan() time.Duration {
	var end time.Duration
	for _, s := range t.Spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// BusyTime returns the total non-overlapping busy time on a lane. Overlapping
// spans (e.g. two streams drawn on one GPU lane) are merged before summing.
func (t *Trace) BusyTime(lane string) time.Duration {
	var iv []Span
	for _, s := range t.Spans {
		if s.Lane == lane && s.End > s.Start {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var busy time.Duration
	var curStart, curEnd time.Duration
	active := false
	for _, s := range iv {
		if !active {
			curStart, curEnd, active = s.Start, s.End, true
			continue
		}
		if s.Start <= curEnd {
			if s.End > curEnd {
				curEnd = s.End
			}
			continue
		}
		busy += curEnd - curStart
		curStart, curEnd = s.Start, s.End
	}
	if active {
		busy += curEnd - curStart
	}
	return busy
}

// Utilization returns BusyTime(lane) / Makespan() as a fraction in [0, 1].
func (t *Trace) Utilization(lane string) float64 {
	ms := t.Makespan()
	if ms == 0 {
		return 0
	}
	return float64(t.BusyTime(lane)) / float64(ms)
}

// WindowStart returns the earliest span start (zero for an empty trace).
func (t *Trace) WindowStart() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	start := t.Spans[0].Start
	for _, s := range t.Spans {
		if s.Start < start {
			start = s.Start
		}
	}
	return start
}

// WindowUtilization returns BusyTime(lane) over the window from the first
// span start to the makespan — the right denominator for traces that cover
// only part of a simulation (e.g. the last iteration of a pipeline).
func (t *Trace) WindowUtilization(lane string) float64 {
	w := t.Makespan() - t.WindowStart()
	if w == 0 {
		return 0
	}
	return float64(t.BusyTime(lane)) / float64(w)
}

// MeanWindowUtilization averages WindowUtilization over all lanes.
func (t *Trace) MeanWindowUtilization() float64 {
	lanes := t.Lanes()
	if len(lanes) == 0 {
		return 0
	}
	var sum float64
	for _, l := range lanes {
		sum += t.WindowUtilization(l)
	}
	return sum / float64(len(lanes))
}

// Shifted returns a copy of the trace with all spans translated so the
// earliest span starts at zero — useful when rendering the tail of a longer
// simulation (e.g. the last pipeline iteration).
func (t *Trace) Shifted() *Trace {
	off := t.WindowStart()
	out := &Trace{Spans: make([]Span, len(t.Spans))}
	for i, s := range t.Spans {
		s.Start -= off
		s.End -= off
		out.Spans[i] = s
	}
	return out
}

// Render draws the trace as an ASCII timeline, one row per lane, width
// character cells wide (100 when width ≤ 0). Each cell covers makespan/width
// of virtual time; a cell is drawn with a character derived from the kind of
// the span covering its midpoint ('.' when idle).
//
// Example output for a two-GPU pipeline:
//
//	GPU0 |FFFFFFFF........OOOOWWWW|
//	GPU1 |....FFFFFFFFOOOOWWWW....|
func (t *Trace) Render(width int) string {
	if width <= 0 {
		width = 100
	}
	ms := t.Makespan()
	if ms == 0 {
		return "(empty trace)\n"
	}
	lanes := t.Lanes()
	maxName := 0
	for _, l := range lanes {
		if len(l) > maxName {
			maxName = len(l)
		}
	}
	var b strings.Builder
	for _, lane := range lanes {
		row := make([]rune, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range t.Spans {
			if s.Lane != lane {
				continue
			}
			lo := int(int64(s.Start) * int64(width) / int64(ms))
			hi := int(int64(s.End) * int64(width) / int64(ms))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			ch := cellRune(s)
			for i := lo; i < hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", maxName, lane, string(row))
	}
	fmt.Fprintf(&b, "%-*s  makespan=%v\n", maxName, "", ms)
	return b.String()
}

func cellRune(s Span) rune {
	switch s.Kind {
	case "fwd":
		return 'F'
	case "dO":
		return 'O'
	case "dW":
		return 'W'
	case "comm":
		return '~'
	case "issue":
		return 'i'
	case "update":
		return 'U'
	case "bubble", "idle":
		return '.'
	default:
		return '#'
	}
}
