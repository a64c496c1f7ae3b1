package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a module, recorded from the harness: the
// program under test carries no instrumentation of its own yet. Parent is
// the index of the span that caused this one (−1 for a root); all spans of
// one operation share its request id.
type span struct {
	name    string
	lane    string
	start   time.Duration
	end     time.Duration
	parent  int
	request int
}

// laneCalls holds the calls an operation really makes, in the order it makes
// them. laneReplay holds the same operation's inner stages re-run by the
// harness right afterwards, because the public entry point (Service.Plan,
// Executor.Step) cannot be opened from outside: their parent is the real
// call they decompose, not the span that encloses them in time.
const (
	laneCalls  = "calls"
	laneReplay = "replay"
)

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced twin of an operation runs.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name, lane string, parent, request int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, lane: lane, parent: parent, request: request})
	id := len(r.spans) - 1
	r.spans[id].start = time.Since(r.epoch)
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.end = time.Since(r.epoch)
	return s.end - s.start
}

// layerTimes sums, per span name, total time and self time (the span minus
// its direct children) and counts spans.
type layerTimes struct {
	total, self time.Duration
	count       int
	samples     durations
}

func (r *recorder) byName() map[string]*layerTimes {
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTimes{}
	for i, s := range r.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.total += d
		// A replayed stage can run slower than it did inside the real call;
		// clamp so one noisy replay cannot make a self time negative.
		if self := d - children[i]; self > 0 {
			lt.self += self
		}
		lt.count++
		lt.samples = append(lt.samples, d)
	}
	return out
}

// p50us is the median duration of the named span in microseconds (0 when the
// workload never produced it).
func p50us(by map[string]*layerTimes, name string) float64 {
	if lt := by[name]; lt != nil {
		return lt.samples.quantile(0.5, us)
	}
	return 0
}

// chromeEvent is one complete ("X") or metadata ("M") trace event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFileSpans caps the spans written to a trace file (a few MB); the
// per-layer metrics are computed from all spans in memory.
const traceFileSpans = 20000

// writeChrome writes the first traceFileSpans spans as Chrome trace-event
// JSON (chrome://tracing, Perfetto). Each lane is a thread; the category is
// the module (the part of the span name before the first dot); args carry
// span id, parent and request id so the causal tree survives the flat format.
func (r *recorder) writeChrome(dir, workload string) (string, error) {
	spans := r.spans[:min(len(r.spans), traceFileSpans)]
	lanes := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := lanes[s.lane]; !ok {
			lanes[s.lane] = 0
			names = append(names, s.lane)
		}
	}
	sort.Strings(names)
	evs := make([]chromeEvent, 0, len(spans)+len(names))
	for i, l := range names {
		lanes[l] = i + 1
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": l}})
	}
	for i, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: module(s.name), Ph: "X",
			TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: lanes[s.lane],
			Args: map[string]any{"id": i, "parent": s.parent, "request": s.request},
		})
	}
	b, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// module returns the layer a span belongs to: its name up to the first dot.
func module(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
