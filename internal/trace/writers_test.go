package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritersEmptyTrace drives every writer over the zero-value trace: no
// writer may panic, and each must produce its well-formed "nothing" form.
func TestWritersEmptyTrace(t *testing.T) {
	var tr Trace

	buf, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("empty ChromeJSON not valid JSON: %v\n%s", err, buf)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace produced %d events", len(doc.TraceEvents))
	}

	svg := tr.SVG(0)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("empty SVG not an <svg> document: %q", svg)
	}
	if !strings.Contains(svg, "(empty trace)") {
		t.Fatal("empty SVG missing the empty-trace marker")
	}

	if got := tr.Render(0); got != "(empty trace)\n" {
		t.Fatalf("empty Render = %q", got)
	}
}

// TestOutOfOrderSpanClose appends spans in non-chronological order — the real
// executors do this: a deferred δW filled into a late bubble is recorded after
// δO spans that started later. Every query and writer must be insensitive to
// insertion order.
func TestOutOfOrderSpanClose(t *testing.T) {
	var tr Trace
	// Bubble-filled δW recorded last although it covers the earliest gap.
	tr.Add("GPU0", "dO3", "dO", 50*time.Microsecond, 60*time.Microsecond)
	tr.Add("GPU0", "dO2", "dO", 30*time.Microsecond, 40*time.Microsecond)
	tr.Add("GPU0", "dW3", "dW", 10*time.Microsecond, 25*time.Microsecond)
	tr.Add("GPU1", "fwd1", "fwd", 0, 15*time.Microsecond)

	if got := tr.Makespan(); got != 60*time.Microsecond {
		t.Fatalf("Makespan = %v", got)
	}
	if got := tr.WindowStart(); got != 0 {
		t.Fatalf("WindowStart = %v", got)
	}
	if got := tr.BusyTime("GPU0"); got != 35*time.Microsecond {
		t.Fatalf("BusyTime(GPU0) = %v, want 35µs", got)
	}

	buf, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	// 2 thread-name metadata events + 4 spans.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	byName := map[string]float64{}
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			byName[ev.Name] = ev.TS
			tids[ev.Name] = ev.TID
		}
	}
	if byName["dW3"] != 10 || byName["dO2"] != 30 || byName["dO3"] != 50 {
		t.Fatalf("timestamps scrambled: %v", byName)
	}
	if tids["dW3"] != tids["dO2"] || tids["dW3"] == tids["fwd1"] {
		t.Fatalf("lane→thread mapping wrong: %v", tids)
	}

	svg := tr.SVG(600)
	for _, want := range []string{"dW3", "dO2", "GPU0", "GPU1", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}

	render := tr.Render(60)
	if !strings.Contains(render, "GPU0") || !strings.Contains(render, "W") || !strings.Contains(render, "O") {
		t.Fatalf("render missing lanes or glyphs:\n%s", render)
	}

	// Shifted must be a pure translation even with out-of-order spans.
	tr2 := Trace{Spans: append([]Span(nil), tr.Spans...)}
	for i := range tr2.Spans {
		tr2.Spans[i].Start += 7 * time.Microsecond
		tr2.Spans[i].End += 7 * time.Microsecond
	}
	sh := tr2.Shifted()
	if sh.WindowStart() != 0 || sh.Makespan() != tr.Makespan() {
		t.Fatalf("Shifted: window %v makespan %v", sh.WindowStart(), sh.Makespan())
	}
}

// TestConcurrentEmit exercises the engines' emit discipline under the race
// detector: many goroutines appending through a shared mutex (the way
// Executor.span serializes pool workers), then every writer consuming the
// result. The writers must see all spans and stay deterministic given the
// same span multiset modulo order.
func TestConcurrentEmit(t *testing.T) {
	var (
		tr Trace
		mu sync.Mutex
		wg sync.WaitGroup
	)
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := []string{"GPU0", "GPU1", "GPU2", "GPU3"}[w%4]
			for i := 0; i < perWorker; i++ {
				start := time.Duration(i) * time.Microsecond
				mu.Lock()
				tr.Add(lane, "op", "dW", start, start+time.Microsecond)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if got := len(tr.Spans); got != workers*perWorker {
		t.Fatalf("got %d spans, want %d", got, workers*perWorker)
	}
	if got := tr.Makespan(); got != perWorker*time.Microsecond {
		t.Fatalf("Makespan = %v", got)
	}
	// Two workers share each lane with identical spans; merged busy time is
	// one worker's worth.
	for _, lane := range tr.Lanes() {
		if got := tr.BusyTime(lane); got != perWorker*time.Microsecond {
			t.Fatalf("BusyTime(%s) = %v", lane, got)
		}
	}
	if _, err := tr.ChromeJSON(); err != nil {
		t.Fatal(err)
	}
	if svg := tr.SVG(300); !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("SVG truncated")
	}
	if out := tr.Render(40); !strings.Contains(out, "makespan") {
		t.Fatal("render missing makespan")
	}
}
