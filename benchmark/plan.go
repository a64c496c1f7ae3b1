package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/plansearch"
	"oooback/internal/plansvc"
	"oooback/internal/shardsvc"
	"oooback/internal/stats"
)

// The plan-request path: generated POST /v1/plan bodies against an
// in-process plansvc node or a 3-shard shardsvc tier on loopback, driven by
// a closed loop of clients that block on each reply (plan callers are job
// launchers; nothing arrives while they wait).

const (
	// hotSetSize is the warm workload's working set: it fits every node's
	// 512-entry LRU, so after the warm-up pass no request reaches a planner.
	hotSetSize = 256
	// tierShards is the warm workload's tier width.
	tierShards = 3
	// warmupLength is how long a round drives its closed loop unmeasured
	// after set-up, so connections, scratch pools and the Go heap are in
	// steady state when timing starts. It is a fixed time, not work, so it
	// is not part of setup_s. On the cold workloads the warm-up requests'
	// indices start at warmupBase, which the measured range never reaches;
	// on the tier they are hot-set hits like the measured ones.
	warmupLength = 250 * time.Millisecond
	warmupBase   = 1 << 32
	// digestPrefix is how many leading responses the bodies digest covers: a
	// fixed count every run reaches, so equal seeds give equal digests even
	// though the number of requests a run completes varies with the host.
	digestPrefix = 256
)

// discardLog silences the services' request logs.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// planKind selects one of the three plan workloads.
type planKind int

const (
	coldTime planKind = iota
	coldMemory
	warmTier
)

// hotBody is one member of the warm workload's hot set with the facts its
// first response established.
type hotBody struct {
	in      planInput
	fp      string
	first   []byte
	speedup float64
}

// planEnv is one set-up of a plan workload: servers, client and inputs.
type planEnv struct {
	kind    planKind
	clients int
	mix     *planMix
	ranges  map[string]budgetRange

	nodes  []*plansvc.Service
	urls   []string
	client *http.Client
	close  func()

	probes hostProbes

	hot []hotBody
	// proxyLat holds the warm-up latencies of requests that travelled the
	// proxy hop: the only time the warm workload exercises that route.
	proxyLat durations
}

// input returns request i of the workload.
func (e *planEnv) input(i int) planInput {
	switch e.kind {
	case coldMemory:
		return e.mix.memoryPlan(e.ranges, i)
	case warmTier:
		return e.hot[i%len(e.hot)].in
	default:
		return e.mix.timePlan(i)
	}
}

// target returns the node request i is sent to: round-robin over the tier.
func (e *planEnv) target(i int) string { return e.urls[i%len(e.urls)] }

// setupPlan builds everything a plan workload needs before its first
// request: the request grid, the server or tier, the client, and for the
// memory workload the per-model budget ranges, for the warm workload the hot
// set and the pass that computes and peer-fills it.
func setupPlan(kind planKind, seed uint64, clients int) (*planEnv, error) {
	e := &planEnv{kind: kind, clients: clients, mix: newPlanMix(seed), probes: newHostProbes(clients)}
	e.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConns: 4 * clients, MaxIdleConnsPerHost: clients},
	}
	closeClient := e.client.CloseIdleConnections

	if kind == warmTier {
		tier, err := shardsvc.StartTier(shardsvc.TierOptions{Shards: tierShards, Logger: discardLog})
		if err != nil {
			return nil, fmt.Errorf("start tier: %w", err)
		}
		e.urls = tier.URLs()
		for i := range e.urls {
			e.nodes = append(e.nodes, tier.Service(i))
		}
		e.close = func() { closeClient(); tier.Close() }
		if err := e.fillHotSet(); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}

	if kind == coldMemory {
		e.ranges = calibrateBudgets(e.mix.zoo)
	}
	svc := plansvc.New(plansvc.Options{Logger: discardLog})
	srv := httptest.NewServer(svc.Handler())
	e.nodes = []*plansvc.Service{svc}
	e.urls = []string{srv.URL}
	e.close = func() { closeClient(); srv.Close(); svc.Close() }
	return e, nil
}

// warmUp drives the closed loop unmeasured.
func (e *planEnv) warmUp() error {
	first := warmupBase
	if e.kind == warmTier {
		first = 0
	}
	if r := e.run(first, warmupLength); r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %s", r.failed, r.attempted, r.firstError)
	}
	return nil
}

// fillHotSet draws the hot set and sends every member once to every node,
// in node order. The first node to see a body computes it or proxies it to
// its owner; afterwards every (body, node) pair is a local LRU hit. The
// first response of each body is the reference all later ones must equal.
func (e *planEnv) fillHotSet() error {
	e.hot = make([]hotBody, hotSetSize)
	var buf bytes.Buffer
	for j := range e.hot {
		h := &e.hot[j]
		h.in = e.mix.timePlan(j)
		fp, err := e.nodes[0].Fingerprint(&h.in.req)
		if err != nil {
			return fmt.Errorf("hot body %d: %w", j, err)
		}
		h.fp = fp
		for _, url := range e.urls {
			t0 := time.Now()
			resp, err := e.post(url, h.in.body, &buf)
			lat := time.Since(t0)
			if err != nil {
				return fmt.Errorf("hot body %d: %w", j, err)
			}
			if resp.route == shardsvc.RouteProxy {
				e.proxyLat = append(e.proxyLat, lat)
			}
			if h.first == nil {
				parsed, err := checkPlanBody(&h.in, resp, fp, "")
				if err != nil {
					return fmt.Errorf("hot body %d: %w", j, err)
				}
				h.first = bytes.Clone(buf.Bytes())
				h.speedup = parsed.Speedup
			} else if !bytes.Equal(buf.Bytes(), h.first) {
				return fmt.Errorf("hot body %d: node %s answered different bytes than the first node", j, url)
			}
		}
	}
	return nil
}

// reply is the part of an HTTP response the checks read; the body is left in
// the caller's buffer.
type reply struct {
	status      int
	outcome     string
	route       string
	fingerprint string
	body        []byte
}

// post sends one plan request and reads the whole response into buf.
func (e *planEnv) post(url string, body []byte, buf *bytes.Buffer) (reply, error) {
	resp, err := e.client.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, fmt.Errorf("read response: %w", err)
	}
	return reply{
		status:      resp.StatusCode,
		outcome:     resp.Header.Get(plansvc.HeaderOutcome),
		route:       resp.Header.Get(shardsvc.HeaderRoute),
		fingerprint: resp.Header.Get(plansvc.HeaderFingerprint),
		body:        buf.Bytes(),
	}, nil
}

// checkPlanBody applies every per-response output check of a freshly
// planned body: status, fingerprint header, outcome (when wantOutcome is
// set), a schedule that parses and is a legal backward order, a footprint
// inside the budget, a usable speedup.
func checkPlanBody(in *planInput, r reply, wantFP, wantOutcome string) (*plansvc.PlanResponse, error) {
	if err := checkHeaders(r, wantFP, wantOutcome); err != nil {
		return nil, err
	}
	var resp plansvc.PlanResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &resp, checkPlan(in, &resp, wantFP)
}

// checkHeaders checks a reply's status, fingerprint header and, when
// wantOutcome is set, outcome header.
func checkHeaders(r reply, wantFP, wantOutcome string) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, oneLine(r.body))
	}
	if r.fingerprint != wantFP {
		return fmt.Errorf("fingerprint header %q, want %q", r.fingerprint, wantFP)
	}
	if wantOutcome != "" && r.outcome != wantOutcome {
		return fmt.Errorf("outcome %q, want %q", r.outcome, wantOutcome)
	}
	return nil
}

// checkPlan checks a decoded plan against its request.
func checkPlan(in *planInput, resp *plansvc.PlanResponse, wantFP string) error {
	if resp.Fingerprint != wantFP {
		return fmt.Errorf("body fingerprint %q, want %q", resp.Fingerprint, wantFP)
	}
	sched, err := parseSchedule(resp.Schedule)
	if err != nil {
		return err
	}
	if err := sched.Validate(resp.Model.Layers); err != nil {
		return err
	}
	if budget := in.req.MaxMemoryBytes; budget > 0 {
		if resp.Memory == nil {
			return fmt.Errorf("budgeted plan carries no memory section")
		}
		if resp.Memory.PeakMemoryBytes > budget {
			return fmt.Errorf("peak %d bytes exceeds the budget of %d", resp.Memory.PeakMemoryBytes, budget)
		}
	}
	if !(resp.Speedup > 0) || math.IsInf(resp.Speedup, 0) {
		return fmt.Errorf("speedup %v is not a positive finite ratio", resp.Speedup)
	}
	return nil
}

// parseSchedule reads the response's op strings ("dO50", "dW50", ...) back
// into a backward schedule.
func parseSchedule(ops []string) (graph.BackwardSchedule, error) {
	sched := make(graph.BackwardSchedule, len(ops))
	for i, s := range ops {
		var kind graph.OpKind
		switch {
		case strings.HasPrefix(s, "dO"):
			kind = graph.OutGrad
		case strings.HasPrefix(s, "dW"):
			kind = graph.WeightGrad
		default:
			return nil, fmt.Errorf("schedule op %q at %d is neither dO nor dW", s, i)
		}
		layer, err := strconv.Atoi(s[2:])
		if err != nil {
			return nil, fmt.Errorf("schedule op %q at %d: %w", s, i, err)
		}
		sched[i] = graph.Op{Kind: kind, Layer: layer}
	}
	return sched, nil
}

// oneLine flattens an error body into one short line for a message.
func oneLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// planOp is what the closed loop keeps of one measured request.
type planOp struct {
	latency time.Duration
	// slice is the slice of the phase the request ran in.
	slice   int
	speedup float64
	saved   int
	space   int
	outcome string
	route   string
}

// planRun is the outcome of one closed-loop phase.
type planRun struct {
	attempted  int
	failed     int
	firstError string
	ops        []planOp
	// slices holds every slice's wall time, factors its host factor (see
	// host.go).
	slices     []time.Duration
	factors    []float64
	digest     string
	mallocs    uint64
	allocBytes uint64
}

// sliceLength is how long the closed loop runs between two host probes: long
// enough that the clients' pause at its end (each finishes the request it is
// in, the probe runs, they start again) costs a percent or two of it — plans
// of the memory workload take up to 80 ms — short enough to follow the
// host's moods.
func (e *planEnv) sliceLength() time.Duration {
	if e.kind == coldMemory {
		return 600 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// run drives the closed loop for the given length, slice by slice: in each
// slice e.clients goroutines each take the next request index (from first
// on), send it, time the reply and check it; between slices the clients
// pause and the host probe runs. Latency is client-side: from before the
// request is written to after the last body byte is read. Checks run after
// the clock stops.
func (e *planEnv) run(first int, length time.Duration) planRun {
	var next atomic.Int64
	next.Store(int64(first))
	fpSvc := e.nodes[0]

	type clientLog struct {
		buf      bytes.Buffer
		ops      []planOp
		failed   int
		firstErr string
	}
	logs := make([]clientLog, e.clients)
	digests := make([][sha256.Size]byte, digestPrefix)
	var digested atomic.Int64

	var out planRun
	var before, after runtimeCounters
	before.read()
	probes := []time.Duration{e.probes.measure()}
	for measured := time.Duration(0); measured < length; {
		slice, sliceLen := len(out.slices), min(e.sliceLength(), length-measured)
		start := time.Now()
		var wg sync.WaitGroup
		for c := range logs {
			wg.Add(1)
			go func(log *clientLog) {
				defer wg.Done()
				for time.Since(start) < sliceLen {
					i := int(next.Add(1) - 1)
					in := e.input(i)
					t0 := time.Now()
					r, err := e.post(e.target(i), in.body, &log.buf)
					op := planOp{latency: time.Since(t0), slice: slice}
					if err == nil {
						err = e.check(fpSvc, i, &in, r, &op)
					}
					if err != nil {
						log.failed++
						if log.firstErr == "" {
							log.firstErr = fmt.Sprintf("request %d: %v", i, err)
						}
						continue
					}
					if k := i - first; k >= 0 && k < digestPrefix {
						digests[k] = sha256.Sum256(r.body)
						digested.Add(1)
					}
					log.ops = append(log.ops, op)
				}
			}(&logs[c])
		}
		wg.Wait()
		wall := time.Since(start)
		out.slices = append(out.slices, wall)
		measured += wall
		probes = append(probes, e.probes.measure())
	}
	after.read()
	out.factors = hostFactors(probes)
	out.mallocs = after.mallocs - before.mallocs
	out.allocBytes = after.allocBytes - before.allocBytes

	for i := range logs {
		l := &logs[i]
		out.ops = append(out.ops, l.ops...)
		out.failed += l.failed
		if out.firstError == "" {
			out.firstError = l.firstErr
		}
	}
	out.attempted = len(out.ops) + out.failed
	if digested.Load() == digestPrefix {
		h := sha256.New()
		for _, d := range digests {
			h.Write(d[:])
		}
		out.digest = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// check applies the workload's output checks to one reply and fills op.
func (e *planEnv) check(fpSvc *plansvc.Service, i int, in *planInput, r reply, op *planOp) error {
	op.outcome, op.route = r.outcome, r.route
	if e.kind == warmTier {
		// Every repeat must be the first response again, byte for byte,
		// served from a cache: the first response was checked in full.
		h := &e.hot[i%len(e.hot)]
		if err := checkHeaders(r, h.fp, plansvc.OutcomeHit); err != nil {
			return err
		}
		if tiered := len(e.urls) > 1; tiered && r.route != shardsvc.RouteLocalOwner && r.route != shardsvc.RoutePeerCache {
			return fmt.Errorf("route %q after warm-up", r.route)
		}
		if !bytes.Equal(r.body, h.first) {
			return fmt.Errorf("body differs from the first response for the same request")
		}
		op.speedup = h.speedup
		return nil
	}
	fp, err := fpSvc.Fingerprint(&in.req)
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	resp, err := checkPlanBody(in, r, fp, plansvc.OutcomeComputed)
	if err != nil {
		return err
	}
	op.speedup = resp.Speedup
	if st := resp.SearchStats; st != nil {
		op.saved, op.space = st.Saved, st.Exhaustive
	}
	return nil
}

// latencies returns the latencies of the run's operations.
func (r *planRun) latencies() durations {
	d := make(durations, len(r.ops))
	for i, op := range r.ops {
		d[i] = op.latency
	}
	return d
}

// An untraced run is cut into rounds. Each round sets the workload up from
// nothing, measures for a third of the run's time, and tears everything
// down, so setup_s is a median of three set-ups and no single server
// instance (its heap layout, its connections, its goroutines' placement)
// decides the run. Every round sends the same requests. (The smoke test runs
// one round to stay short.)
const defaultRounds = 3

// planTotals gathers the rounds of one untraced plan run.
type planTotals struct {
	// latencies are as measured; normal are the same on an undisturbed host
	// (each multiplied by its slice's host factor, see host.go). wall and
	// normalWall are the slices' total time, likewise.
	latencies, normal durations
	wall, normalWall  time.Duration
	factors           []float64
	speedups          []float64
	attempted, failed int
	firstError        string
}

// add folds in one round.
func (t *planTotals) add(r *planRun) {
	for _, op := range r.ops {
		t.latencies = append(t.latencies, op.latency)
		t.normal = append(t.normal, time.Duration(float64(op.latency)*r.factors[op.slice]))
		t.speedups = append(t.speedups, op.speedup)
	}
	for i, wall := range r.slices {
		t.wall += wall
		t.normalWall += time.Duration(float64(wall) * r.factors[i])
	}
	t.factors = append(t.factors, r.factors...)
	t.attempted += r.attempted
	t.failed += r.failed
	if t.firstError == "" {
		t.firstError = r.firstError
	}
}

// endToEnd computes the end-to-end metrics of the gathered rounds on an
// undisturbed host: latency quantiles over all requests, throughput as all
// requests over the slices' time. Plan quality does not depend on the host.
func (t *planTotals) endToEnd() map[string]metric {
	out := timingMetrics(t.normal, t.normalWall)
	out["speedup_geomean"] = metric{stats.GeoMean(t.speedups), "ratio"}
	return out
}

func timingMetrics(lat durations, wall time.Duration) map[string]metric {
	return map[string]metric{
		"ops_per_s": {float64(len(lat)) / wall.Seconds(), "1/s"},
		"p50_ms":    {lat.quantile(0.50, ms), "ms"},
		"p95_ms":    {lat.quantile(0.95, ms), "ms"},
	}
}

// runPlan runs one plan workload in one pass.
func runPlan(kind planKind, o options) (*outcome, error) {
	if o.trace {
		env, err := setupPlan(kind, o.seed, o.clients)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer env.close()
		if err := env.warmUp(); err != nil {
			return nil, err
		}
		return tracePlan(env, o)
	}

	length := time.Duration(o.seconds * float64(time.Second) / float64(o.rounds))
	var totals planTotals
	var setups []float64
	digest := ""
	for r := 0; r < o.rounds; r++ {
		env, setup, err := timedSetup(newHostProbes(o.clients), func() (*planEnv, error) {
			return setupPlan(kind, o.seed, o.clients)
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, setup)
		var run planRun
		if err = env.warmUp(); err == nil {
			run = env.run(0, length)
		}
		env.close()
		if err != nil {
			return nil, err
		}
		totals.add(&run)
		switch {
		case digest == "":
			digest = run.digest
		case run.digest != "" && run.digest != digest:
			totals.failed++
			totals.firstError = fmt.Sprintf("round %d answered the first %d requests with other bytes than an earlier round", r, digestPrefix)
		}
	}
	out := &outcome{attempted: totals.attempted, failed: totals.failed, metrics: totals.endToEnd()}
	out.metrics["setup_s"] = metric{median(setups), "s"}
	if totals.failed > 0 {
		out.fail("%d of %d requests failed, first: %s", totals.failed, totals.attempted, totals.firstError)
	}
	n := len(totals.latencies)
	out.note("samples", "%d requests in %d rounds and %d slices, %d beyond p95", n, o.rounds, len(totals.factors), n/20)
	raw := timingMetrics(totals.latencies, totals.wall)
	out.note("as_measured", "ops_per_s=%.6g p50_ms=%.6g p95_ms=%.6g at a median host factor of %.3f",
		raw["ops_per_s"].value, raw["p50_ms"].value, raw["p95_ms"].value, median(totals.factors))
	out.note("bodies_sha256", "%s (first %d responses of a round)", orNone(digest), digestPrefix)
	return out, nil
}

func orNone(s string) string {
	if s == "" {
		return "none: the run ended before the digest prefix was complete"
	}
	return s
}

// calibrateBudgets finds, per zoo model, the smallest and the largest
// fragmented peak any candidate schedule of the memory sweep has. A
// schedule's footprint depends on the model alone (not on the cluster or
// the sync method), so one sweep per model bounds every request's budget.
func calibrateBudgets(zoo []string) map[string]budgetRange {
	ranges := make(map[string]budgetRange, len(zoo))
	ref := datapar.PubA()
	for _, name := range zoo {
		m, err := models.BuildZoo(name, ref.Profile)
		if err != nil {
			// zoo comes from models.ZooNames.
			panic(fmt.Errorf("benchmark: %w", err))
		}
		space := searchSpace(m, datapar.Costs(m, ref, 8, datapar.OOOBytePS), datapar.OOOBytePS, "ooo-byteps", 0)
		r := plansearch.ParetoSweep(space, plansearch.Config{})
		br := budgetRange{tight: math.MaxInt64}
		for _, p := range r.Points {
			br.tight = min(br.tight, p.Mem.FragPeakBytes)
			br.loose = max(br.loose, p.Mem.FragPeakBytes)
		}
		ranges[name] = br
	}
	return ranges
}

// searchSpace builds the candidate space of a data-parallel plan the way
// plansvc's planner does: one discipline, the sync method's channel
// behaviour (mirrors datapar.Run's switch).
func searchSpace(m *models.Model, costs core.IterCosts, method datapar.Method, name string, budget int64) plansearch.Space {
	d := plansearch.Discipline{Name: name, Prio: func(int) int { return 0 }}
	switch method {
	case datapar.P3:
		d.Prio = func(layer int) int { return layer }
	case datapar.BytePS, datapar.OOOBytePS:
		d.Prio, d.Preemptive = func(layer int) int { return layer }, true
	}
	return plansearch.Space{Model: m, Costs: costs, MaxMemoryBytes: budget, Disciplines: []plansearch.Discipline{d}}
}
