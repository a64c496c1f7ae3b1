package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"oooback/internal/bfc"
	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/plansearch"
	"oooback/internal/plansvc"
	"oooback/internal/shardsvc"
)

// The traced pass of a plan workload. It runs on one goroutine against a
// fresh in-process service and times calls into each module's public
// functions. What Service.Plan does inside cannot be opened from out here,
// so after each cold plan the harness re-runs the planner's stages itself on
// the same inputs (lane "replay") and checks that it arrives at the plan the
// service returned — otherwise it would be timing something else.

// sampleStride picks every 7th input of the workload's stream for the
// traced pass (7 shares no factor with the hot set's 256, so a cycling
// workload visits every member).
const sampleStride = 7

// maxSamples caps the traced operations of a pass, so that a workload whose
// operations take microseconds does not fill the memory with spans.
const maxSamples = 20000

// twinOffset separates an operation's untraced twin from the traced
// original: the same configuration under a budget this much looser is the
// same work (the time search never binds, the memory sweep is exhaustive)
// under a different fingerprint.
const twinOffset = int64(1) << 36

// Span names of the calls an operation makes, in order.
const (
	spanRequest     = "request"
	spanDecode      = "plansvc.decode"
	spanFingerprint = "plansvc.fingerprint"
	spanRingOwner   = "shardsvc.ring_owner"
	spanCacheHit    = "plansvc.cache_hit"
	spanCacheMiss   = "plansvc.cache_miss"
	spanPlanCall    = "plansvc.plan_call"
	spanWarmHitCall = "plansvc.warm_hit_call"
)

// Span names of the replayed planner stages.
const (
	spanBuildZoo     = "models.build_zoo"
	spanCosts        = "datapar.costs"
	spanSimulate     = "core.simulate_iteration"
	spanSearch       = "plansearch.search"
	spanReverseK     = "core.reverse_first_k"
	spanMemSchedule  = "core.mem_schedule"
	spanMemFootprint = "plansearch.mem_footprint"
	spanTraceAllocs  = "graph.trace_allocs"
	spanReplay       = "bfc.replay"
	spanParetoSweep  = "plansearch.pareto_sweep"
	spanMemorySearch = "plansearch.memory_search"
	spanEncode       = "plansvc.encode"
)

// planTracer is the state of one traced plan pass.
type planTracer struct {
	kind planKind
	rec  *recorder
	svc  *plansvc.Service
	ring *shardsvc.Ring
	pool sync.Pool // *core.IterScratch, as the planner keeps one

	// first holds the serving bytes of every fingerprint of a cycling
	// workload planned so far: the bytes every later hit must equal.
	first map[string][]byte

	attempted, failed int
	firstErr          string
	// overheads holds, per traced operation, how much longer it took than
	// its untraced twin, as a share of the twin.
	overheads    []float64
	probes       int
	replayEvents []float64
	bodyBytes    []float64
}

func (t *planTracer) failf(i int, format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("sample %d: ", i) + fmt.Sprintf(format, args...)
	}
}

// serve makes the calls one request costs a node of the tier, in order:
// decode the body as handlePlan does, fingerprint it as the router does,
// look up the ring owner, try the LRU as a non-owner would, then call the
// service. rec == nil runs the same calls untraced. It returns the plan, its
// fingerprint, whether the service had to compute it, and the wall time.
func (t *planTracer) serve(rec *recorder, i int, body []byte) (*plansvc.PlanResponse, string, bool, time.Duration, error) {
	t0 := time.Now()
	root := rec.begin(spanRequest, laneCalls, -1, i)
	defer rec.end(root)

	id := rec.begin(spanDecode, laneCalls, root, i)
	var req plansvc.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	rec.end(id)
	if err != nil {
		return nil, "", false, 0, fmt.Errorf("decode request: %w", err)
	}

	id = rec.begin(spanFingerprint, laneCalls, root, i)
	fp, err := t.svc.Fingerprint(&req)
	rec.end(id)
	if err != nil {
		return nil, "", false, 0, fmt.Errorf("fingerprint: %w", err)
	}

	id = rec.begin(spanRingOwner, laneCalls, root, i)
	_ = t.ring.Owner(fp)
	rec.end(id)

	id = rec.begin(spanCacheHit, laneCalls, root, i)
	_, resident := t.svc.CachedBody(fp)
	if rec != nil && !resident {
		rec.spans[id].name = spanCacheMiss
	}
	rec.end(id)

	name := spanPlanCall
	if resident {
		name = spanWarmHitCall
	}
	id = rec.begin(name, laneCalls, root, i)
	resp, err := t.svc.Plan(context.Background(), &req)
	rec.end(id)
	if err != nil {
		return nil, "", false, 0, fmt.Errorf("plan: %w", err)
	}
	return resp, fp, !resident, time.Since(t0), nil
}

// sample traces input i: the operation itself, its untraced twin, the
// output checks, and for a cold plan the replay of the planner's stages.
func (t *planTracer) sample(i int, in planInput, tracedFirst bool) {
	twin := in
	// A resident request's twin is the request itself: a hit is a hit.
	if _, resident := t.first[t.fingerprintOf(&in)]; !resident {
		twin.req.MaxMemoryBytes += twinOffset
		twin.encode()
	}
	var resp *plansvc.PlanResponse
	var fp string
	var cold bool
	var tracedWall, twinWall time.Duration
	traced := func() {
		t.attempted++
		var err error
		if resp, fp, cold, tracedWall, err = t.serve(t.rec, i, in.body); err != nil {
			t.failf(i, "%v", err)
		}
	}
	untraced := func() {
		t.attempted++
		twinResp, twinFP, _, wall, err := t.serve(nil, i, twin.body)
		if err == nil {
			err = checkPlan(&twin, twinResp, twinFP)
		}
		if err != nil {
			t.failf(i, "untraced twin: %v", err)
			return
		}
		twinWall = wall
	}
	if tracedFirst {
		traced()
		untraced()
	} else {
		untraced()
		traced()
	}
	if tracedWall > 0 && twinWall > 0 {
		t.overheads = append(t.overheads, float64(tracedWall-twinWall)/float64(twinWall))
	}
	if resp == nil {
		return
	}
	if err := checkPlan(&in, resp, fp); err != nil {
		t.failf(i, "%v", err)
		return
	}
	served, ok := t.svc.CachedBody(fp)
	if !ok {
		t.failf(i, "plan is not resident right after it was served")
		return
	}
	if !cold {
		if !bytes.Equal(served, t.first[fp]) {
			t.failf(i, "body differs from the first response for the same request")
		}
		return
	}
	t.bodyBytes = append(t.bodyBytes, float64(len(served)))
	if err := t.replay(i, &in, resp, served); err != nil {
		t.failf(i, "%v", err)
		return
	}
	if t.kind == warmTier {
		t.first[fp] = served // the hot set comes round again
		return
	}
	// A cold workload never asks again; ask once now so its hit path is
	// measured too, against the bytes just served.
	t.attempted++
	again, _, againCold, _, err := t.serve(t.rec, i, in.body)
	switch after, _ := t.svc.CachedBody(fp); {
	case err != nil:
		t.failf(i, "repeat: %v", err)
	case againCold:
		t.failf(i, "repeat of a resident plan was computed again")
	case again.Fingerprint != fp || !bytes.Equal(after, served):
		t.failf(i, "repeat served a different body")
	}
}

func (t *planTracer) fingerprintOf(in *planInput) string {
	fp, err := t.svc.Fingerprint(&in.req)
	if err != nil {
		return ""
	}
	return fp
}

// replay re-runs the stages of planDataPar on the harness's own copy of the
// request's inputs, one span per public call, all children of the real
// plan_call span, and checks the replay arrives at the served plan.
func (t *planTracer) replay(i int, in *planInput, resp *plansvc.PlanResponse, served []byte) error {
	rec := t.rec
	parent := t.lastSpan(spanPlanCall)
	stage := func(name string, parent int, fn func()) {
		id := rec.begin(name, laneReplay, parent, i)
		fn()
		rec.end(id)
	}

	var m *models.Model
	var err error
	stage(spanBuildZoo, parent, func() { m, err = models.BuildZoo(in.req.Model, in.cluster.Profile) })
	if err != nil {
		return err
	}
	var costs core.IterCosts
	stage(spanCosts, parent, func() { costs = datapar.Costs(m, in.cluster, in.req.Cluster.GPUs, in.method) })
	space := searchSpace(m, costs, in.method, in.req.Method, in.req.MaxMemoryBytes)
	disc := space.Disciplines[0]
	L := len(m.Layers)

	sc := t.pool.Get().(*core.IterScratch)
	defer t.pool.Put(sc)
	simulate := func(parent int, order graph.BackwardSchedule) time.Duration {
		var r core.IterResult
		stage(spanSimulate, parent, func() { r = sc.SimulateIteration(costs, order, disc.Prio, disc.Preemptive) })
		return r.Makespan
	}
	baseline := simulate(parent, graph.Conventional(L))
	if int64(baseline) != resp.BaselineIterTimeNs {
		return fmt.Errorf("replayed baseline %d ns, served plan says %d ns", baseline, resp.BaselineIterTimeNs)
	}

	cfg := plansearch.Config{Workers: 1, Scratch: &t.pool}
	var order graph.BackwardSchedule
	var makespan time.Duration
	k := 0
	switch in.req.Objective {
	case plansvc.ObjectivePareto:
		var r plansearch.ParetoResult
		stage(spanParetoSweep, parent, func() { r = plansearch.ParetoSweep(space, cfg) })
		for _, pt := range r.Frontier {
			if pt.Mem.FragPeakBytes <= in.req.MaxMemoryBytes {
				order, makespan, k = space.MemPointSchedule(pt), pt.Makespan, pt.K
				break
			}
		}
	case plansvc.ObjectiveMemory:
		var r plansearch.MemResult
		stage(spanMemorySearch, parent, func() { r = plansearch.MemorySearch(space, in.req.MaxMemoryBytes, cfg) })
		if r.Feasible {
			order, makespan, k = space.MemPointSchedule(r.Best), r.Best.Makespan, r.Best.K
		}
	default:
		var r plansearch.Result
		stage(spanSearch, parent, func() { r = plansearch.Search(space, plansearch.Guided, cfg) })
		stage(spanReverseK, parent, func() { order = space.Schedule(r.Best) })
		makespan, k = r.Best.Makespan, r.Best.K
	}
	if order == nil {
		return fmt.Errorf("replay found no schedule inside the budget the service met")
	}
	if int64(makespan) != resp.IterTimeNs || k != resp.K {
		return fmt.Errorf("replay chose k=%d at %d ns, served plan says k=%d at %d ns", k, makespan, resp.K, resp.IterTimeNs)
	}
	if st := resp.SearchStats; st != nil {
		t.probes += st.Probes + 1 // the baseline is a probe too
	}

	// The footprint of the chosen schedule: one call per time plan, one per
	// candidate inside a memory sweep. Under a sweep these are samples of
	// what the sweep repeats, so they hang off the request, not the sweep.
	under := parent
	if in.req.Objective != plansvc.ObjectiveTime {
		under = t.lastSpan(spanRequest)
		stage(spanReverseK, under, func() { _ = core.ReverseFirstK(m, L/2, 0) })
		stage(spanMemSchedule, under, func() { _ = core.MemSchedule(m) })
	}
	footprint := rec.begin(spanMemFootprint, laneReplay, under, i)
	_ = plansearch.MemFootprint(m, order)
	rec.end(footprint)
	var tr graph.AllocTrace
	stage(spanTraceAllocs, footprint, func() { tr = graph.TraceAllocs(m, order) })
	events := make([]bfc.Event, len(tr.Events))
	for j, ev := range tr.Events {
		events[j] = bfc.Event{ID: ev.ID, Bytes: ev.Bytes, Free: ev.Free}
	}
	stage(spanReplay, footprint, func() { _ = bfc.Replay(events) })
	t.replayEvents = append(t.replayEvents, float64(len(events)))

	var encoded []byte
	stage(spanEncode, parent, func() { encoded, err = json.MarshalIndent(resp, "", "  ") })
	if err != nil {
		return err
	}
	if !bytes.Equal(append(encoded, '\n'), served) {
		return fmt.Errorf("served bytes are not the canonical rendering of the plan")
	}
	// One more probe at the chosen schedule, warm scratch: the unit the
	// search's probe count multiplies.
	simulate(t.lastSpan(spanRequest), order)
	return nil
}

// lastSpan returns the index of the most recent span of the given name.
func (t *planTracer) lastSpan(name string) int {
	for id := len(t.rec.spans) - 1; id >= 0; id-- {
		if t.rec.spans[id].name == name {
			return id
		}
	}
	return -1
}

// tracePlan is the traced pass of a plan workload: a short untraced
// closed-loop phase for the numbers that only exist over HTTP (outcome and
// route shares, allocations per request, the latency the in-process call is
// subtracted from), then the in-process traced phase, then the workload's
// extras.
func tracePlan(env *planEnv, o options) (*outcome, error) {
	phase := time.Duration(o.seconds * float64(time.Second) * 0.4)
	var gcBefore, gcAfter runtimeCounters
	gcBefore.read()

	probesBefore := searchProbes(env.nodes)
	run := env.run(0, phase)
	out := &outcome{attempted: run.attempted, failed: run.failed, metrics: map[string]metric{}}
	if run.failed > 0 {
		out.fail("%d of %d requests failed, first: %s", run.failed, run.attempted, run.firstError)
	}
	set := func(name string, v float64, unit string) { out.metrics[name] = metric{v, unit} }
	env.httpMetrics(&run, searchProbes(env.nodes)-probesBefore, set)

	ring, err := shardsvc.NewRing(env.urls, 0)
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	t := &planTracer{
		kind:  env.kind,
		rec:   newRecorder(),
		svc:   plansvc.New(plansvc.Options{Logger: discardLog}),
		ring:  ring,
		pool:  sync.Pool{New: func() any { return new(core.IterScratch) }},
		first: map[string][]byte{},
	}
	defer t.svc.Close()
	// The resident-set peak is read before the spans pile up: it is the
	// program's and the load generator's, not the tracer's.
	set("process.rss_peak_mb", rssPeakMB(), "MB")
	start := time.Now()
	for n := 0; n < maxSamples && time.Since(start) < phase; n++ {
		i := n * sampleStride
		t.sample(i, env.input(i), n%2 == 0)
	}
	out.attempted += t.attempted
	out.failed += t.failed
	if t.failed > 0 {
		out.fail("traced pass: %d of %d operations failed, first: %s", t.failed, t.attempted, t.firstErr)
	}
	t.layerMetrics(run.latencies().quantile(0.5, us), set)
	out.note("traced_samples", "%d traced operations, %d spans", len(t.overheads), len(t.rec.spans))
	out.note("self_time", "%s", selfTimeTable(t.rec))

	if env.kind == warmTier {
		ratio, err := env.singleNodeRatio(run.latencies().quantile(0.5, ms), time.Duration(o.seconds*float64(time.Second)*0.1))
		if err != nil {
			return nil, err
		}
		set("shardsvc.single_node_ratio", ratio, "ratio")
	}

	gcAfter.read()
	set("process.gc_cycles", float64(gcAfter.gcCycles-gcBefore.gcCycles), "count")
	set("process.gc_pause_ms", float64(gcAfter.gcPauseNs-gcBefore.gcPauseNs)/1e6, "ms")
	path, err := t.rec.writeChrome(o.outDir, o.workload)
	if err != nil {
		return nil, err
	}
	out.note("trace_file", "%s", path)
	return out, nil
}

// searchProbes sums the simulator probes the nodes' searches have issued.
func searchProbes(nodes []*plansvc.Service) float64 {
	var n float64
	for _, svc := range nodes {
		if v, ok := svc.Metrics().Snapshot()["plansvc_search_probes_total"].(int64); ok {
			n += float64(v)
		}
	}
	return n
}

// httpMetrics reports what the untraced closed-loop phase alone can see.
func (e *planEnv) httpMetrics(run *planRun, probes float64, set func(string, float64, string)) {
	n := float64(len(run.ops))
	if n == 0 {
		return
	}
	set("host.probe_us", us(probeReference)/median(run.factors), "us")
	set("plansvc.p99_ms", run.latencies().quantile(0.99, ms), "ms")
	set("plansvc.allocs_per_req", float64(run.mallocs)/n, "count")
	set("plansvc.bytes_per_req", float64(run.allocBytes)/n, "B")

	outcomes, routes := map[string]float64{}, map[string]durations{}
	var saved, space float64
	for _, op := range run.ops {
		outcomes[op.outcome]++
		routes[op.route] = append(routes[op.route], op.latency)
		saved += float64(op.saved)
		space += float64(op.space)
	}
	set("plansvc.outcome.computed_share", outcomes[plansvc.OutcomeComputed]/n, "ratio")
	set("plansvc.outcome.hit_share", outcomes[plansvc.OutcomeHit]/n, "ratio")
	set("plansvc.outcome.collapsed_share", outcomes[plansvc.OutcomeCollapsed]/n, "ratio")
	// Exact counts from the services' own counter, so the warm workload's
	// "no request reaches a planner" is read where the probes would happen.
	set("plansearch.probes_per_plan", probes/n, "count")
	if space > 0 {
		set("plansearch.saved_share", saved/space, "ratio")
	}

	var stats struct{ hits, misses, evictions int64 }
	for _, svc := range e.nodes {
		st := svc.CacheStats()
		stats.hits += st.Hits
		stats.misses += st.Misses
		stats.evictions += st.Evictions
	}
	set("plansvc.cache.hits", float64(stats.hits), "count")
	set("plansvc.cache.misses", float64(stats.misses), "count")
	set("plansvc.cache.evictions", float64(stats.evictions), "count")

	if e.kind != warmTier {
		return
	}
	for route, name := range map[string]string{
		shardsvc.RouteLocalOwner: "shardsvc.route.local_owner",
		shardsvc.RoutePeerCache:  "shardsvc.route.peer_cache",
	} {
		set(name+"_ms_p50", routes[route].quantile(0.5, ms), "ms")
		set(name+"_share", float64(len(routes[route]))/n, "ratio")
	}
	// The proxy hop happens only while the hot set is being filled.
	set("shardsvc.route.proxy_ms_p50", e.proxyLat.quantile(0.5, ms), "ms")
	set("shardsvc.route.proxy_share", float64(len(e.proxyLat))/float64(len(e.hot)*len(e.urls)), "ratio")
}

// layerMetrics turns the recorded spans into the per-layer metrics.
func (t *planTracer) layerMetrics(httpP50us float64, set func(string, float64, string)) {
	by := t.rec.byName()
	for name, metricName := range map[string]string{
		spanPlanCall:     "plansvc.plan_call_us",
		spanDecode:       "plansvc.decode_us",
		spanFingerprint:  "plansvc.fingerprint_us",
		spanCacheHit:     "plansvc.cache_hit_us",
		spanWarmHitCall:  "plansvc.warm_hit_call_us",
		spanEncode:       "plansvc.encode_us",
		spanBuildZoo:     "models.build_zoo_us",
		spanCosts:        "datapar.costs_us",
		spanSearch:       "plansearch.search_us",
		spanMemFootprint: "plansearch.mem_footprint_us",
		spanParetoSweep:  "plansearch.pareto_sweep_us",
		spanMemorySearch: "plansearch.memory_search_us",
		spanSimulate:     "core.simulate_iteration_us",
		spanReverseK:     "core.reverse_first_k_us",
		spanMemSchedule:  "core.mem_schedule_us",
		spanTraceAllocs:  "graph.trace_allocs_us",
		spanReplay:       "bfc.replay_us",
	} {
		set(metricName, p50us(by, name), "us")
	}
	if lt := by[spanRingOwner]; lt != nil {
		set("shardsvc.ring_owner_ns", lt.samples.quantile(0.5, us)*1000, "ns")
	}
	set("plansvc.body_bytes_p50", median(t.bodyBytes), "B")
	set("bfc.replay_events_p50", median(t.replayEvents), "count")

	// The HTTP share of a request: the closed loop's median latency minus
	// the median of the in-process call that served the same kind of request.
	inProcess := p50us(by, spanPlanCall)
	if t.kind == warmTier {
		inProcess = p50us(by, spanWarmHitCall)
	}
	set("plansvc.http_overhead_us", httpP50us-inProcess, "us")

	// What the replayed stages leave unexplained of the real cold calls, and
	// the simulator's share of them.
	var planned, explained time.Duration
	for _, s := range t.rec.spans {
		if s.name == spanPlanCall {
			planned += s.end - s.start
		}
		if s.parent >= 0 && t.rec.spans[s.parent].name == spanPlanCall {
			explained += s.end - s.start
		}
	}
	if planned > 0 {
		set("plansvc.unattributed_share", 1-float64(explained)/float64(planned), "ratio")
		set("core.simulate_share", float64(t.probes)*p50us(by, spanSimulate)/us(planned), "ratio")
	}
	set("trace.overhead_share", median(t.overheads), "ratio")
}

// singleNodeRatio measures the hot set against one bare plansvc handler with
// the same closed loop and returns the tier's median latency over the
// node's: the "tier within 2× of a node" bar.
func (e *planEnv) singleNodeRatio(tierP50ms float64, length time.Duration) (float64, error) {
	svc := plansvc.New(plansvc.Options{Logger: discardLog})
	srv := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer srv.Close()
	node := &planEnv{
		kind: warmTier, clients: e.clients, client: e.client, hot: e.hot, probes: e.probes,
		nodes: []*plansvc.Service{svc}, urls: []string{srv.URL},
	}
	var buf bytes.Buffer
	for j := range node.hot {
		if _, err := node.post(srv.URL, node.hot[j].in.body, &buf); err != nil {
			return 0, fmt.Errorf("single node warm-up: %w", err)
		}
	}
	run := node.run(0, length)
	if run.failed > 0 || len(run.ops) == 0 {
		return 0, fmt.Errorf("single node: %d of %d requests failed: %s", run.failed, run.attempted, run.firstError)
	}
	return tierP50ms / run.latencies().quantile(0.5, ms), nil
}
