// Package plansvc is the schedule-planning service: a production-grade HTTP
// API over the paper's scheduling algorithms. POST /v1/plan accepts a model
// (zoo name or inline layer-cost profile) plus a cluster description and
// returns the optimized backward schedule — reverse first-k, multi-region
// joint scheduling, or fast-forwarding + modulo allocation depending on mode
// — with the predicted iteration time and speedup over the conventional
// order.
//
// The request path layers, outside-in:
//
//	validation (typed error envelopes)
//	→ canonical fingerprinting (planSpec → sha256)
//	→ bounded LRU plan cache with singleflight collapse (plansvc/cache)
//	→ bounded admission queue (load shed: 429 + Retry-After)
//	→ worker pool with warm core.IterScratch state (sync.Pool + parexec)
//
// Metrics (counters, gauges, latency histograms) are exported at /metrics
// (plaintext) and /debug/vars (expvar JSON); requests emit structured logs.
// Close drains the workers for graceful shutdown.
package plansvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"oooback/internal/models"
	"oooback/internal/parexec"
	"oooback/internal/plansvc/cache"
	"oooback/internal/plansvc/metrics"
	"oooback/internal/plansvc/warmcache"
)

// Options configures a Service. The zero value means defaults everywhere.
type Options struct {
	// Workers is the planner worker-pool size (default: GOMAXPROCS, max 8).
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with 429
	// (default 64).
	QueueDepth int
	// CacheSize bounds the plan LRU (default 512 entries).
	CacheSize int
	// SearchWorkers bounds the parexec fan-out inside one k search
	// (default: GOMAXPROCS / Workers, at least 1).
	SearchWorkers int
	// CostTable, if non-nil, is a fitted calibration cost table (calib.Fit
	// output): zoo models are re-timed onto its fitted laws via
	// models.Retimed before planning, so plans reflect measured rather than
	// hand-written costs. Inline model specs are never re-timed — their
	// times are the caller's own measurements. The table must carry the
	// fwd/dO/dW families (New panics otherwise; see CheckCostTable).
	CostTable *models.CostTable
	// WarmCache, if non-nil, is a persistent warm-start cache (warmcache.Open
	// output). LRU misses consult it before admission — a disk hit serves the
	// stored body with zero planner probes — and freshly computed plans are
	// written behind the LRU so a restarted service boots warm. Plans are
	// pure functions of their fingerprint, so entries never go stale; the
	// caller owns the cache's lifetime (Close it after the service).
	WarmCache *warmcache.Cache
	// Logger receives structured request logs (default: slog.Default).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = parexec.Default()
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 512
	}
	if o.SearchWorkers <= 0 {
		o.SearchWorkers = parexec.Default() / o.Workers
		if o.SearchWorkers < 1 {
			o.SearchWorkers = 1
		}
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Service is the planning service. Construct with New, serve via Handler,
// release with Close.
type Service struct {
	opts    Options
	log     *slog.Logger
	planner *planner
	// planFn computes one plan; defaults to planner.plan. Tests swap it to
	// make worker occupancy deterministic.
	planFn func(*planSpec) (*PlanResponse, error)
	cache  *cache.Cache[string, *cachedPlan]

	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	// ewmaPlanNs tracks recent planning latency for Retry-After estimates.
	ewmaPlanNs atomic.Int64
	start      time.Time
	reqSeq     atomic.Int64

	reg *metrics.Registry
	met serviceMetrics
}

// serviceMetrics is the instrument set of the service.
type serviceMetrics struct {
	requests      *metrics.Counter
	plansComputed *metrics.Counter
	planErrors    *metrics.Counter
	planPanics    *metrics.Counter
	cacheHits     *metrics.Counter
	collapsed     *metrics.Counter
	shed          *metrics.Counter
	deadline      *metrics.Counter
	badRequests   *metrics.Counter
	queueDepth    *metrics.Gauge
	inflight      *metrics.Gauge
	cacheLen      *metrics.Gauge
	planLatency   *metrics.Histogram
	reqLatency    *metrics.Histogram

	// Schedule-search effort (datapar plans).
	searchProbes      *metrics.Counter
	searchProbesSaved *metrics.Counter
	searchRankCorr    *metrics.Gauge

	// Persistent warm-start cache.
	warmHits    *metrics.Counter
	warmWrites  *metrics.Counter
	warmCorrupt *metrics.Counter
	warmEntries *metrics.Gauge

	// Batch planning.
	batchRequests *metrics.Counter
	batchItems    *metrics.Counter
	batchDeduped  *metrics.Counter

	// Peer cache fills (shard tier pushing proxied bodies into the LRU).
	peerFills *metrics.Counter
}

// Outcome values of the HeaderOutcome response header: how a plan body was
// obtained.
const (
	// OutcomeHit: served from the in-memory LRU.
	OutcomeHit = "hit"
	// OutcomeComputed: this request ran the planner.
	OutcomeComputed = "computed"
	// OutcomeCollapsed: waited on an identical in-flight computation.
	OutcomeCollapsed = "collapsed"
	// OutcomeWarm: served from the persistent warm-start cache (disk hit,
	// zero planner probes).
	OutcomeWarm = "warm"
)

// spec is a normalized request, *planSpec or *whatifSpec: all the serving
// path needs to know about the endpoint a request came in on.
type spec interface {
	// base carries the mode, the deadline and the cost table (for a what-if,
	// its unperturbed plan).
	base() *planSpec
	fingerprint() string
	// kind names the endpoint in job labels: "plan" or "whatif".
	kind() string
	// compute runs the planner and folds its search effort into the metrics.
	compute(s *Service) (response, error)
	// newResponse is an empty response to decode stored bytes into.
	newResponse() response
}

// response is a cacheable response body, *PlanResponse or *WhatIfResponse,
// exposing the fingerprint the body itself carries.
type response interface {
	fingerprint() string
}

// cachedPlan is the cache value: the response, its serialized body, and the
// prebuilt fingerprint header value, so hits serve stored bytes with zero
// planning, encoding or header-allocation work.
type cachedPlan struct {
	resp     response
	body     []byte
	fpHeader []string // {fingerprint}, assigned directly into the header map
}

// job is one admitted computation (a plan or a what-if).
type job struct {
	label string // for panic logs: "plan datapar", "whatif pipeline", ...
	fn    func() (*cachedPlan, error)
	ctx   context.Context
	done  chan jobResult // buffered(1): workers never block on abandoned jobs
}

type jobResult struct {
	entry *cachedPlan
	err   error
}

// CheckCostTable verifies a fitted cost table carries the families zoo-model
// re-timing needs (fwd, dO, dW). Options.CostTable must pass this check;
// callers loading tables from disk should run it first for a friendly error.
func CheckCostTable(t *models.CostTable) error {
	for _, fam := range []string{"fwd", "dO", "dW"} {
		if _, err := t.Cost(fam, 1); err != nil {
			return fmt.Errorf("plansvc: cost table %q cannot re-time zoo models: %w", t.Name, err)
		}
	}
	return nil
}

// New constructs a Service and starts its worker pool. It panics when
// Options.CostTable cannot re-time zoo models (see CheckCostTable) — a
// misconfigured table must fail at startup, not on the first zoo request.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	if opts.CostTable != nil {
		if err := CheckCostTable(opts.CostTable); err != nil {
			panic(err)
		}
	}
	s := &Service{
		opts:    opts,
		log:     opts.Logger,
		planner: newPlanner(opts.SearchWorkers),
		cache:   cache.New[string, *cachedPlan](opts.CacheSize),
		queue:   make(chan *job, opts.QueueDepth),
		quit:    make(chan struct{}),
		start:   time.Now(),
		reg:     metrics.NewRegistry("plansvc"),
	}
	s.planFn = s.planner.plan
	m := &s.met
	m.requests = s.reg.Counter("requests_total", "HTTP requests received")
	m.plansComputed = s.reg.Counter("plans_computed_total", "plans computed by the worker pool (cache misses that ran the planner)")
	m.planErrors = s.reg.Counter("plan_errors_total", "plan computations that returned an error")
	m.planPanics = s.reg.Counter("plan_panics_total", "plan computations recovered from a panic")
	m.cacheHits = s.reg.Counter("cache_hits_total", "plan requests served from the LRU cache")
	m.collapsed = s.reg.Counter("singleflight_collapsed_total", "plan requests that waited on an identical in-flight computation")
	m.shed = s.reg.Counter("shed_total", "plan requests shed with 429 because the admission queue was full")
	m.deadline = s.reg.Counter("deadline_exceeded_total", "plan requests that hit their deadline before completing")
	m.badRequests = s.reg.Counter("bad_requests_total", "requests rejected by validation")
	m.queueDepth = s.reg.GaugeFunc("queue_depth", "admitted jobs waiting for a worker", func() int64 { return int64(len(s.queue)) })
	m.inflight = s.reg.Gauge("inflight_requests", "plan requests currently being handled")
	m.cacheLen = s.reg.GaugeFunc("cache_entries", "plans held in the LRU cache", func() int64 { return int64(s.cache.Len()) })
	m.planLatency = s.reg.Histogram("plan_latency_seconds", "planner compute latency", nil)
	m.reqLatency = s.reg.Histogram("request_latency_seconds", "end-to-end /v1/plan latency", nil)
	m.searchProbes = s.reg.Counter("search_probes_total", "exact simulator probes issued by schedule search")
	m.searchProbesSaved = s.reg.Counter("search_probes_saved_total", "simulator probes avoided versus an exhaustive sweep")
	m.searchRankCorr = s.reg.Gauge("search_rank_correlation_milli", "predictor Spearman rank correlation of the most recent guided search, in thousandths")
	m.warmHits = s.reg.Counter("warmcache_hits_total", "plan requests served from the persistent warm-start cache")
	m.warmWrites = s.reg.Counter("warmcache_writes_total", "plan bodies persisted to the warm-start cache")
	m.warmCorrupt = s.reg.Counter("warmcache_corrupt_total", "warm-start cache records skipped as corrupt or truncated")
	m.warmEntries = s.reg.GaugeFunc("warmcache_entries", "entries indexed in the persistent warm-start cache", func() int64 {
		if opts.WarmCache == nil {
			return 0
		}
		return int64(opts.WarmCache.Len())
	})
	m.batchRequests = s.reg.Counter("batch_requests_total", "POST /v1/plan:batch requests received")
	m.batchItems = s.reg.Counter("batch_items_total", "plan items carried by batch requests")
	m.batchDeduped = s.reg.Counter("batch_deduped_items_total", "batch items answered by another item's computation in the same batch")
	m.peerFills = s.reg.Counter("peer_fills_total", "plan bodies filled into the LRU from a peer shard's response")
	if opts.WarmCache != nil {
		// Boot-time corruption was counted by warmcache.Open before the
		// registry existed; fold it in once here.
		m.warmCorrupt.Add(opts.WarmCache.Corrupt())
	}

	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics returns the service's metric registry (for tests and embedding).
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// CacheStats returns the plan cache counters.
func (s *Service) CacheStats() cache.Stats { return s.cache.Stats() }

// Close drains the worker pool: already-admitted jobs finish, new plan
// requests fail with code shutting_down. Call after the HTTP server has
// stopped accepting requests (so no waiter outlives its worker).
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.quit)
	s.wg.Wait()
}

// Plan computes (or returns the cached) plan for req. It is the programmatic
// equivalent of POST /v1/plan and goes through the same validation,
// fingerprint, cache, and admission layers.
func (s *Service) Plan(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	sp, err := normalize(req)
	if err != nil {
		return nil, err
	}
	entry, _, err := s.lookupOrCompute(ctx, s.key(sp), sp)
	if err != nil {
		return nil, err
	}
	return entry.resp.(*PlanResponse), nil
}

// key returns the canonical cache key of a normalized request on this
// service. A zoo-model spec is first pointed at the service's fitted cost
// table: the table's name enters the fingerprint (CostModel), so re-timed
// plans never collide with default ones, and resolveModel applies the
// re-timing lazily on cache misses. Inline specs are untouched.
func (s *Service) key(sp spec) string {
	if b := sp.base(); s.opts.CostTable != nil && b.ModelName != "" {
		b.retime = s.opts.CostTable
		b.CostModel = s.opts.CostTable.Name
	}
	return sp.fingerprint()
}

// storedEntry rebuilds fp's cache entry from a stored body (warm cache, peer
// fill), typed response included, so such entries serve the programmatic API
// too. A body that does not carry fp itself is refused.
func storedEntry(sp spec, fp string, body []byte) (*cachedPlan, error) {
	resp := sp.newResponse()
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, err
	}
	if got := resp.fingerprint(); got != fp {
		return nil, fmt.Errorf("body carries fingerprint %s", got)
	}
	return &cachedPlan{resp: resp, body: body, fpHeader: []string{fp}}, nil
}

// maxPlanTime caps the server-side planning deadline; request timeouts above
// it are clamped.
const maxPlanTime = 30 * time.Second

// planDeadline clamps a request timeout to the server-side planning limit.
func (s *Service) planDeadline(deadlineMillis int64) time.Duration {
	limit := maxPlanTime
	if ms := deadlineMillis; ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < limit {
			limit = d
		}
	}
	return limit
}

// lookupOrCompute runs the LRU → warm cache → admission → worker path for a
// request whose key is fp: LRU hits and collapsed waits never reach the
// queue; warm disk hits fill the LRU without admission; real misses are
// computed once by a worker under the request deadline and written behind the
// LRU to the warm cache.
func (s *Service) lookupOrCompute(ctx context.Context, fp string, sp spec) (*cachedPlan, string, error) {
	ctx, cancel := context.WithTimeout(ctx, s.planDeadline(sp.base().deadlineMillis))
	defer cancel()
	entry, oc, err := s.cachedDo(ctx, fp, sp, func() (*cachedPlan, error) {
		return s.execute(ctx, sp.kind()+" "+sp.base().Mode, func() (*cachedPlan, error) { return s.compute(sp) })
	})
	if err != nil {
		if ctx.Err() != nil {
			s.met.deadline.Inc()
			err = &APIError{Code: CodeDeadlineExceeded, Message: "planning did not complete before the request deadline"}
		}
		return nil, oc, err
	}
	return entry, oc, nil
}

// cachedDo wraps run with the LRU/singleflight layer plus the persistent
// warm-cache fast path: inside the singleflight slot, a warm disk hit decodes
// the stored body instead of running run; a computed result is persisted
// behind the LRU. run's admission policy is the caller's: the single-plan
// path admits inside run, the batch path is already inside its admission
// slot and passes the raw compute. The outcome is in the HeaderOutcome
// vocabulary.
func (s *Service) cachedDo(ctx context.Context, fp string, sp spec, run func() (*cachedPlan, error)) (*cachedPlan, string, error) {
	miss := OutcomeComputed // how a miss of the LRU gets answered
	entry, err, outcome := s.cache.Do(ctx, fp, func() (*cachedPlan, error) {
		if e := s.warmLookup(fp, sp); e != nil {
			miss = OutcomeWarm
			return e, nil
		}
		e, err := run()
		if err == nil {
			s.warmStore(fp, e.body)
		}
		return e, err
	})
	switch outcome {
	case cache.Hit:
		s.met.cacheHits.Inc()
		return entry, OutcomeHit, err
	case cache.Collapsed:
		s.met.collapsed.Inc()
		return entry, OutcomeCollapsed, err
	}
	return entry, miss, err
}

// warmLookup serves fp from the persistent warm-start cache. A body that no
// longer decodes (schema skew across versions) or is not fp's counts as
// corrupt and falls through to replanning.
func (s *Service) warmLookup(fp string, sp spec) *cachedPlan {
	if s.opts.WarmCache == nil {
		return nil
	}
	body, ok := s.opts.WarmCache.Get(fp)
	if !ok {
		return nil
	}
	e, err := storedEntry(sp, fp, body)
	if err != nil {
		s.met.warmCorrupt.Inc()
		s.log.Warn("warm cache body undecodable, replanning", "fingerprint", fp, "err", err)
		return nil
	}
	s.met.warmHits.Inc()
	return e
}

// warmStore persists a computed body behind the LRU. Write failures cost
// only warm restarts, never the request.
func (s *Service) warmStore(fp string, body []byte) {
	if s.opts.WarmCache == nil {
		return
	}
	written, err := s.opts.WarmCache.Put(fp, body)
	if err != nil {
		s.log.Warn("warm cache write failed", "fingerprint", fp, "err", err)
		return
	}
	if written {
		s.met.warmWrites.Inc()
	}
}

// execute admits the job to the bounded queue and waits for a worker.
func (s *Service) execute(ctx context.Context, label string, fn func() (*cachedPlan, error)) (*cachedPlan, error) {
	j := &job{label: label, fn: fn, ctx: ctx, done: make(chan jobResult, 1)}
	if err := s.enqueue(j); err != nil {
		return nil, err
	}
	select {
	case r := <-j.done:
		return r.entry, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// enqueue admits j or sheds it. Shedding returns a typed overloaded error
// carrying a Retry-After estimate from the queue depth and recent latency.
func (s *Service) enqueue(j *job) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return &APIError{Code: CodeShuttingDown, Message: "service is draining"}
	}
	select {
	case s.queue <- j:
		return nil
	default:
		s.met.shed.Inc()
		return &APIError{
			Code:              CodeOverloaded,
			Message:           "admission queue full",
			RetryAfterSeconds: s.retryAfterSeconds(),
		}
	}
}

// retryAfterSeconds estimates how long a shed client should back off: the
// queue's expected drain time at the recent mean plan latency.
func (s *Service) retryAfterSeconds() int {
	ewma := time.Duration(s.ewmaPlanNs.Load())
	if ewma <= 0 {
		ewma = 50 * time.Millisecond
	}
	drain := time.Duration(len(s.queue)+1) * ewma / time.Duration(s.opts.Workers)
	sec := int(math.Ceil(drain.Seconds()))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// worker is one planner goroutine. On quit it drains the remaining queue
// (their waiters may still be blocked in execute) and exits.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.run(j)
				default:
					return
				}
			}
		}
	}
}

// run computes one admitted job, converting panics in the planning stack
// into typed internal errors so a malformed corner case can never take the
// service down.
func (s *Service) run(j *job) {
	if err := j.ctx.Err(); err != nil {
		j.done <- jobResult{err: err}
		return
	}
	t0 := time.Now()
	entry, err := s.safeCompute(j.label, j.fn)
	d := time.Since(t0)
	s.met.planLatency.Observe(d.Seconds())
	s.observePlanLatency(d)
	j.done <- jobResult{entry: entry, err: err}
}

// safeCompute runs a compute function under panic recovery. It is the panic
// boundary for both the worker loop and the batch path's in-slot plan loop —
// a malformed corner case can never take the service down, and (crucially for
// batch) can never leave a singleflight entry permanently in flight.
func (s *Service) safeCompute(label string, fn func() (*cachedPlan, error)) (entry *cachedPlan, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.met.planPanics.Inc()
			s.met.planErrors.Inc()
			s.log.Error("plan panic", "job", label, "panic", r)
			entry, err = nil, &APIError{Code: CodeInternal, Message: "planner failure"}
		}
	}()
	return fn()
}

// recordSearchStats folds one datapar search's effort into the metrics.
func (s *Service) recordSearchStats(st *SearchStats) {
	if st == nil {
		return
	}
	s.met.searchProbes.Add(int64(st.Probes))
	s.met.searchProbesSaved.Add(int64(st.Saved))
	s.met.searchRankCorr.Set(int64(st.RankCorrelation * 1000))
}

// compute runs the planner for sp and packages the cache entry. The
// plansComputed/planErrors counters live here (not in the worker loop) so a
// batch job computing K plans in one admission slot counts K.
func (s *Service) compute(sp spec) (*cachedPlan, error) {
	resp, err := sp.compute(s)
	if err != nil {
		s.met.planErrors.Inc()
		return nil, err
	}
	body, err := marshalBody(resp)
	if err != nil {
		s.met.planErrors.Inc()
		return nil, &APIError{Code: CodeInternal, Message: "response encoding failed"}
	}
	s.met.plansComputed.Inc()
	return &cachedPlan{resp: resp, body: body, fpHeader: []string{resp.fingerprint()}}, nil
}

// Fingerprint returns the canonical cache key of a plan request — the same
// normalization, cost-table application, and hash the serving path uses, so
// every node of a homogeneously configured tier computes the same fingerprint
// for the same body.
func (s *Service) Fingerprint(req *PlanRequest) (string, error) {
	sp, err := normalize(req)
	if err != nil {
		return "", err
	}
	return s.key(sp), nil
}

// CachedBody returns the serving bytes for fp from the in-memory LRU,
// marking the entry most recently used. The shard tier uses it to serve
// peer-filled hot plans without re-entering the request path.
func (s *Service) CachedBody(fp string) ([]byte, bool) {
	entry, ok := s.cache.Get(fp)
	if !ok {
		return nil, false
	}
	return entry.body, true
}

// Fill inserts the response body a peer served for rq into the local LRU (and
// the warm-start cache, when configured), so subsequent requests with rq's
// fingerprint serve locally. The body must decode to rq's response type and
// carry rq's fingerprint — a peer-fill can never poison the cache with a
// mismatched body.
func (s *Service) Fill(rq *Request, body []byte) error {
	fp := rq.Fingerprint
	e, err := storedEntry(rq.spec, fp, bytes.Clone(body))
	if err != nil {
		return fmt.Errorf("plansvc: fill %s: %w", fp, err)
	}
	s.cache.Add(fp, e)
	s.met.peerFills.Inc()
	s.warmStore(fp, e.body)
	return nil
}

// observePlanLatency folds d into the EWMA used by Retry-After.
func (s *Service) observePlanLatency(d time.Duration) {
	const alpha = 0.2
	for {
		old := s.ewmaPlanNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = int64((1-alpha)*float64(old) + alpha*float64(d))
		}
		if s.ewmaPlanNs.CompareAndSwap(old, next) {
			return
		}
	}
}
