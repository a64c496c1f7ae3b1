package shardsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"time"

	"oooback/internal/plansvc"
	"oooback/internal/plansvc/metrics"
)

// Routing headers the shard layer adds to plan responses. They carry
// request-scoped routing facts (which node served, who owns the key, how the
// request travelled), so they live in headers, never in the cached bodies.
const (
	// HeaderForwarded marks a shard-to-shard proxy hop; a receiving shard
	// always serves a forwarded request locally, so routing can never loop.
	HeaderForwarded = "X-Shard-Forwarded"
	// HeaderNode names the shard that produced the response.
	HeaderNode = "X-Shard-Node"
	// HeaderOwner names the ring owner of the request fingerprint.
	HeaderOwner = "X-Shard-Owner"
	// HeaderRoute reports how the shard satisfied the request:
	// local-owner | proxy | peer-cache | reroute-local | forwarded | local.
	HeaderRoute = "X-Shard-Route"
)

// HeaderRoute vocabulary.
const (
	// RouteLocalOwner: this shard owns the fingerprint and served it.
	RouteLocalOwner = "local-owner"
	// RouteProxy: a non-owner forwarded to the owner and peer-filled the
	// response.
	RouteProxy = "proxy"
	// RoutePeerCache: a non-owner served a previously peer-filled body from
	// its local LRU without touching the owner.
	RoutePeerCache = "peer-cache"
	// RouteRerouteLocal: the owner is suspect (recent transport failure), so
	// this shard planned locally instead of proxying.
	RouteRerouteLocal = "reroute-local"
	// RouteForwarded: this shard served a proxy hop from a peer.
	RouteForwarded = "forwarded"
	// RouteLocal: requests outside ring routing (validation failures whose
	// canonical error the local service renders).
	RouteLocal = "local"
)

// maxProxyBodyBytes bounds a relayed peer response.
const maxProxyBodyBytes = 32 << 20

// Options configures a Shard.
type Options struct {
	// Self is this node's base URL; must be one of Peers.
	Self string
	// Peers is the full tier membership (including Self), order-insensitive.
	Peers []string
	// Service is this node's local planning service (required). Every tier
	// member must be configured identically (same cost table) so fingerprints
	// agree ring-wide.
	Service *plansvc.Service
	// Client performs shard-to-shard proxy calls (default: 30 s timeout).
	Client *http.Client
	// SuspectCooldown is how long a peer stays suspect after a transport
	// failure; suspect owners are bypassed with a local plan (default 2 s).
	SuspectCooldown time.Duration
	// Logger receives structured routing logs (default slog.Default).
	Logger *slog.Logger
}

// Shard is one node of the serving tier. Construct with New, serve via
// Handler. The wrapped plansvc.Service's lifetime belongs to the caller.
type Shard struct {
	opts  Options
	ring  *Ring
	svc   *plansvc.Service
	inner http.Handler
	log   *slog.Logger

	// values holds the one-element header value slices known at
	// construction: every member, every route, the peer-cache constants.
	values map[string][]string

	mu      sync.Mutex
	suspect map[string]time.Time

	reg *metrics.Registry
	met shardMetrics
}

type shardMetrics struct {
	ownedLocal   *metrics.Counter
	forwarded    *metrics.Counter
	proxied      *metrics.Counter
	peerFills    *metrics.Counter
	peerFillErrs *metrics.Counter
	peerCacheHit *metrics.Counter
	proxyFails   *metrics.Counter
	rerouteLocal *metrics.Counter
	suspectPeers *metrics.Gauge
}

// New constructs a shard router over opts.Service.
func New(opts Options) (*Shard, error) {
	if opts.Service == nil {
		return nil, fmt.Errorf("shardsvc: Options.Service is required")
	}
	if opts.Self == "" {
		return nil, fmt.Errorf("shardsvc: Options.Self is required")
	}
	ring, err := NewRing(opts.Peers, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(ring.Members(), opts.Self) {
		return nil, fmt.Errorf("shardsvc: self %q is not among the peers %v", opts.Self, opts.Peers)
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.SuspectCooldown <= 0 {
		opts.SuspectCooldown = 2 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	sh := &Shard{
		opts:    opts,
		ring:    ring,
		svc:     opts.Service,
		inner:   opts.Service.Handler(),
		log:     opts.Logger,
		values:  make(map[string][]string),
		suspect: make(map[string]time.Time),
		reg:     metrics.NewRegistry("shardsvc"),
	}
	for _, v := range append(ring.Members(), RouteLocalOwner, RouteProxy, RoutePeerCache, RouteRerouteLocal,
		RouteForwarded, RouteLocal, plansvc.OutcomeHit, "application/json") {
		sh.values[v] = []string{v}
	}
	m := &sh.met
	m.ownedLocal = sh.reg.Counter("owned_local_total", "requests this shard served as the ring owner")
	m.forwarded = sh.reg.Counter("forwarded_total", "proxy hops served for peer shards")
	m.proxied = sh.reg.Counter("proxied_total", "requests proxied to their owner shard")
	m.peerFills = sh.reg.Counter("peer_fill_total", "proxied bodies filled into the local LRU")
	m.peerFillErrs = sh.reg.Counter("peer_fill_errors_total", "proxied bodies rejected by the local fill (decode or fingerprint mismatch)")
	m.peerCacheHit = sh.reg.Counter("peer_cache_hits_total", "non-owned requests served from the peer-filled local LRU")
	m.proxyFails = sh.reg.Counter("proxy_failures_total", "proxy attempts that failed below HTTP")
	m.rerouteLocal = sh.reg.Counter("reroute_local_total", "non-owned requests planned locally because the owner was unreachable or suspect")
	m.suspectPeers = sh.reg.GaugeFunc("suspect_peers", "peers currently inside the suspect cooldown", sh.countSuspect)
	return sh, nil
}

// Ring returns the shard's (immutable) placement ring.
func (sh *Shard) Ring() *Ring { return sh.ring }

// Handler returns the node's HTTP handler: ring-routed /v1/plan and
// /v1/whatif, plus every local service route (plan:batch, models, healthz,
// debug/vars). /metrics exposes the shard registry followed by the local
// service registry. Batch requests are always planned by the receiving node —
// the batch's one-admission-slot amortization is local by design; its plans
// still persist to the warm cache and serve peers on later singles.
func (sh *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", sh.routed)
	mux.HandleFunc("POST /v1/whatif", sh.routed)
	mux.HandleFunc("GET /metrics", sh.handleMetrics)
	mux.HandleFunc("GET /v1/ring", sh.handleRing)
	mux.Handle("/", sh.inner)
	return mux
}

// routed is the ring-routing step over the service's parsed request: the
// service reads, validates and fingerprints the request once, and the same
// value is then served here, answered from the peer-filled LRU, or relayed
// to its owner.
func (sh *Shard) routed(w http.ResponseWriter, r *http.Request) {
	rq := sh.svc.Parse(w, r)
	if rq.Err != nil {
		// Not a request the ring can place: the local service renders its
		// canonical typed error envelope.
		sh.serveLocal(w, r, rq, RouteLocal)
		return
	}
	owner := sh.ring.Owner(rq.Fingerprint)
	h := w.Header()
	sh.set(h, HeaderNode, sh.opts.Self)
	sh.set(h, HeaderOwner, owner)

	if r.Header.Get(HeaderForwarded) != "" {
		// One hop maximum: a forwarded request is served here, whatever
		// the ring says (the sender routed on the same fingerprint).
		sh.met.forwarded.Inc()
		sh.serveLocal(w, r, rq, RouteForwarded)
		return
	}
	if owner == sh.opts.Self {
		sh.met.ownedLocal.Inc()
		sh.serveLocal(w, r, rq, RouteLocalOwner)
		return
	}
	// Non-owner. Peer-filled hot plans serve straight from the local LRU.
	if cached, ok := sh.svc.CachedBody(rq.Fingerprint); ok {
		sh.met.peerCacheHit.Inc()
		sh.set(h, HeaderRoute, RoutePeerCache)
		sh.set(h, plansvc.HeaderOutcome, plansvc.OutcomeHit)
		sh.set(h, plansvc.HeaderFingerprint, rq.Fingerprint)
		sh.set(h, "Content-Type", "application/json")
		w.Write(cached)
		return
	}
	if sh.isSuspect(owner) {
		sh.met.rerouteLocal.Inc()
		sh.serveLocal(w, r, rq, RouteRerouteLocal)
		return
	}
	sh.proxy(w, r, owner, rq)
}

// serveLocal has the local service answer the parsed request.
func (sh *Shard) serveLocal(w http.ResponseWriter, r *http.Request, rq *plansvc.Request, route string) {
	sh.set(w.Header(), HeaderRoute, route)
	sh.svc.Serve(w, r, rq)
}

// set assigns a header whose key is in canonical form. Values known at
// construction come from the prebuilt table, so the local-owner and
// peer-cache routes allocate no routing header values per request.
func (sh *Shard) set(h http.Header, key, value string) {
	vs, ok := sh.values[value]
	if !ok {
		vs = []string{value}
	}
	h[key] = vs
}

// proxy forwards the request to the owner, relays the response, and
// peer-fills the local LRU on success. A transport failure marks the owner
// suspect and falls back to a local plan — the request still succeeds, the
// tier just pays one redundant computation.
func (sh *Shard) proxy(w http.ResponseWriter, r *http.Request, owner string, rq *plansvc.Request) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+r.URL.Path, bytes.NewReader(rq.Body))
	if err != nil {
		sh.serveLocal(w, r, rq, RouteRerouteLocal)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, sh.opts.Self)
	resp, err := sh.opts.Client.Do(req)
	var respBody []byte
	if err == nil {
		defer resp.Body.Close()
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, maxProxyBodyBytes))
	}
	if err != nil {
		sh.met.proxyFails.Inc()
		sh.met.rerouteLocal.Inc()
		sh.markSuspect(owner)
		sh.log.Warn("owner unreachable, planning locally", "owner", owner, "fingerprint", rq.Fingerprint, "err", err)
		sh.serveLocal(w, r, rq, RouteRerouteLocal)
		return
	}
	sh.met.proxied.Inc()
	if resp.StatusCode == http.StatusOK {
		if err := sh.svc.Fill(rq, respBody); err != nil {
			sh.met.peerFillErrs.Inc()
			sh.log.Warn("peer fill rejected", "owner", owner, "err", err)
		} else {
			sh.met.peerFills.Inc()
		}
	}
	h := w.Header()
	for _, k := range []string{"Content-Type", plansvc.HeaderOutcome, plansvc.HeaderFingerprint, "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	sh.set(h, HeaderRoute, RouteProxy)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

func (sh *Shard) isSuspect(peer string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.suspect[peer]
	if !ok {
		return false
	}
	if time.Since(t) > sh.opts.SuspectCooldown {
		delete(sh.suspect, peer)
		return false
	}
	return true
}

func (sh *Shard) markSuspect(peer string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.suspect[peer] = time.Now()
}

func (sh *Shard) countSuspect() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var n int64
	for _, t := range sh.suspect {
		if time.Since(t) <= sh.opts.SuspectCooldown {
			n++
		}
	}
	return n
}

// handleMetrics exposes the shard registry followed by the wrapped service's
// registry, one plaintext page per node.
func (sh *Shard) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	sh.reg.WritePrometheus(w)
	sh.svc.Metrics().WritePrometheus(w)
}

// handleRing reports the node's view of the tier: membership, vnodes, self,
// and current suspects.
func (sh *Shard) handleRing(w http.ResponseWriter, r *http.Request) {
	sh.mu.Lock()
	suspects := make([]string, 0, len(sh.suspect))
	for p, t := range sh.suspect {
		if time.Since(t) <= sh.opts.SuspectCooldown {
			suspects = append(suspects, p)
		}
	}
	sh.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Self     string   `json:"self"`
		Members  []string `json:"members"`
		VNodes   int      `json:"vnodes"`
		Suspects []string `json:"suspects"`
	}{sh.opts.Self, sh.ring.Members(), sh.ring.VNodes(), suspects})
}
