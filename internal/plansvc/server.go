package plansvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Response headers carrying request-scoped facts that must not live in the
// (cached, byte-identical) body.
const (
	// HeaderOutcome reports how the plan was obtained: hit | computed |
	// collapsed.
	HeaderOutcome = "X-Plan-Outcome"
	// HeaderFingerprint carries the canonical request fingerprint.
	HeaderFingerprint = "X-Plan-Fingerprint"
)

// Handler returns the service's HTTP handler:
//
//	POST /v1/plan       — compute (or fetch) a schedule plan
//	POST /v1/plan:batch — plan many specs under one admission slot
//	POST /v1/whatif     — plan under a perturbed cost model (Daydream-style)
//	GET  /v1/models   — list the model zoo
//	GET  /v1/healthz  — liveness
//	GET  /metrics     — plaintext metric exposition
//	GET  /debug/vars  — expvar JSON (service metrics under "plansvc")
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handleRequest)
	mux.HandleFunc("POST /v1/plan:batch", s.handleBatch)
	mux.HandleFunc("POST /v1/whatif", s.handleRequest)
	// The "/" fallback below would otherwise swallow the mux's automatic 405
	// for wrong-method hits on the POST routes.
	for _, path := range []string{"/v1/plan", "/v1/plan:batch", "/v1/whatif"} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", http.MethodPost)
			s.writeTypedError(w, &APIError{Code: CodeMethodNotAllowed,
				Message: fmt.Sprintf("%s not allowed on %s; use POST", r.Method, path)})
		})
	}
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleDebugVars)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeTypedError(w, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path)})
	})
	return s.logRequests(mux)
}

// logRequests wraps h with structured request logging. The hot path uses
// pooled status writers and slog.LogAttrs (typed attrs, no interface boxing),
// and skips attribute construction entirely when the handler discards Info.
func (s *Service) logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := s.beginRequest(w)
		h.ServeHTTP(rw, r)
		s.endRequest(rw, r)
	})
}

// beginRequest numbers and timestamps a request and wraps its writer.
func (s *Service) beginRequest(w http.ResponseWriter) *statusWriter {
	rw := swPool.Get().(*statusWriter)
	*rw = statusWriter{ResponseWriter: w, status: http.StatusOK, id: s.reqSeq.Add(1), t0: time.Now()}
	return rw
}

// endRequest observes the latency of a plan or what-if request, logs the
// request and releases its writer.
func (s *Service) endRequest(rw *statusWriter, r *http.Request) {
	d := time.Since(rw.t0)
	if r.URL.Path == "/v1/plan" || r.URL.Path == "/v1/whatif" {
		s.met.reqLatency.Observe(d.Seconds())
	}
	ctx := r.Context()
	if s.log.Enabled(ctx, slog.LevelInfo) {
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.Int64("id", rw.id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rw.status),
			slog.Int("bytes", rw.bytes),
			slog.Float64("dur_ms", float64(d.Microseconds())/1000),
			slog.String("outcome", rw.Header().Get(HeaderOutcome)),
			slog.String("remote", r.RemoteAddr),
		)
	}
	rw.ResponseWriter = nil
	swPool.Put(rw)
}

// statusWriter records the status code and body size for logging, next to
// the request's sequence number and arrival time.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	id     int64
	t0     time.Time
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Request is a POST /v1/plan or /v1/whatif request after the one pass a node
// makes over it: bounded read → strict decode → normalize → cost table →
// fingerprint. The local cache and planner, a shard router and a peer fill
// all work from this value; none decodes the bytes again.
type Request struct {
	// Fingerprint is the canonical cache key; the shard tier routes on it.
	Fingerprint string
	// Body is the request as received, for a router to relay unchanged.
	Body []byte
	// Err, when set, is the typed reason the request is invalid; Serve
	// answers it with the error envelope.
	Err  error
	spec spec
}

// Parse reads the request r.URL.Path names (/v1/whatif, anything else is a
// plan). It never fails: a request that does not read, decode or validate
// comes back with Err set.
func (s *Service) Parse(w http.ResponseWriter, r *http.Request) *Request {
	rq := new(Request)
	if r.URL.Path == "/v1/whatif" {
		rq.Body, rq.spec, rq.Err = parse(w, r, normalizeWhatIf)
	} else {
		rq.Body, rq.spec, rq.Err = parse(w, r, normalize)
	}
	if rq.Err == nil {
		rq.Fingerprint = s.key(rq.spec)
	}
	return rq
}

// parse is the decode and normalize steps of Parse for one request type.
func parse[Req any, S spec](w http.ResponseWriter, r *http.Request, norm func(*Req) (S, error)) ([]byte, spec, error) {
	var req Req
	body, err := readStrict(w, r, &req)
	if err != nil {
		return nil, nil, err
	}
	sp, err := norm(&req)
	if err != nil {
		return nil, nil, err
	}
	return body, sp, nil
}

// readStrict reads r's body, at most maxBodyBytes of it, and decodes it into
// v: unknown fields and anything but whitespace after the value are errors.
func readStrict(w http.ResponseWriter, r *http.Request, v any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(v); err == nil && len(bytes.TrimSpace(body[dec.InputOffset():])) > 0 {
			err = errors.New("data after the top-level value")
		}
	}
	if err != nil {
		return nil, &APIError{Code: CodeInvalidRequest, Message: fmt.Sprintf("malformed request body: %v", err)}
	}
	return body, nil
}

// Serve answers a parsed request from this node — LRU, warm cache or planner
// — counted and logged once, as the handler's own plan routes are. A shard
// router calls it for the requests it keeps.
func (s *Service) Serve(w http.ResponseWriter, r *http.Request, rq *Request) {
	rw := s.beginRequest(w)
	s.answer(rw, r, rq)
	s.endRequest(rw, r)
}

func (s *Service) handleRequest(w http.ResponseWriter, r *http.Request) {
	s.answer(w, r, s.Parse(w, r))
}

func (s *Service) answer(w http.ResponseWriter, r *http.Request, rq *Request) {
	s.met.requests.Inc()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	if rq.Err != nil {
		s.met.badRequests.Inc()
		s.writeTypedError(w, rq.Err)
		return
	}
	entry, outcome, err := s.lookupOrCompute(r.Context(), rq.Fingerprint, rq.spec)
	if err != nil {
		s.writeTypedError(w, err)
		return
	}
	// Direct map assignment of precomputed value slices: the keys are already
	// in canonical MIME form, so this skips both textproto canonicalization
	// and the per-call []string allocation of Header().Set.
	h := w.Header()
	h["Content-Type"] = headerJSON
	h[HeaderOutcome] = outcomeHeaders[outcome]
	h[HeaderFingerprint] = entry.fpHeader
	w.Write(entry.body)
}

// Precomputed header value slices for the plan hot path.
var (
	headerJSON     = []string{"application/json"}
	outcomeHeaders = map[string][]string{
		OutcomeHit:       {OutcomeHit},
		OutcomeComputed:  {OutcomeComputed},
		OutcomeCollapsed: {OutcomeCollapsed},
		OutcomeWarm:      {OutcomeWarm},
	}
)

func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	writeJSON(w, http.StatusOK, struct {
		Models []ZooModelInfo `json:"models"`
	}{buildModels()})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
		Workers int     `json:"workers"`
	}{"ok", time.Since(s.start).Seconds(), s.opts.Workers})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// handleDebugVars renders expvar-compatible JSON: the process-global expvar
// set (cmdline, memstats) plus this service's registry under "plansvc".
// Rendering locally instead of expvar.Publish keeps multiple Service
// instances (tests, benchmarks) from fighting over the global namespace.
func (s *Service) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var buf bytes.Buffer
	buf.WriteString("{\n")
	snap, _ := json.Marshal(s.reg.Snapshot())
	fmt.Fprintf(&buf, "%q: %s", "plansvc", snap)
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(&buf, ",\n%q: %s", kv.Key, kv.Value.String())
	})
	buf.WriteString("\n}\n")
	w.Write(buf.Bytes())
}

// writeTypedError maps an error from the planning path onto an HTTP status
// and the JSON error envelope.
func (s *Service) writeTypedError(w http.ResponseWriter, err error) {
	apiErr := asAPIError(err)
	status := http.StatusInternalServerError
	switch apiErr.Code {
	case CodeInvalidRequest, CodeUnknownModel:
		status = http.StatusBadRequest
	case CodeNotFound:
		status = http.StatusNotFound
	case CodeMethodNotAllowed:
		status = http.StatusMethodNotAllowed
	case CodeOverloaded:
		status = http.StatusTooManyRequests
		if apiErr.RetryAfterSeconds > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfterSeconds))
		}
	case CodeDeadlineExceeded:
		status = http.StatusGatewayTimeout
	case CodeShuttingDown:
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Error *APIError `json:"error"`
	}{apiErr})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// marshalBody renders the canonical (cached) response body.
func marshalBody(resp response) ([]byte, error) {
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
