// Package serve is the HTTP/JSON front end of the DISTAL service: a thin,
// dependency-free layer that turns distal.Session's plan-centric API into a
// wire protocol. Requests arrive as pure data (statement, shapes, formats,
// schedule — exactly distal.Request), compile through the session's plan
// cache (concurrent identical requests share one compile via singleflight),
// and execute under per-request deadlines on a bounded worker pool. The
// structured error taxonomy maps onto HTTP status codes, so clients can
// retry and report without parsing error strings.
//
// Endpoints:
//
//	POST /v1/execute  one request -> simulated metrics
//	POST /v1/batch    up to MaxBatch requests, executed concurrently
//	POST /v1/tune     auto-tune one workload's schedule -> leaderboard
//	POST /v1/run      real execution: wire-encoded or server-filled input
//	                  tensors in, the computed output tensor streamed back
//	                  (see run.go and internal/wire)
//	GET  /v1/stats    cache + server counters
//	GET  /metrics     the same counters (and more) in Prometheus text format
//	GET  /v1/trace/{id}  one recent request's span tree as Chrome trace_event
//	                  JSON (open in chrome://tracing or Perfetto)
//
// Every request gets a request id: generated server-side, or echoed from a
// client-supplied Distal-Request-Id header. The id keys the request's span
// tree in a bounded ring of recent traces, served by GET /v1/trace/{id}.
// /v1/stats and /metrics read the same obs.Registry (the session cache
// counters through scrape-time Func series), so the two surfaces can never
// disagree.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sync"
	"time"

	"distal"
	"distal/internal/obs"
	"distal/internal/wire"
)

// Config bounds the server.
type Config struct {
	// Workers is the maximum number of concurrently executing requests
	// (compilation + simulation); further requests queue until a worker
	// frees or their deadline expires. Default: GOMAXPROCS.
	Workers int
	// Timeout is the default per-request deadline, overridable per request
	// (downward or upward, capped at MaxTimeout) with "timeout_ms".
	// Default 30s.
	Timeout time.Duration
	// MaxTimeout caps client-requested deadlines. Default 5m.
	MaxTimeout time.Duration
	// MaxBatch is the largest accepted /v1/batch request. Default 64.
	MaxBatch int
	// MaxBody is the largest accepted request body in bytes on the JSON
	// endpoints. Default 4 MiB.
	MaxBody int64
	// MaxRunBody is the largest accepted /v1/run body in bytes — the JSON
	// section plus every input tensor frame. Default 256 MiB.
	MaxRunBody int64
	// MaxRunBatch is the largest accepted "batch" instance count on a
	// /v1/run request. Larger (or non-positive) declared batches are
	// rejected as input errors before any allocation. Default 64.
	MaxRunBatch int
	// MaxTuneBudget caps the per-request candidate budget of /v1/tune (a
	// tune evaluates up to budget compile+simulate cycles on one worker
	// slot). Default 256.
	MaxTuneBudget int
	// TraceRing is how many finished request traces GET /v1/trace/{id} can
	// serve before the oldest is evicted. Default 64.
	TraceRing int
	// LogJSON emits one JSON access-log line per request to LogWriter.
	LogJSON bool
	// LogWriter receives access-log lines; nil means os.Stderr.
	LogWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 4 << 20
	}
	if c.MaxRunBody <= 0 {
		c.MaxRunBody = 256 << 20
	}
	if c.MaxRunBatch <= 0 {
		c.MaxRunBatch = 64
	}
	if c.MaxTuneBudget <= 0 {
		c.MaxTuneBudget = 256
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 64
	}
	if c.LogWriter == nil {
		c.LogWriter = os.Stderr
	}
	return c
}

// Metric family names and help strings — the /metrics vocabulary. The
// golden obs test pins the exposition format; CI's smoke greps these names.
const (
	mRequests  = "distal_http_requests_total"
	mFailures  = "distal_http_failures_total"
	mDuration  = "distal_http_request_duration_seconds"
	mQueueWait = "distal_queue_wait_seconds"
	mInflight  = "distal_inflight_requests"
	mPhase     = "distal_phase_duration_seconds"
	mBatchSize = "distal_run_batch_size"
	mBytes     = "distal_bytes_moved_total"
	mCacheHit  = "distal_plan_cache_hits_total"
	mCacheMiss = "distal_plan_cache_misses_total"
	mCacheLen  = "distal_plan_cache_entries"
	mMemoLen   = "distal_plan_cache_memo_entries"
	mUptime    = "distal_uptime_seconds"
	mWorkers   = "distal_workers"
)

// Server serves a Session over HTTP. It is an http.Handler.
type Server struct {
	sess  *distal.Session
	cfg   Config
	sem   chan struct{}
	mux   *http.ServeMux
	start time.Time

	reg    *obs.Registry
	traces *obs.Ring

	inflight     *obs.Gauge
	queueWait    *obs.Histogram
	phaseCompile *obs.Histogram
	phaseExecute *obs.Histogram
	batchSize    *obs.Histogram
	bytesIntra   *obs.Counter
	bytesInter   *obs.Counter

	logMu sync.Mutex
}

// New builds a server over the session.
func New(sess *distal.Session, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sess:   sess,
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.Workers),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		reg:    obs.NewRegistry(),
		traces: obs.NewRing(cfg.TraceRing),
	}
	s.inflight = s.reg.Gauge(mInflight, "Requests currently being handled.", nil)
	s.queueWait = s.reg.Histogram(mQueueWait, "Wait for a worker-pool slot.", obs.LatencyBuckets, nil)
	s.phaseCompile = s.reg.Histogram(mPhase, "Pipeline phase durations.", obs.LatencyBuckets, []string{"phase"}, "compile")
	s.phaseExecute = s.reg.Histogram(mPhase, "Pipeline phase durations.", obs.LatencyBuckets, []string{"phase"}, "execute")
	s.batchSize = s.reg.Histogram(mBatchSize, "Executed /v1/run batch sizes.", obs.SizeBuckets, nil)
	s.bytesIntra = s.reg.Counter(mBytes, "Simulated bytes moved by runs.", []string{"class"}, "intra")
	s.bytesInter = s.reg.Counter(mBytes, "Simulated bytes moved by runs.", []string{"class"}, "inter")
	// The cache families read the session's counters at scrape time: one
	// source of truth for /metrics and /v1/stats.
	s.reg.CounterFunc(mCacheHit, "Plan-cache hits (memo, cache, and shared flights).", nil,
		func() float64 { return float64(sess.CacheStats().Hits) })
	s.reg.CounterFunc(mCacheMiss, "Plan-cache misses (compiler runs).", nil,
		func() float64 { return float64(sess.CacheStats().Misses) })
	s.reg.GaugeFunc(mCacheLen, "Cached plans resident.", nil,
		func() float64 { return float64(sess.CacheStats().Entries) })
	s.reg.GaugeFunc(mMemoLen, "Request-memo entries resident.", nil,
		func() float64 { return float64(sess.CacheStats().MemoEntries) })
	s.reg.GaugeFunc(mUptime, "Seconds since server start.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc(mWorkers, "Worker-pool size.", nil,
		func() float64 { return float64(cfg.Workers) })

	s.mux.HandleFunc("/v1/execute", s.instrument("/v1/execute", s.handleExecute))
	s.mux.HandleFunc("/v1/batch", s.instrument("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("/v1/tune", s.instrument("/v1/tune", s.handleTune))
	s.mux.HandleFunc("/v1/run", s.instrument("/v1/run", s.handleRun))
	// The read-only surfaces are not instrumented: a monitoring poll must
	// never move the counters it is reading.
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

// statusWriter threads per-request observability state through the handler:
// it captures the response status and the failure kind for the access log
// and failure counters, and forwards Flush/Hijack so the /v1/run streaming
// path behaves exactly as on the bare ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	endpoint string
	status   int
	kind     string // failure kind recorded by countErr, "" on success
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := sw.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, fmt.Errorf("serve: underlying ResponseWriter does not support hijacking")
}

// instrument wraps a handler with the per-request observability envelope:
// request id (generated, or echoed from a valid Distal-Request-Id), a trace
// rooted at the endpoint name and published to the trace ring,
// request/latency metrics, and the optional JSON access-log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter(mRequests, "Requests by endpoint.", []string{"endpoint"}, endpoint)
	dur := s.reg.Histogram(mDuration, "Request wall time by endpoint.", obs.LatencyBuckets, []string{"endpoint"}, endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		id := r.Header.Get(wire.HeaderRequestID)
		if !requestID.MatchString(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(wire.HeaderRequestID, id)
		tr, ctx := obs.NewTrace(r.Context(), id, endpoint)
		sw := &statusWriter{ResponseWriter: w, endpoint: endpoint}
		h(sw, r.WithContext(ctx))
		tr.Finish()
		s.traces.Add(tr)
		elapsed := time.Since(t0)
		dur.Observe(elapsed.Seconds())
		s.accessLog(r, sw, id, elapsed, tr)
	}
}

// requestID matches the caller-chosen request ids the server echoes and
// keeps as trace-ring keys: bounded, so the ring holds no caller-sized
// headers, and one GET /v1/trace/{id} path segment, so every kept id is
// reachable. Any other id is replaced by a generated one.
var requestID = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// accessLog emits one JSON line per request when Config.LogJSON is set.
func (s *Server) accessLog(r *http.Request, sw *statusWriter, id string, elapsed time.Duration, tr *obs.Trace) {
	if !s.cfg.LogJSON {
		return
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	entry := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339Nano),
		"request_id": id,
		"endpoint":   sw.endpoint,
		"method":     r.Method,
		"status":     status,
		"elapsed_ms": float64(elapsed) / float64(time.Millisecond),
	}
	if sw.kind != "" {
		entry["kind"] = sw.kind
	}
	// The plan's key and provenance sit on its compile span (a list's
	// compile-stage spans carry stage keys).
	if sp := tr.Find("compile"); sp != nil {
		for _, a := range sp.Attrs() {
			if a.Key == "plan_key" || a.Key == "cache" {
				entry[a.Key] = a.Val
			}
		}
	}
	if phases := tr.PhaseMS(); len(phases) > 0 {
		entry["phases_ms"] = phases
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.LogWriter.Write(append(line, '\n')) //nolint:errcheck — logging is best-effort
}

// ExecuteRequest is the wire form of one workload: distal.Request plus
// execution modifiers.
type ExecuteRequest struct {
	Stmt     string            `json:"stmt"`
	Shapes   map[string][]int  `json:"shapes"`
	Formats  map[string]string `json:"formats,omitempty"`
	Schedule string            `json:"schedule,omitempty"`
	// Trace includes the copy trace in the response (can be large).
	Trace bool `json:"trace,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Synchronous disables communication/computation overlap.
	Synchronous bool `json:"synchronous,omitempty"`
}

func (q *ExecuteRequest) request() distal.Request {
	return distal.Request{Stmt: q.Stmt, Shapes: q.Shapes, Formats: q.Formats, Schedule: q.Schedule}
}

// ExecuteResponse reports one executed workload: plan identity, compile
// provenance, and the simulated metrics.
type ExecuteResponse struct {
	PlanKey   string  `json:"plan_key"`
	Cached    bool    `json:"cached"`
	Shared    bool    `json:"shared,omitempty"`
	CompileMS float64 `json:"compile_ms"`
	Launches  int     `json:"launches"`
	Points    int     `json:"points"`

	TimeS        float64 `json:"time_s"`
	GFlopsPerSec float64 `json:"gflops"`
	Flops        float64 `json:"flops"`
	IntraBytes   int64   `json:"intra_bytes"`
	InterBytes   int64   `json:"inter_bytes"`
	Copies       int64   `json:"copies"`
	PeakMemBytes int64   `json:"peak_mem_bytes"`
	OOM          bool    `json:"oom,omitempty"`

	Trace []distal.CopyRecord `json:"trace,omitempty"`
}

// ErrorBody is the wire form of a failure.
type ErrorBody struct {
	// Kind is the stable taxonomy name: parse, schedule, compile, exec,
	// canceled, unknown.
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// statusFor maps the error taxonomy onto HTTP status codes: client-caused
// failures (malformed statement, bad schedule, unlowerable program) are 4xx,
// runtime failures 500, and expired deadlines 504.
func statusFor(kind distal.ErrKind) int {
	switch kind {
	case distal.KindParse:
		return http.StatusBadRequest
	case distal.KindSchedule, distal.KindCompile, distal.KindInput:
		return http.StatusUnprocessableEntity
	case distal.KindCanceled:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// countErr records a failure against its endpoint and kind. The endpoint is
// read from the instrumented writer; direct callers that hold no writer (the
// batch fan-out) pass their endpoint through countErrAt.
func (s *Server) countErr(w http.ResponseWriter, err error) (ErrorBody, int) {
	endpoint := "unknown"
	if sw, ok := w.(*statusWriter); ok {
		endpoint = sw.endpoint
	}
	body, status := s.countErrAt(endpoint, err)
	if sw, ok := w.(*statusWriter); ok {
		sw.kind = body.Kind
	}
	return body, status
}

func (s *Server) countErrAt(endpoint string, err error) (ErrorBody, int) {
	kind := distal.KindOf(err)
	s.reg.Counter(mFailures, "Failed requests by endpoint and error kind.",
		[]string{"endpoint", "kind"}, endpoint, kind.String()).Inc()
	return ErrorBody{Kind: kind.String(), Message: err.Error()}, statusFor(kind)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	body, status := s.countErr(w, err)
	writeJSON(w, status, errorResponse{Error: body})
}

// writeErrorStatus is writeError with the taxonomy's status mapping
// overridden (e.g. 415 for a mismatched Content-Type).
func (s *Server) writeErrorStatus(w http.ResponseWriter, status int, err error) {
	body, _ := s.countErr(w, err)
	writeJSON(w, status, errorResponse{Error: body})
}

// contentType returns the request's media type, "" when the header is
// absent, or an error when it does not parse or does not match one of the
// accepted types. Every POST endpoint rejects mismatched Content-Type up
// front instead of mis-parsing the body.
func (s *Server) contentType(w http.ResponseWriter, r *http.Request, accepted ...string) (string, bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "", true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		s.writeErrorStatus(w, http.StatusUnsupportedMediaType,
			&distal.Error{Kind: distal.KindParse, Op: "decode", Err: fmt.Errorf("bad Content-Type %q: %v", ct, err)})
		return "", false
	}
	for _, a := range accepted {
		if mt == a {
			return mt, true
		}
	}
	s.writeErrorStatus(w, http.StatusUnsupportedMediaType,
		&distal.Error{Kind: distal.KindParse, Op: "decode", Err: fmt.Errorf("unsupported Content-Type %q (want %v)", mt, accepted)})
	return "", false
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if _, ok := s.contentType(w, r, "application/json"); !ok {
		return false
	}
	// One limited reader serves both the decoder and the keep-alive drain:
	// a body beyond MaxBody errors out and the drain never reads past the
	// limiter either (MaxBytesReader closes oversized connections).
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	defer io.Copy(io.Discard, body) //nolint:errcheck — drain for keep-alive
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "decode", Err: err})
		return false
	}
	return true
}

// deadlineFor derives the request's execution context.
func (s *Server) deadlineFor(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(parent, d)
}

// acquire blocks until a worker slot frees or ctx is done. The wait is a
// span on the request trace and an observation on the queue-wait histogram
// either way — saturation shows up whether or not the request survives it.
func (s *Server) acquire(ctx context.Context) error {
	_, sp := obs.Start(ctx, "queue-wait")
	t0 := time.Now()
	defer func() {
		s.queueWait.Observe(time.Since(t0).Seconds())
		sp.End()
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &distal.Error{Kind: distal.KindCanceled, Op: "queue", Err: fmt.Errorf("timed out waiting for a worker: %w", ctx.Err())}
	}
}

func (s *Server) release() { <-s.sem }

// run compiles and simulates one request on an acquired worker slot.
func (s *Server) run(ctx context.Context, q *ExecuteRequest) (*ExecuteResponse, error) {
	plan, err := s.sess.Compile(ctx, q.request())
	if err != nil {
		return nil, err
	}
	var opts []distal.ExecOption
	if q.Trace {
		opts = append(opts, distal.WithTrace())
	}
	if q.Synchronous {
		opts = append(opts, distal.WithSynchronous())
	}
	res, err := plan.Simulate(ctx, opts...)
	if err != nil {
		return nil, err
	}
	st := plan.Stats()
	return &ExecuteResponse{
		PlanKey:      plan.Key(),
		Cached:       st.Cached,
		Shared:       st.Shared,
		CompileMS:    float64(st.CompileTime) / float64(time.Millisecond),
		Launches:     st.Launches,
		Points:       st.Points,
		TimeS:        res.Time,
		GFlopsPerSec: res.GFlopsPerSec(),
		Flops:        res.Flops,
		IntraBytes:   res.IntraBytes,
		InterBytes:   res.InterBytes,
		Copies:       res.Copies,
		PeakMemBytes: res.PeakMemBytes,
		OOM:          res.OOM,
		Trace:        res.Trace,
	}, nil
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var q ExecuteRequest
	if !s.decode(w, r, &q) {
		return
	}
	ctx, cancel := s.deadlineFor(r.Context(), q.TimeoutMS)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()
	resp, err := s.run(ctx, &q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest executes several workloads concurrently over the worker
// pool; the batch shares one deadline.
type BatchRequest struct {
	Requests  []ExecuteRequest `json:"requests"`
	TimeoutMS int              `json:"timeout_ms,omitempty"`
}

// BatchResponse returns one entry per request, in order; failed entries
// carry an error instead of a result.
type BatchResponse struct {
	Responses []BatchEntry `json:"responses"`
}

// BatchEntry is one batch result: exactly one of Result and Error is set.
type BatchEntry struct {
	Result *ExecuteResponse `json:"result,omitempty"`
	Error  *ErrorBody       `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var batch BatchRequest
	if !s.decode(w, r, &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "batch", Err: errors.New("empty batch")})
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		s.writeError(w, &distal.Error{Kind: distal.KindParse, Op: "batch",
			Err: fmt.Errorf("batch of %d exceeds the limit of %d", len(batch.Requests), s.cfg.MaxBatch)})
		return
	}
	ctx, cancel := s.deadlineFor(r.Context(), batch.TimeoutMS)
	defer cancel()

	out := make([]BatchEntry, len(batch.Requests))
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := &batch.Requests[i]
			if err := s.acquire(ctx); err != nil {
				body, _ := s.countErrAt("/v1/batch", err)
				out[i] = BatchEntry{Error: &body}
				return
			}
			defer s.release()
			resp, err := s.run(ctx, q)
			if err != nil {
				body, _ := s.countErrAt("/v1/batch", err)
				out[i] = BatchEntry{Error: &body}
				return
			}
			out[i] = BatchEntry{Result: resp}
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Responses: out})
}

// TuneRequest is the wire form of one auto-tuning job: the workload named
// exactly as in ExecuteRequest (a non-empty schedule competes as a seed
// candidate instead of being applied) plus the search bounds.
type TuneRequest struct {
	Stmt     string            `json:"stmt"`
	Shapes   map[string][]int  `json:"shapes"`
	Formats  map[string]string `json:"formats,omitempty"`
	Schedule string            `json:"schedule,omitempty"`
	// Budget caps evaluated candidates (capped server-side at
	// MaxTuneBudget; 0 = distal.DefaultTuneBudget).
	Budget int `json:"budget,omitempty"`
	// Beam is the second search stage's width (0 = default 4).
	Beam int `json:"beam,omitempty"`
	// Seed fixes overflow sampling: equal seed and budget return the same
	// leaderboard.
	Seed int64 `json:"seed,omitempty"`
	// KeepTop is the leaderboard length (0 = default 10).
	KeepTop int `json:"keep_top,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// TuneEntry is one leaderboard row on the wire: a distal.TunedCandidate,
// field for field, so a candidate converts to it.
type TuneEntry struct {
	Schedule     string  `json:"schedule"`
	MakespanSec  float64 `json:"makespan_sec"`
	GFlops       float64 `json:"gflops"`
	Copies       int64   `json:"copies"`
	IntraBytes   int64   `json:"intra_bytes"`
	InterBytes   int64   `json:"inter_bytes"`
	PeakMemBytes int64   `json:"peak_mem_bytes"`
	OOM          bool    `json:"oom,omitempty"`
	PlanKey      string  `json:"plan_key"`
}

// TuneResponse reports one finished tuning run. The winner's plan is
// compiled and resident in the server's plan cache: replaying the winning
// schedule through /v1/execute is a cache hit.
type TuneResponse struct {
	Winner      TuneEntry   `json:"winner"`
	Baseline    *TuneEntry  `json:"baseline,omitempty"` // AutoSchedule, when defined
	SpeedupX    float64     `json:"speedup_x,omitempty"`
	Leaderboard []TuneEntry `json:"leaderboard"`
	Generated   int         `json:"generated"`
	Illegal     int         `json:"illegal"`
	Deduped     int         `json:"deduped"`
	Evaluated   int         `json:"evaluated"`
	Failed      int         `json:"failed"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

// NewTuneResponse is res in the /v1/tune response schema, which
// distal-tune -json prints too.
func NewTuneResponse(res *distal.TuneResult) TuneResponse {
	resp := TuneResponse{
		Winner:    TuneEntry(res.Winner),
		SpeedupX:  res.Speedup(),
		Generated: res.Generated,
		Illegal:   res.Illegal,
		Deduped:   res.Deduped,
		Evaluated: res.Evaluated,
		Failed:    res.Failed,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	if res.Baseline != nil {
		e := TuneEntry(*res.Baseline)
		resp.Baseline = &e
	}
	for _, c := range res.Leaderboard {
		resp.Leaderboard = append(resp.Leaderboard, TuneEntry(c))
	}
	return resp
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var q TuneRequest
	if !s.decode(w, r, &q) {
		return
	}
	// An omitted budget means the tuner's default — which must also obey
	// the operator's cap, so resolve it here before clamping.
	budget := q.Budget
	if budget <= 0 {
		budget = distal.DefaultTuneBudget
	}
	if budget > s.cfg.MaxTuneBudget {
		budget = s.cfg.MaxTuneBudget
	}
	ctx, cancel := s.deadlineFor(r.Context(), q.TimeoutMS)
	defer cancel()
	// A tune occupies one worker slot; its internal evaluation parallelism
	// is the tuner's own bounded pool.
	if err := s.acquire(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()
	req := distal.Request{Stmt: q.Stmt, Shapes: q.Shapes, Formats: q.Formats, Schedule: q.Schedule}
	res, err := s.sess.Tune(ctx, req, distal.TuneOptions{
		Budget: budget, Beam: q.Beam, Seed: q.Seed, KeepTop: q.KeepTop,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, NewTuneResponse(res))
}

// StatsResponse is the /v1/stats payload. Every counter is read back from
// the same obs.Registry /metrics scrapes, so the two surfaces agree by
// construction.
type StatsResponse struct {
	UptimeS  float64 `json:"uptime_s"`
	Requests int64   `json:"requests"`
	Failures int64   `json:"failures"`
	Inflight int64   `json:"inflight"`
	Workers  int     `json:"workers"`

	Cache struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Entries     int   `json:"entries"`
		MemoEntries int   `json:"memo_entries"`
	} `json:"cache"`
	ErrorsByKind map[string]int64 `json:"errors_by_kind,omitempty"`
	// Endpoints breaks requests and failures down per endpoint.
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
}

// EndpointStats is one endpoint's request and failure counts.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var resp StatsResponse
	resp.UptimeS = time.Since(s.start).Seconds()
	resp.Inflight = int64(s.inflight.Value())
	resp.Workers = s.cfg.Workers
	cs := s.sess.CacheStats()
	resp.Cache.Hits = cs.Hits
	resp.Cache.Misses = cs.Misses
	resp.Cache.Entries = cs.Entries
	resp.Cache.MemoEntries = cs.MemoEntries
	resp.Endpoints = map[string]EndpointStats{}
	s.reg.Each(mRequests, func(labels []string, v float64) {
		ep := resp.Endpoints[labels[0]]
		ep.Requests += int64(v)
		resp.Endpoints[labels[0]] = ep
		resp.Requests += int64(v)
	})
	s.reg.Each(mFailures, func(labels []string, v float64) {
		endpoint, kind := labels[0], labels[1]
		ep := resp.Endpoints[endpoint]
		ep.Failures += int64(v)
		resp.Endpoints[endpoint] = ep
		resp.Failures += int64(v)
		if resp.ErrorsByKind == nil {
			resp.ErrorsByKind = map[string]int64{}
		}
		resp.ErrorsByKind[kind] += int64(v)
	})
	if len(resp.Endpoints) == 0 {
		resp.Endpoints = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the registry in Prometheus text exposition format.
// Scrapes are deliberately not instrumented: a monitoring poll never moves
// the request counters it reads.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w) //nolint:errcheck — a dead scrape connection is the scraper's problem
}

// handleTrace serves one recent request's finished span tree as Chrome
// trace_event JSON, keyed by the request id the response carried in
// Distal-Request-Id. The ring is bounded, so old traces 404 once evicted.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.traces.Get(r.PathValue("id"))
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: ErrorBody{
			Kind:    "unknown",
			Message: fmt.Sprintf("no trace for request id %q (the ring keeps the last %d)", r.PathValue("id"), s.cfg.TraceRing),
		}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(tr.TraceEvent()) //nolint:errcheck — streaming best-effort
}
