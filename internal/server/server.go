// Package server is the solver-as-a-service subsystem: it exposes the
// engine over HTTP with a bounded job queue and a fixed worker pool
// (admission control instead of unbounded goroutine fan-out), per-request
// deadlines that flow into the engine's cooperative cancellation, NDJSON
// streaming of the lazy loop's trace events, and a Prometheus-style
// /metrics endpoint aggregating engine counters across all jobs.
//
// Serving contract:
//
//   - With queue depth Q and W workers, at most W+Q solves are admitted
//     concurrently; further requests are rejected with 429 + Retry-After.
//   - A request's timeout (query parameter, clamped to Config.MaxTimeout)
//     covers queue wait plus solve; expiry yields verdict "unknown" with
//     reason "timeout".
//   - A client disconnect cancels its in-flight solve via the request
//     context.
//   - Shutdown stops admitting (503), drains every admitted job, then
//     stops the workers — nothing admitted is ever dropped.
//   - A panic while a worker decides a job fails only that request (HTTP
//     500, or a final error event on a stream) and counts as verdict
//     "error"; the worker and the daemon keep serving.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/exchange"
	"absolver/internal/portfolio"
	"absolver/internal/server/api"
	"absolver/internal/smtlib"
)

// Outcome is what a solve produced: the engine result (Stats merged over
// members for a portfolio run) plus the winning strategy's name.
type Outcome struct {
	Result core.Result
	Winner string
}

// SolveFunc decides one admitted job. The default (nil) runs the engine —
// single or portfolio per the request's parameters; the load/robustness
// suite substitutes gated functions to pin queue timing, and embedders can
// route to custom backends. trace is nil unless the request streams.
type SolveFunc func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (Outcome, error)

// Config tunes the service. Zero fields select the documented defaults.
type Config struct {
	// Workers is the fixed solver pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted beyond the busy workers (default 64).
	QueueDepth int
	// MaxBodyBytes caps a request body (default 8 MiB); larger bodies get 413.
	MaxBodyBytes int64
	// DefaultTimeout applies when a request names none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout (default 5m).
	MaxTimeout time.Duration
	// MaxPortfolio caps the portfolio parameter (default 8); larger
	// requests get 400.
	MaxPortfolio int
	// CacheSize bounds the canonical verdict cache (default 256 entries);
	// negative disables caching entirely.
	CacheSize int
	// MaxBatchInstances caps the instances accepted per /v1/batch request
	// (default 1000); larger batches get 400.
	MaxBatchInstances int
	// MaxCheckDepth caps the k parameter of /v1/check (default 64);
	// deeper requests get 400.
	MaxCheckDepth int
	// SolveDelay inserts an artificial pause before each solve — a load-
	// testing and drain-rehearsal knob (cancellable by the job's context).
	SolveDelay time.Duration
	// DIMACSLimits / SMTLIBLimits bound problem parsing; zero fields take
	// the parser packages' defaults. MaxBodyBytes already caps total size.
	DIMACSLimits dimacs.Limits
	SMTLIBLimits smtlib.Limits
	// SolveFunc overrides how admitted jobs are decided (nil = engine).
	SolveFunc SolveFunc
	// AllowExchange permits requests carrying exchange_url — worker mode:
	// the engine of such a solve dials the named lemma relay and shares
	// theory lemmas with its cube siblings. Off by default: a solve
	// parameter that makes the server open outbound connections to an
	// arbitrary URL is an SSRF vector on a public instance, so only
	// deployments that opt in (absolverd -worker) honour it.
	AllowExchange bool
	// ExchangePollInterval throttles a worker engine's relay import polls
	// (0 = the exchange package default).
	ExchangePollInterval time.Duration
	// ClusterMetrics, when set, is rendered into /metrics as the
	// absolverd_cluster_* series (coordinator deployments).
	ClusterMetrics *ClusterMetrics
	// Logf, when set, receives one line per completed job and per
	// lifecycle transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxPortfolio <= 0 {
		c.MaxPortfolio = 8
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBatchInstances <= 0 {
		c.MaxBatchInstances = 1000
	}
	if c.MaxCheckDepth <= 0 {
		c.MaxCheckDepth = 64
	}
	return c
}

// Server owns the queue, the worker pool, and the HTTP handlers. Create
// with New, call Start, serve Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *metrics
	mux     *http.ServeMux
	queue   chan *job
	cache   *verdictCache // nil when Config.CacheSize < 0

	mu       sync.Mutex // guards draining and the admit-vs-shutdown race
	draining bool
	started  bool

	jobs     sync.WaitGroup // admitted, not yet finished
	workerWG sync.WaitGroup
	busy     atomic.Int64
}

// New builds a server; Start must be called before it accepts jobs.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.queue = make(chan *job, s.cfg.QueueDepth)
	if s.cfg.CacheSize > 0 {
		s.cache = newVerdictCache(s.cfg.CacheSize)
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the HTTP handler serving /v1/solve, /v1/batch,
// /v1/check, /metrics, /healthz and /readyz.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the worker pool.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	s.logf("absolverd: %d workers, queue depth %d", s.cfg.Workers, s.cfg.QueueDepth)
}

// ErrAlreadyShutdown reports a second Shutdown call.
var ErrAlreadyShutdown = errors.New("server: already shutting down")

// Shutdown makes the server stop admitting (new solves get 503), waits for
// every admitted job to finish, then stops the workers. If ctx expires
// first the error is returned and jobs keep draining in the background;
// admitted work is never cancelled by shutdown itself.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		return ErrAlreadyShutdown
	}
	s.draining = true
	s.mu.Unlock()
	s.logf("absolverd: draining")

	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	close(s.queue)
	s.workerWG.Wait()
	s.logf("absolverd: drained")
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// Worker pool.

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// retryAfterHint estimates how long a bounced client should wait before
// retrying, as a Retry-After header value in seconds. A full queue hints
// roughly the backlog per worker — each queued-or-running job is about one
// solve the client is behind — clamped to [1, 30] so a deep backlog never
// tells clients to go away for minutes. A draining server hints a flat 5:
// the process is going away, and the retry should land on its replacement
// rather than hot-poll the corpse.
func (s *Server) retryAfterHint(draining bool) string {
	if draining {
		return "5"
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	secs := 1 + (len(s.queue)+int(s.busy.Load()))/workers
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// solve runs the configured SolveFunc, defaulting to the engine.
func (s *Server) solve(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (Outcome, error) {
	if s.cfg.SolveFunc != nil {
		return s.cfg.SolveFunc(ctx, p, params, trace)
	}
	base := core.Config{}.WithKnobs(params.Knobs)
	if params.Portfolio > 0 {
		strategies := portfolio.DefaultStrategies(params.Portfolio)
		for i := range strategies {
			strategies[i].Config = strategies[i].Config.WithKnobs(params.Knobs)
		}
		// N interleaved engine traces are not readable; streaming a
		// portfolio run emits only the final result event.
		out := portfolio.SolveWith(ctx, p, strategies, portfolio.Options{NoShare: params.NoShare})
		res := out.Result
		res.Stats = out.Stats // total work across members
		return Outcome{Result: res, Winner: out.Winner}, out.Err
	}
	base.Trace = trace
	if params.ExchangeURL != "" && s.cfg.AllowExchange {
		// Worker mode: share theory lemmas with sibling cube solves through
		// the coordinator's relay. The trailing Flush pushes lemmas learned
		// just before this cube's verdict to peers still running.
		nc := exchange.NewNetClient(params.ExchangeURL, params.ExchangeNode,
			exchange.NetOptions{PollInterval: s.cfg.ExchangePollInterval})
		defer nc.Flush()
		base.Exchange = nc
	}
	res, err := core.NewEngine(p, base).SolveContext(ctx)
	return Outcome{Result: res}, err
}

// ---------------------------------------------------------------------------
// HTTP handlers.

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, exitCode int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...), ExitCode: exitCode})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := s.started && !s.draining
	s.mu.Unlock()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, gauges{
		queueDepth:    len(s.queue),
		queueCapacity: cap(s.queue),
		workers:       s.cfg.Workers,
		workersBusy:   int(s.busy.Load()),
		cluster:       s.cfg.ClusterMetrics,
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !post(w, r, "problem") {
		return
	}
	params, problem, err := s.solveRequest(w, r)
	if err != nil {
		s.refuse(w, "problem", err)
		return
	}

	// Verdict cache: consulted before admission, so a hit costs no queue
	// slot and no worker. no_cache=1 bypasses it (alongside the engine's
	// own theory cache); streamed requests skip it — their value is the
	// trace, not the verdict.
	var cacheKey string
	knobs := core.Config{}.WithKnobs(params.Knobs)
	if s.cache != nil && !params.Stream && !knobs.NoTheoryCache {
		cacheKey = canonicalProblemKey(problem)
		if ent, ok := s.cache.get(cacheKey); ok {
			certified := true
			if knobs.CheckModels && ent.resp.Status == core.StatusSat.String() {
				// Re-certify the cached witness against THIS problem; a
				// stale or hash-colliding entry fails and is evicted.
				if ent.model == nil || core.CertifyModel(problem, *ent.model) != nil {
					certified = false
				}
			}
			if certified {
				s.metrics.cacheHit()
				writeJSON(w, http.StatusOK, ent.resp)
				return
			}
			s.cache.drop(cacheKey)
		}
		s.metrics.cacheMiss()
	}

	s.serve(w, r, params.Timeout, params.Stream, func(ctx context.Context, wait time.Duration, emit func(any)) (any, string) {
		var trace core.TraceFunc
		if params.Stream {
			trace = func(ev core.Event) { emit(api.TraceEvent(ev)) }
		}
		out, err := s.solve(ctx, problem, params, trace)
		verdict := classify(out.Result.Status, err)
		s.metrics.jobDone(verdict, out.Result.Stats, wait)
		resp, errResp := outcomeResponse(out, err)
		// Only definitive, error-free outcomes enter the cache: unknown may
		// be deadline-relative and would poison later requests with laxer
		// limits.
		if cacheKey != "" && err == nil && (verdict == verdictSat || verdict == verdictUnsat) {
			s.cache.put(cacheKey, cacheEntry{resp: resp, model: out.Result.Model})
		}
		switch {
		case errResp != nil:
			return errResp, "verdict=" + verdict
		case params.Stream:
			return api.StreamEvent{Type: api.EventResult, Result: &resp}, "verdict=" + verdict
		}
		return resp, "verdict=" + verdict
	})
}

// solveRequest validates a /v1/solve request's parameters and decodes its
// problem.
func (s *Server) solveRequest(w http.ResponseWriter, r *http.Request) (api.SolveParams, *core.Problem, error) {
	params, err := api.ParseParams(r.URL.Query())
	switch {
	case err != nil:
		return params, nil, fmt.Errorf("bad parameters: %w", err)
	case params.Portfolio > s.cfg.MaxPortfolio:
		return params, nil, fmt.Errorf("portfolio %d exceeds the server maximum %d", params.Portfolio, s.cfg.MaxPortfolio)
	case params.ExchangeURL != "" && !s.cfg.AllowExchange:
		return params, nil, errors.New("exchange_url requires a worker-mode server (absolverd -worker)")
	}
	problem, err := s.decodeProblem(params.Format, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return params, nil, bodyError("parse error", err)
	}
	if err := problem.Validate(); err != nil {
		return params, nil, fmt.Errorf("invalid problem: %w", err)
	}
	return params, problem, nil
}

// outcomeResponse renders one solve outcome — a whole /v1/solve job or a
// single batch instance — onto the wire types; a failure renders as an
// error response instead.
func outcomeResponse(out Outcome, err error) (api.SolveResponse, *api.ErrorResponse) {
	res := out.Result
	resp := api.SolveResponse{
		Status:   res.Status.String(),
		ExitCode: api.ExitCode(res.Status),
		Winner:   out.Winner,
		Stats:    api.Stats(res.Stats),
	}
	if res.Status == core.StatusSat && res.Model != nil {
		resp.Model = api.ModelFrom(*res.Model)
	}
	why, ok := reason(err)
	if !ok {
		return resp, failure(why)
	}
	resp.Reason = why
	return resp, nil
}
