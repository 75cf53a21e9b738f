// Package cluster is the coordinator of distributed cube-and-conquer
// solving: it splits an AB problem into cubes (internal/cube), fans the
// cube subproblems out to worker absolverd instances over the ordinary
// HTTP solve protocol (internal/server/client), and folds the workers'
// verdicts back into one answer. The first SAT cube wins and cancels the
// losers; UNSAT needs every live cube UNSAT; a failed or unreachable
// worker triggers requeue of its cube with capped exponential backoff
// honouring Retry-After, so one crashed instance degrades throughput, not
// correctness.
//
// SAT answers are never taken on faith: a worker's model is re-checked
// against the full problem before it is allowed to cancel anyone — a
// buggy or byzantine worker costs a retry, not a wrong verdict.
//
// The coordinator also hosts a per-job lemma relay (internal/exchange):
// workers attach their engines to it via the solve request's exchange
// parameters and share theory lemmas across cubes, GridSAT-style.
//
// Coordinator.Solve has exactly the server.SolveFunc signature, so a
// coordinator plugs into an ordinary absolverd server as its solve
// function and the whole cluster presents the standard single-node API:
// POST /v1/solve in, one verdict out, admission control and metrics
// included.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"absolver/internal/core"
	"absolver/internal/cube"
	"absolver/internal/dimacs"
	"absolver/internal/exchange"
	"absolver/internal/expr"
	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
)

// Observer receives cluster lifecycle events. server.ClusterMetrics
// satisfies it, wiring coordinator activity into /metrics.
type Observer interface {
	CubeIssued()
	CubeSolved()
	CubeRequeued()
	WorkerFailure()
}

// Config tunes a Coordinator. Zero fields select the documented defaults.
type Config struct {
	// Peers are the worker base URLs (e.g. "http://10.0.0.2:8753"). At
	// least one is required.
	Peers []string
	// HTTP is the transport used for worker requests (default
	// http.DefaultClient; give it no global timeout — per-dispatch
	// deadlines come from the solve context).
	HTTP *http.Client
	// Cube tunes the splitter. The default derives up to 8 cubes.
	Cube cube.Options
	// PerPeer is the number of concurrent dispatch loops per worker
	// (default 1 — one cube in flight per instance; raise it for workers
	// with deep queues).
	PerPeer int
	// MaxAttempts bounds dispatch attempts per cube, first try included
	// (default 4). A cube that exhausts them fails the whole solve with an
	// error — silently reporting "unsat" while a region went unexplored
	// would be a soundness bug.
	MaxAttempts int
	// RetryBase and RetryMax shape the exponential backoff between a
	// cube's attempts (defaults 250ms and 5s). A worker's Retry-After
	// hint, when longer, wins.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RelayURL, when set, is the externally reachable URL of this
	// coordinator's lemma relay (mounted via RelayHandler); workers are
	// told to attach their engines to <RelayURL>/<job>. Empty disables
	// cross-worker lemma sharing.
	RelayURL string
	// Exchange tunes each job's relay store (caps, shards).
	Exchange exchange.Options
	// Observer, when set, receives cube lifecycle events.
	Observer Observer
	// Logf, when set, receives one line per dispatch outcome.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.PerPeer <= 0 {
		c.PerPeer = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	return c
}

// Coordinator fans solves out to a fixed set of worker instances. Create
// with New; Solve is safe for concurrent use (each call runs its own
// dispatch round over the shared peers).
type Coordinator struct {
	cfg     Config
	clients []*client.Client

	jobSeq atomic.Int64

	relayMu sync.Mutex
	relays  map[string]*exchange.Relay
	// retiredRelayed accumulates LemmasRelayed of completed jobs' relays,
	// so the metric survives relay teardown.
	retiredRelayed int64
}

// New builds a coordinator over the given workers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no worker peers configured")
	}
	co := &Coordinator{cfg: cfg, relays: map[string]*exchange.Relay{}}
	for _, peer := range cfg.Peers {
		c := client.New(peer)
		c.HTTP = cfg.HTTP
		co.clients = append(co.clients, c)
	}
	return co, nil
}

// LemmasRelayed reports clauses delivered across workers, summed over
// finished and in-flight jobs (plug into server.ClusterMetrics).
func (co *Coordinator) LemmasRelayed() int64 {
	co.relayMu.Lock()
	defer co.relayMu.Unlock()
	n := co.retiredRelayed
	for _, r := range co.relays {
		n += r.LemmasRelayed()
	}
	return n
}

// RelayHandler serves every in-flight job's lemma relay. Mount it (e.g.
// under /v1/lemmas/ with http.StripPrefix) at the URL advertised as
// Config.RelayURL; the per-job path segment routes to that job's store.
func (co *Coordinator) RelayHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		job := strings.Trim(r.URL.Path, "/")
		co.relayMu.Lock()
		relay := co.relays[job]
		co.relayMu.Unlock()
		if relay == nil {
			http.Error(w, "cluster: unknown or finished job "+strconv.Quote(job), http.StatusNotFound)
			return
		}
		relay.ServeHTTP(w, r)
	})
}

// task is one cube travelling through the dispatch queue.
type task struct {
	index    int
	cube     []int
	body     string
	attempts int
}

// round is the shared state of one Solve's dispatch.
type round struct {
	mu        sync.Mutex
	remaining int
	sat       *core.Result
	winner    string
	unknowns  []string // reasons of unknown verdicts
	failure   error    // first cube that exhausted its attempts
	stats     core.Stats
	done      chan struct{}
	cancel    context.CancelFunc
}

// settle records a terminal state for one cube and closes the round when
// it was the last one. satRes, when non-nil, wins the race.
func (r *round) settle(satRes *core.Result, winner, unknownReason string, failure error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.remaining == 0 {
		return // round already closed (e.g. late loser after a SAT win)
	}
	if satRes != nil && r.sat == nil {
		r.sat = satRes
		r.winner = winner
		r.remaining = 0
		r.cancel()
		close(r.done)
		return
	}
	if unknownReason != "" {
		r.unknowns = append(r.unknowns, unknownReason)
	}
	if failure != nil && r.failure == nil {
		r.failure = failure
	}
	r.remaining--
	if r.remaining == 0 {
		close(r.done)
	}
}

func (r *round) addStats(st core.Stats) {
	r.mu.Lock()
	r.stats.Merge(st)
	r.mu.Unlock()
}

// Solve decides the problem by cube-and-conquer over the configured
// workers. It has the server.SolveFunc signature: wire it into a
// server.Config to make an ordinary absolverd front a cluster. trace is
// accepted for signature compatibility; per-iteration events happen on
// the workers and are not streamed back.
func (co *Coordinator) Solve(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (server.Outcome, error) {
	sp := cube.Derive(p, co.cfg.Cube)
	if len(sp.Cubes) == 0 {
		// Every sign combination was refuted by top-level propagation: the
		// skeleton alone is contradictory, no worker needed.
		return server.Outcome{Result: core.Result{Status: core.StatusUnsat}, Winner: "cube-refuted"}, nil
	}

	tasks := make([]*task, 0, len(sp.Cubes))
	for i, c := range sp.Cubes {
		body, err := dimacs.WriteString(cube.Apply(p, c))
		if err != nil {
			return server.Outcome{Result: core.Result{Status: core.StatusUnknown}}, fmt.Errorf("cluster: rendering cube %d: %w", i, err)
		}
		tasks = append(tasks, &task{index: i, cube: c, body: body})
	}

	// Per-job lemma relay. The job id keys both the relay registry and
	// worker node names, so concurrent Solves never cross streams.
	jobID := strconv.FormatInt(co.jobSeq.Add(1), 10)
	var relayURL string
	if co.cfg.RelayURL != "" {
		relay := exchange.NewRelay(co.cfg.Exchange)
		co.relayMu.Lock()
		co.relays[jobID] = relay
		co.relayMu.Unlock()
		relayURL = strings.TrimRight(co.cfg.RelayURL, "/") + "/" + jobID
		defer func() {
			co.relayMu.Lock()
			co.retiredRelayed += relay.LemmasRelayed()
			delete(co.relays, jobID)
			co.relayMu.Unlock()
		}()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &round{remaining: len(tasks), done: make(chan struct{}), cancel: cancel}

	// The queue never blocks a sender: every cube is enqueued at most
	// MaxAttempts times over its life.
	queue := make(chan *task, len(tasks)*co.cfg.MaxAttempts)
	for _, t := range tasks {
		queue <- t
	}

	var wg sync.WaitGroup
	for pi := range co.clients {
		for k := 0; k < co.cfg.PerPeer; k++ {
			wg.Add(1)
			go func(pi, k int) {
				defer wg.Done()
				co.dispatchLoop(runCtx, r, queue, p, pi, k, jobID, relayURL, params)
			}(pi, k)
		}
	}

	select {
	case <-r.done:
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	out := server.Outcome{Result: core.Result{Status: core.StatusUnknown, Stats: r.stats}}
	switch {
	case r.sat != nil:
		res := *r.sat
		res.Stats = r.stats
		return server.Outcome{Result: res, Winner: r.winner}, nil
	case ctx.Err() != nil:
		return out, ctx.Err()
	case r.failure != nil:
		return out, r.failure
	case len(r.unknowns) > 0:
		// Some worker gave up (its own timeout or iteration limit): the
		// uncovered region makes "unsat" unsound, so the round is unknown.
		return out, fmt.Errorf("cluster: %d cube(s) unknown: %s", len(r.unknowns), strings.Join(r.unknowns, "; "))
	default:
		out.Result.Status = core.StatusUnsat
		return out, nil
	}
}

// dispatchLoop pulls cubes off the queue and runs them on one peer until
// the round closes.
func (co *Coordinator) dispatchLoop(ctx context.Context, r *round, queue chan *task, p *core.Problem, peer, slot int, jobID, relayURL string, params api.SolveParams) {
	for {
		var t *task
		select {
		case <-ctx.Done():
			return
		case t = <-queue:
		}
		t.attempts++

		wparams := params
		wparams.Stream = false
		wparams.Timeout = 0 // the dispatch context carries the deadline
		if relayURL != "" {
			// Node names must be unique per engine attachment: job, cube,
			// attempt and slot all vary.
			wparams.ExchangeURL = relayURL
			wparams.ExchangeNode = fmt.Sprintf("j%s.c%d.a%d.p%d.%d", jobID, t.index, t.attempts, peer, slot)
		}

		if co.cfg.Observer != nil {
			co.cfg.Observer.CubeIssued()
		}
		resp, err := co.clients[peer].Solve(ctx, t.body, wparams)
		verdict, satRes, reason, retryable := classify(resp, err)
		if resp != nil {
			r.addStats(core.Stats(resp.Stats))
		}
		co.logf("cluster: job=%s cube=%d attempt=%d peer=%d verdict=%s err=%v", jobID, t.index, t.attempts, peer, verdict, err)

		switch verdict {
		case "sat":
			// Re-check the model against the FULL problem before letting it
			// cancel the siblings; a bad witness is a worker failure, never
			// a verdict.
			if cerr := checkModel(p, satRes); cerr != nil {
				co.logf("cluster: job=%s cube=%d peer=%d rejected model: %v", jobID, t.index, peer, cerr)
				retryable, reason = true, fmt.Sprintf("bad model from peer %d: %v", peer, cerr)
			} else {
				if co.cfg.Observer != nil {
					co.cfg.Observer.CubeSolved()
				}
				r.settle(satRes, fmt.Sprintf("cube[%d]@%s", t.index, co.cfg.Peers[peer]), "", nil)
				continue
			}
		case "unsat":
			if co.cfg.Observer != nil {
				co.cfg.Observer.CubeSolved()
			}
			r.settle(nil, "", "", nil)
			continue
		case "unknown":
			if co.cfg.Observer != nil {
				co.cfg.Observer.CubeSolved()
			}
			r.settle(nil, "", fmt.Sprintf("cube %d: %s", t.index, reason), nil)
			continue
		case "terminal-error":
			r.settle(nil, "", "", fmt.Errorf("cluster: cube %d rejected by %s: %s", t.index, co.cfg.Peers[peer], reason))
			continue
		}

		// A dispatch torn down by round cancellation (SAT win elsewhere,
		// caller timeout) is not a worker failure and must not consume one
		// of the cube's attempts.
		if ctx.Err() != nil {
			return
		}

		// Retryable failure: transport error, 429/503/5xx, or a bad model.
		if co.cfg.Observer != nil {
			co.cfg.Observer.WorkerFailure()
		}
		if !retryable || t.attempts >= co.cfg.MaxAttempts {
			r.settle(nil, "", "", fmt.Errorf("cluster: cube %d failed after %d attempt(s): %s", t.index, t.attempts, reason))
			continue
		}
		if co.cfg.Observer != nil {
			co.cfg.Observer.CubeRequeued()
		}
		delay := backoffDelay(co.cfg.RetryBase, co.cfg.RetryMax, t.attempts, retryAfterOf(err))
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		queue <- t
	}
}

// classify buckets one dispatch outcome.
//
//	verdict ∈ {"sat", "unsat", "unknown", "terminal-error", "retry"}
func classify(resp *api.SolveResponse, err error) (verdict string, satRes *core.Result, reason string, retryable bool) {
	if err == nil {
		switch resp.Status {
		case core.StatusSat.String():
			res := &core.Result{Status: core.StatusSat, Stats: core.Stats(resp.Stats)}
			if resp.Model != nil {
				res.Model = &core.Model{Bool: resp.Model.Bool, Real: expr.Env(resp.Model.Real)}
			}
			return "sat", res, "", false
		case core.StatusUnsat.String():
			return "unsat", nil, "", false
		default:
			reason := resp.Reason
			if reason == "" {
				reason = "unknown"
			}
			return "unknown", nil, reason, false
		}
	}
	var se *client.Error
	if errors.As(err, &se) {
		switch {
		case se.StatusCode == http.StatusBadRequest || se.StatusCode == http.StatusRequestEntityTooLarge:
			// The worker understood the request and rejected it; retrying
			// the same bytes cannot succeed.
			return "terminal-error", nil, se.Message, false
		default:
			// Queue-full, draining, internal errors: the worker (or its
			// replacement) may well take the cube later.
			return "retry", nil, fmt.Sprintf("HTTP %d: %s", se.StatusCode, se.Message), true
		}
	}
	if ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded); ctxErr {
		// The round is over (SAT win or caller timeout); the loop exits on
		// ctx.Done next iteration. Not a worker failure.
		return "retry", nil, err.Error(), false
	}
	return "retry", nil, err.Error(), true
}

// checkModel re-certifies a worker's SAT witness against the full
// problem (not just the cube's subproblem; a model under a cube is a
// model of the problem, so this must pass for any honest worker).
func checkModel(p *core.Problem, res *core.Result) error {
	if res == nil || res.Model == nil {
		return errors.New("sat verdict without a model")
	}
	return p.Check(*res.Model)
}

// backoffDelay computes the wait before re-dispatching a cube: capped
// exponential in the attempt count, overridden by a longer server
// Retry-After hint.
func backoffDelay(base, max time.Duration, attempt int, retryAfter time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// retryAfterOf extracts a server backoff hint from a dispatch error.
func retryAfterOf(err error) time.Duration {
	var se *client.Error
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}
