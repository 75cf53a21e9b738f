package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
)

// obs counts observer callbacks for assertions.
type obs struct {
	issued, solved, requeued, failures atomic.Int64
}

func (o *obs) CubeIssued()    { o.issued.Add(1) }
func (o *obs) CubeSolved()    { o.solved.Add(1) }
func (o *obs) CubeRequeued()  { o.requeued.Add(1) }
func (o *obs) WorkerFailure() { o.failures.Add(1) }

// newWorker boots an in-process absolverd with the real engine (or the
// given SolveFunc) and returns its base URL.
func newWorker(t *testing.T, cfg server.Config) string {
	t.Helper()
	cfg.AllowExchange = true
	s := server.New(cfg)
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return srv.URL
}

// satProblem is satisfiable with ≥2 cubes to split on; allTrue is a model.
func satProblem() *core.Problem {
	p := core.NewProblem()
	p.AddClause(1, 2)
	p.AddClause(3, 4)
	p.AddClause(1, 3)
	p.AddClause(2, 4)
	return p
}

func unsatProblem() *core.Problem {
	// Pigeonhole-flavoured: three variables, all sign combinations killed.
	p := core.NewProblem()
	p.AddClause(1, 2)
	p.AddClause(1, -2)
	p.AddClause(-1, 2)
	p.AddClause(-1, -2)
	return p
}

// wideUnsat builds the complete clause set over n variables (every full-
// length sign pattern): UNSAT, but with clauses this wide unit propagation
// learns nothing from a short cube, so the splitter derives live cubes
// that real workers must actually refute.
func wideUnsat(n int) *core.Problem {
	p := core.NewProblem()
	for mask := 0; mask < 1<<n; mask++ {
		lits := make([]int, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				lits[i] = -(i + 1)
			} else {
				lits[i] = i + 1
			}
		}
		p.AddClause(lits...)
	}
	return p
}

func TestNewRequiresPeers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no peers succeeded")
	}
}

// TestClusterSatAndUnsat runs real workers end-to-end over both verdicts.
func TestClusterSatAndUnsat(t *testing.T) {
	peers := []string{newWorker(t, server.Config{Workers: 2}), newWorker(t, server.Config{Workers: 2})}
	o := &obs{}
	co, err := New(Config{Peers: peers, Observer: o})
	if err != nil {
		t.Fatal(err)
	}

	out, err := co.Solve(context.Background(), satProblem(), api.SolveParams{}, nil)
	if err != nil || out.Result.Status != core.StatusSat {
		t.Fatalf("sat problem: %+v err=%v", out, err)
	}
	if out.Result.Model == nil {
		t.Fatal("sat without model")
	}
	if !strings.HasPrefix(out.Winner, "cube[") {
		t.Fatalf("winner = %q", out.Winner)
	}

	out, err = co.Solve(context.Background(), unsatProblem(), api.SolveParams{}, nil)
	if err != nil || out.Result.Status != core.StatusUnsat {
		t.Fatalf("unsat problem: %+v err=%v", out, err)
	}
	if o.issued.Load() == 0 || o.solved.Load() == 0 {
		t.Fatalf("observer saw nothing: %+v", o)
	}
}

// TestRefutedShortCircuit: a propositionally contradictory problem is
// answered without touching any worker.
func TestRefutedShortCircuit(t *testing.T) {
	co, err := New(Config{Peers: []string{"http://127.0.0.1:1"}}) // nothing listens there
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProblem()
	p.AddClause(1)
	p.AddClause(-1)
	out, err := co.Solve(context.Background(), p, api.SolveParams{}, nil)
	if err != nil || out.Result.Status != core.StatusUnsat {
		t.Fatalf("got %+v err=%v", out, err)
	}
}

// TestRequeueOnFlakyWorker: a worker that bounces its first requests with
// 503 + Retry-After makes the coordinator retry, honouring the hint, and
// the round still completes.
func TestRequeueOnFlakyWorker(t *testing.T) {
	real := newWorker(t, server.Config{Workers: 2})
	var rejected atomic.Int64
	flakySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rejected.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining","exit_code":20}`)
			return
		}
		// After the flake, proxy to the real worker.
		u := real + r.URL.Path
		if r.URL.RawQuery != "" {
			u += "?" + r.URL.RawQuery
		}
		req, _ := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				break
			}
		}
	}))
	t.Cleanup(flakySrv.Close)

	o := &obs{}
	co := newFastRetry(t, Config{
		Peers:       []string{flakySrv.URL},
		Observer:    o,
		MaxAttempts: 6,
	}, 5*time.Millisecond, 20*time.Millisecond)
	out, err := co.Solve(context.Background(), unsatProblem(), api.SolveParams{}, nil)
	if err != nil || out.Result.Status != core.StatusUnsat {
		t.Fatalf("got %+v err=%v", out, err)
	}
	if o.failures.Load() < 2 || o.requeued.Load() < 2 {
		t.Fatalf("observer: failures=%d requeued=%d, want ≥2 each", o.failures.Load(), o.requeued.Load())
	}
}

// TestAttemptExhaustionFailsLoudly: a permanently dead worker must turn
// into an error, never a silent "unsat".
func TestAttemptExhaustionFailsLoudly(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	co := newFastRetry(t, Config{
		Peers:       []string{dead.URL},
		MaxAttempts: 2,
	}, time.Millisecond, 2*time.Millisecond)
	out, err := co.Solve(context.Background(), unsatProblem(), api.SolveParams{}, nil)
	if err == nil {
		t.Fatalf("dead cluster returned %+v without error", out)
	}
	if out.Result.Status != core.StatusUnknown {
		t.Fatalf("status = %v, want unknown", out.Result.Status)
	}
}

// panicObs panics on the first cube issued.
type panicObs struct{ obs }

func (o *panicObs) CubeIssued() { panic("observer exploded") }

// TestDispatchPanicFailsRound: a panic in a dispatch goroutine (here the
// Observer's) becomes the round's error instead of ending the process.
func TestDispatchPanicFailsRound(t *testing.T) {
	peers := []string{newWorker(t, server.Config{Workers: 2}), newWorker(t, server.Config{Workers: 2})}
	co, err := New(Config{Peers: peers, Observer: &panicObs{}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := co.Solve(context.Background(), unsatProblem(), api.SolveParams{}, nil)
	if err == nil || !strings.Contains(err.Error(), "observer exploded") {
		t.Fatalf("Solve = %+v, err %v; want the panic as the round's error", out, err)
	}
	if out.Result.Status != core.StatusUnknown {
		t.Fatalf("status = %v, want unknown", out.Result.Status)
	}
}

// TestTerminalRejectionFailsRound: a 400 from a worker is not retried.
func TestTerminalRejectionFailsRound(t *testing.T) {
	var calls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"nope","exit_code":2}`)
	}))
	t.Cleanup(bad.Close)
	co := newFastRetry(t, Config{Peers: []string{bad.URL}, MaxAttempts: 5}, time.Millisecond, retryMax)
	p := unsatProblem()
	if _, err := co.Solve(context.Background(), p, api.SolveParams{}, nil); err == nil {
		t.Fatal("400-rejected round succeeded")
	}
	// One call per cube, no retries of a terminal rejection.
	if n := calls.Load(); n > 4 {
		t.Fatalf("terminal rejection was retried: %d calls", n)
	}
}

// TestBadModelRejected: a worker claiming SAT with a bogus witness must
// not win the race — the coordinator re-checks and retries elsewhere.
func TestBadModelRejected(t *testing.T) {
	var lies atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lies.Add(1)
		resp := api.SolveResponse{Status: "sat", Model: &api.Model{Bool: []bool{false, false}}}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":%q,"exit_code":0,"model":{"bool":[false,false]}}`, resp.Status)
	}))
	t.Cleanup(liar.Close)
	real := newWorker(t, server.Config{Workers: 2})

	co := newFastRetry(t, Config{
		Peers:       []string{liar.URL, real},
		MaxAttempts: 8,
	}, time.Millisecond, 5*time.Millisecond)
	// UNSAT problem: the liar says sat everywhere, the real worker says
	// unsat cube by cube. The round must end unsat or, if the liar burned
	// a cube's attempts, an error — never sat.
	out, err := co.Solve(context.Background(), wideUnsat(5), api.SolveParams{}, nil)
	if out.Result.Status == core.StatusSat {
		t.Fatalf("liar won: %+v", out)
	}
	if lies.Load() == 0 {
		t.Fatal("liar was never consulted; test proves nothing")
	}
	_ = err // error (attempt exhaustion) and unsat are both acceptable
}

// TestBackoffDelay pins the retry curve and the Retry-After override.
func TestBackoffDelay(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for _, tc := range []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{1, 0, 100 * time.Millisecond},
		{2, 0, 200 * time.Millisecond},
		{3, 0, 400 * time.Millisecond},
		{5, 0, time.Second},                     // capped
		{1, 3 * time.Second, 3 * time.Second},   // server hint wins when longer
		{5, 50 * time.Millisecond, time.Second}, // but never shortens
	} {
		if got := backoffDelay(base, max, tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("backoffDelay(attempt=%d, retryAfter=%v) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}

// TestRetryAfterOf extracts hints only from client errors.
func TestRetryAfterOf(t *testing.T) {
	if d := retryAfterOf(&client.Error{RetryAfter: 2 * time.Second}); d != 2*time.Second {
		t.Fatalf("got %v", d)
	}
	if d := retryAfterOf(errors.New("boom")); d != 0 {
		t.Fatalf("got %v", d)
	}
}

// TestRelayHandlerRouting: unknown jobs 404; a live job's relay answers.
func TestRelayHandlerRouting(t *testing.T) {
	co, err := New(Config{Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	h := co.RelayHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/42?node=a", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", rec.Code)
	}
}

// TestClusterTimeout: an expiring caller context surfaces as its error,
// not as a verdict.
func TestClusterTimeout(t *testing.T) {
	stuck := newWorker(t, server.Config{
		Workers: 1,
		SolveFunc: func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (server.Outcome, error) {
			<-ctx.Done()
			return server.Outcome{Result: core.Result{Status: core.StatusUnknown}}, ctx.Err()
		},
	})
	co, err := New(Config{Peers: []string{stuck}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	out, err := co.Solve(ctx, unsatProblem(), api.SolveParams{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if out.Result.Status != core.StatusUnknown {
		t.Fatalf("status = %v, want unknown", out.Result.Status)
	}
}

// newFastRetry builds a coordinator whose retry backoff runs from base to
// max instead of retryBase to retryMax, so requeue paths run in
// milliseconds.
func newFastRetry(t *testing.T, cfg Config, base, max time.Duration) *Coordinator {
	t.Helper()
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.backoffBase, co.backoffMax = base, max
	return co
}
