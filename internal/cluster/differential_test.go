package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/testkit"
)

// newCluster boots a coordinator over n real-engine workers, with the
// lemma relay mounted, and returns it plus its observer.
func newCluster(t *testing.T, n int) (*Coordinator, *obs) {
	t.Helper()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = newWorker(t, server.Config{Workers: 2})
	}
	mux := http.NewServeMux()
	relaySrv := httptest.NewServer(mux)
	t.Cleanup(relaySrv.Close)
	o := &obs{}
	co, err := New(Config{
		Peers:    peers,
		RelayURL: relaySrv.URL + "/v1/lemmas",
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux.Handle("/v1/lemmas/", http.StripPrefix("/v1/lemmas/", co.RelayHandler()))
	return co, o
}

// TestClusterDifferential is the distributed soundness suite: for every
// fragment, generated instances are decided three ways — testkit oracle,
// single-node engine, and the cluster — and definitive verdicts must
// agree pairwise. Zero tolerance: one disagreement is a soundness bug in
// cube derivation, dispatch, or verdict folding.
func TestClusterDifferential(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	co, _ := newCluster(t, 2)
	oracle := &testkit.Oracle{}

	for frag := testkit.Fragment(0); frag < testkit.NumFragments; frag++ {
		for seed := int64(0); seed < seeds; seed++ {
			p := testkit.Generate(seed, frag)

			ov, err := oracle.Decide(p)
			if err != nil {
				t.Fatalf("oracle: seed=%d frag=%v: %v", seed, frag, err)
			}
			engRes, engErr := core.NewEngine(p.Clone(), core.Config{}).Solve()
			engStatus := engRes.Status
			if engErr != nil {
				engStatus = core.StatusUnknown
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			out, cluErr := co.Solve(ctx, p.Clone(), api.SolveParams{}, nil)
			cancel()
			cluStatus := out.Result.Status
			if cluErr != nil {
				t.Fatalf("cluster: seed=%d frag=%v: %v", seed, frag, cluErr)
			}

			// Definitive-vs-definitive comparisons, per RunDifferential's
			// policy (the oracle may be inconclusive, engines may time out).
			if cluStatus == core.StatusSat && ov == testkit.Unsat ||
				cluStatus == core.StatusUnsat && ov == testkit.Sat {
				t.Fatalf("disagreement vs oracle: seed=%d frag=%v cluster=%v oracle=%v", seed, frag, cluStatus, ov)
			}
			if cluStatus == core.StatusSat && engStatus == core.StatusUnsat ||
				cluStatus == core.StatusUnsat && engStatus == core.StatusSat {
				t.Fatalf("disagreement vs engine: seed=%d frag=%v cluster=%v engine=%v", seed, frag, cluStatus, engStatus)
			}
			// A SAT cluster verdict always carries a coordinator-checked
			// model; re-certify against the original problem here too.
			if cluStatus == core.StatusSat {
				if out.Result.Model == nil {
					t.Fatalf("seed=%d frag=%v: sat without model", seed, frag)
				}
				if err := p.Check(*out.Result.Model); err != nil {
					t.Fatalf("seed=%d frag=%v: cluster model rejected: %v", seed, frag, err)
				}
			}
		}
	}
}

// TestWorkerKilledMidCube is the fault-injection test of the ISSUE: a
// worker dies while holding a cube (connection severed, instance gone);
// the coordinator must requeue onto the survivor and still produce the
// correct verdict with no disagreement.
func TestWorkerKilledMidCube(t *testing.T) {
	landed := make(chan struct{}, 1)
	var killed atomic.Bool

	// The victim blocks its first cube until the test severs the
	// connection; every request after the kill dies at the TCP level.
	victim := server.New(server.Config{
		Workers:       1,
		AllowExchange: true,
		SolveFunc: func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (server.Outcome, error) {
			select {
			case landed <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return server.Outcome{Result: core.Result{Status: core.StatusUnknown}}, ctx.Err()
		},
	})
	victim.Start()
	victimSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		victim.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		victimSrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = victim.Shutdown(ctx)
	})

	survivor := newWorker(t, server.Config{Workers: 2})

	o := &obs{}
	co := newFastRetry(t, Config{
		Peers:       []string{victimSrv.URL, survivor},
		Observer:    o,
		MaxAttempts: 10,
	}, 5*time.Millisecond, 25*time.Millisecond)

	type answer struct {
		out server.Outcome
		err error
	}
	got := make(chan answer, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := co.Solve(ctx, wideUnsat(5), api.SolveParams{}, nil)
		got <- answer{out, err}
	}()

	// Wait until a cube is in flight on the victim, then kill it.
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		t.Fatal("no cube ever landed on the victim")
	}
	killed.Store(true)
	victimSrv.CloseClientConnections()

	a := <-got
	if a.err != nil || a.out.Result.Status != core.StatusUnsat {
		t.Fatalf("after worker kill: %+v err=%v, want unsat", a.out, a.err)
	}
	if o.failures.Load() == 0 || o.requeued.Load() == 0 {
		t.Fatalf("kill left no trace in the observer: failures=%d requeued=%d", o.failures.Load(), o.requeued.Load())
	}
}

// TestCoordinatorCancelsLosers: the first SAT verdict must cancel the
// losing cubes' in-flight solves, not wait them out.
func TestCoordinatorCancelsLosers(t *testing.T) {
	var once sync.Once
	loserBlocked := make(chan struct{})
	loserCancelled := make(chan struct{})

	winner := newWorker(t, server.Config{
		Workers: 1,
		SolveFunc: func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (server.Outcome, error) {
			// Hold the SAT answer until the loser is provably mid-solve, so
			// the cancellation is observable rather than racy.
			select {
			case <-loserBlocked:
			case <-ctx.Done():
				return server.Outcome{Result: core.Result{Status: core.StatusUnknown}}, ctx.Err()
			}
			return server.Outcome{Result: core.Result{
				Status: core.StatusSat,
				Model:  &core.Model{Bool: []bool{true, true, true, true}},
			}}, nil
		},
	})
	loser := newWorker(t, server.Config{
		Workers: 1,
		SolveFunc: func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (server.Outcome, error) {
			once.Do(func() { close(loserBlocked) })
			<-ctx.Done()
			once.Do(func() {}) // first call is the blocked one
			select {
			case <-loserCancelled:
			default:
				close(loserCancelled)
			}
			return server.Outcome{Result: core.Result{Status: core.StatusUnknown}}, ctx.Err()
		},
	})

	co, err := New(Config{Peers: []string{winner, loser}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	out, err := co.Solve(ctx, satProblem(), api.SolveParams{}, nil)
	if err != nil || out.Result.Status != core.StatusSat {
		t.Fatalf("got %+v err=%v, want sat", out, err)
	}
	select {
	case <-loserCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("loser's solve was never cancelled")
	}
}
