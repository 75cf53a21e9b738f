package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
)

// Small fixed problems shared across the suite.
const (
	satDIMACS   = "p cnf 2 1\n1 2 0\nc def real 1 x >= 1\n"
	unsatDIMACS = "p cnf 2 2\n1 0\n2 0\nc def real 1 x + y >= 5\nc def real 2 x + y <= 4\n"
	satSMTLIB   = `(benchmark b :logic QF_LRA :extrafuns ((x Real)) :formula (>= x 1))`
	unsatSMTLIB = `(benchmark b :logic QF_LRA :extrafuns ((x Real)) :formula (and (>= x 5) (<= x 4)))`
)

// newTestServer starts a server and an httptest front end, returning the
// client. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		hs.Close()
	})
	return srv, client.New(hs.URL)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSolveVerdictsBothFormats(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 4})
	ctx := context.Background()

	resp, err := c.Solve(ctx, satDIMACS, api.SolveParams{})
	if err != nil {
		t.Fatalf("sat dimacs: %v", err)
	}
	if resp.Status != "sat" || resp.ExitCode != api.ExitSat || resp.Model == nil {
		t.Fatalf("sat dimacs: %+v", resp)
	}
	if resp.Stats.Iterations == 0 {
		t.Fatalf("sat dimacs: stats not populated: %+v", resp.Stats)
	}

	resp, err = c.Solve(ctx, unsatDIMACS, api.SolveParams{})
	if err != nil {
		t.Fatalf("unsat dimacs: %v", err)
	}
	if resp.Status != "unsat" || resp.ExitCode != api.ExitUnsat || resp.Model != nil {
		t.Fatalf("unsat dimacs: %+v", resp)
	}

	resp, err = c.Solve(ctx, satSMTLIB, api.SolveParams{Format: api.FormatSMTLIB})
	if err != nil {
		t.Fatalf("sat smtlib: %v", err)
	}
	if resp.Status != "sat" || resp.Model == nil {
		t.Fatalf("sat smtlib: %+v", resp)
	}
	if x, ok := resp.Model.Real["x"]; !ok || x < 1 {
		t.Fatalf("sat smtlib: witness x = %v (%v)", x, ok)
	}

	resp, err = c.Solve(ctx, unsatSMTLIB, api.SolveParams{Format: api.FormatSMTLIB})
	if err != nil {
		t.Fatalf("unsat smtlib: %v", err)
	}
	if resp.Status != "unsat" || resp.ExitCode != api.ExitUnsat {
		t.Fatalf("unsat smtlib: %+v", resp)
	}
}

func TestSolveKnobs(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 4, QueueDepth: 8})
	ctx := context.Background()

	resp, err := c.Solve(ctx, satDIMACS, api.SolveParams{Portfolio: 3})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	if resp.Status != "sat" || resp.Winner == "" {
		t.Fatalf("portfolio: want sat with a winner, got %+v", resp)
	}

	resp, err = c.Solve(ctx, satDIMACS, api.SolveParams{
		Knobs: core.Config{
			RestartBoolean: true, NoIIS: true, NoGroundLemmas: true, NoTheoryCache: true, CheckModels: true,
		}.KnobSet(),
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("knobs: %v", err)
	}
	if resp.Status != "sat" {
		t.Fatalf("knobs: %+v", resp)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2, MaxBodyBytes: 1 << 16, MaxPortfolio: 4})
	ctx := context.Background()

	assertHTTP := func(t *testing.T, err error, status int) *client.Error {
		t.Helper()
		if err == nil {
			t.Fatalf("want HTTP %d error, got nil", status)
		}
		ce, ok := err.(*client.Error)
		if !ok {
			t.Fatalf("want *client.Error, got %T: %v", err, err)
		}
		if ce.StatusCode != status {
			t.Fatalf("status = %d, want %d (%v)", ce.StatusCode, status, ce)
		}
		return ce
	}

	// Malformed problem body → 400, exit code 2.
	_, err := c.Solve(ctx, "\x00\x01 not dimacs at all", api.SolveParams{})
	ce := assertHTTP(t, err, http.StatusBadRequest)
	if ce.ExitCode != api.ExitUsage {
		t.Fatalf("exit code = %d, want %d", ce.ExitCode, api.ExitUsage)
	}

	// Oversized body → 413.
	big := satDIMACS + strings.Repeat("c padding padding padding\n", 1<<13)
	_, err = c.Solve(ctx, big, api.SolveParams{})
	assertHTTP(t, err, http.StatusRequestEntityTooLarge)

	// Unknown format → 400.
	_, err = c.Solve(ctx, satDIMACS, api.SolveParams{Format: "tptp"})
	assertHTTP(t, err, http.StatusBadRequest)

	// Portfolio beyond the server clamp → 400.
	_, err = c.Solve(ctx, satDIMACS, api.SolveParams{Portfolio: 99})
	assertHTTP(t, err, http.StatusBadRequest)

	// Wrong method → 405.
	resp, err := http.Get(c.BaseURL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

func TestStreamingTrace(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	var events []api.StreamEvent
	// NoLemmas forces the lazy loop to discover the conflict by theory
	// checking (static grounding would refute this problem in the Boolean
	// skeleton with zero iterations — and zero trace events).
	resp, err := c.SolveStream(context.Background(), unsatDIMACS, api.SolveParams{Knobs: core.Config{NoGroundLemmas: true}.KnobSet()}, func(ev api.StreamEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if resp.Status != "unsat" {
		t.Fatalf("stream verdict: %+v", resp)
	}
	if len(events) == 0 {
		t.Fatal("no trace events streamed before the result")
	}
	for _, ev := range events {
		if ev.Type != api.EventTrace || ev.Iteration == 0 || ev.Kind == "" {
			t.Fatalf("bad trace event: %+v", ev)
		}
	}
}

// TestMetricsAfterKnownWorkload runs a fixed request mix against a fresh
// server and asserts the /metrics counters: solve counts by verdict, the
// queue gauges, and the engine (PR-3 Stats) counters, which must equal the
// sum of the per-response statistics.
func TestMetricsAfterKnownWorkload(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 4})
	ctx := context.Background()

	wantIterations := 0
	wantLinear := 0
	for i := 0; i < 3; i++ {
		resp, err := c.Solve(ctx, satDIMACS, api.SolveParams{})
		if err != nil || resp.Status != "sat" {
			t.Fatalf("sat %d: %v %+v", i, err, resp)
		}
		// Repeats of a canonically identical problem are served from the
		// verdict cache: only the first run's work reaches the engine
		// counters (cached responses replay the original stats).
		if i == 0 {
			wantIterations += resp.Stats.Iterations
			wantLinear += resp.Stats.LinearChecks
		}
	}
	resp, err := c.Solve(ctx, unsatDIMACS, api.SolveParams{})
	if err != nil || resp.Status != "unsat" {
		t.Fatalf("unsat: %v %+v", err, resp)
	}
	wantIterations += resp.Stats.Iterations
	wantLinear += resp.Stats.LinearChecks
	if _, err := c.Solve(ctx, "garbage body", api.SolveParams{}); err == nil {
		t.Fatal("garbage accepted")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	expect := map[string]float64{
		`absolverd_solves_total{verdict="sat"}`:          1,
		`absolverd_solves_total{verdict="unsat"}`:        1,
		`absolverd_solves_total{verdict="unknown"}`:      0,
		`absolverd_solves_total{verdict="canceled"}`:     0,
		`absolverd_solves_total{verdict="error"}`:        0,
		`absolverd_rejected_total{reason="bad_request"}`: 1,
		`absolverd_rejected_total{reason="queue_full"}`:  0,
		`absolverd_cache_hits_total`:                     2,
		`absolverd_cache_misses_total`:                   2,
		`absolverd_batch_requests_total`:                 0,
		`absolverd_batch_instances_total`:                0,
		`absolverd_queue_depth`:                          0,
		`absolverd_queue_capacity`:                       4,
		`absolverd_workers`:                              2,
		`absolverd_workers_busy`:                         0,
		`absolverd_engine_iterations_total`:              float64(wantIterations),
		`absolverd_engine_linear_checks_total`:           float64(wantLinear),
	}
	for k, want := range expect {
		got, ok := m[k]
		if !ok {
			t.Errorf("metric %s missing", k)
			continue
		}
		if got != want {
			t.Errorf("metric %s = %g, want %g", k, got, want)
		}
	}
	// Every core.Stats counter must be exported, even when zero.
	for _, k := range []string{
		"iterations", "linear_checks", "nonlinear_checks", "conflict_clauses",
		"lossy_blocks", "ne_splits", "lemmas_published", "lemmas_imported",
		"lemmas_deduped", "theory_cache_hits", "theory_cache_misses",
		"session_solves",
	} {
		if _, ok := m["absolverd_engine_"+k+"_total"]; !ok {
			t.Errorf("engine counter %s not exported", k)
		}
	}
	for _, c := range core.StatCounters {
		if _, ok := m["absolverd_engine_"+c.Name+"_total"]; !ok {
			t.Errorf("engine counter %s not exported", c.Name)
		}
	}
	for _, p := range core.StatPhases {
		if _, ok := m["absolverd_engine_"+p.Name+"_seconds_total"]; !ok {
			t.Errorf("engine phase %s not exported", p.Name)
		}
	}
}

func TestHealthAndReady(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := c.Readyz(ctx); err == nil {
		t.Fatal("readyz still OK after shutdown")
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz after shutdown: %v", err)
	}
	// New solves are refused with 503 after shutdown.
	_, err := c.Solve(ctx, satDIMACS, api.SolveParams{})
	ce, ok := err.(*client.Error)
	if !ok || ce.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve after shutdown: %v", err)
	}
	// A second Shutdown reports it has already happened.
	if err := srv.Shutdown(ctx); err != server.ErrAlreadyShutdown {
		t.Fatalf("second shutdown: %v", err)
	}
}
