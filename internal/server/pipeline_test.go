package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
)

// TestPanickingSolveIsIsolated: a solver panic degrades only its own
// request. A plain solve answers 500 with exit code 1, a streamed one ends
// with an error event; each counts once as verdict "error" and logs its
// stack, and the same single worker then serves a normal solve.
func TestPanickingSolveIsIsolated(t *testing.T) {
	var mu sync.Mutex
	var logs strings.Builder
	_, c := newTestServer(t, server.Config{
		Workers: 1, QueueDepth: 2, CacheSize: -1,
		SolveFunc: func(_ context.Context, p *core.Problem, _ api.SolveParams, _ core.TraceFunc) (server.Outcome, error) {
			if p.NumVars == 1 {
				panic("solver bug")
			}
			return server.Outcome{Result: core.Result{Status: core.StatusUnsat}}, nil
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	})
	ctx := context.Background()
	const boom = "p cnf 1 1\n1 0\n"

	_, err := c.Solve(ctx, boom, api.SolveParams{})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.StatusCode != http.StatusInternalServerError || ce.ExitCode != api.ExitInternal {
		t.Fatalf("plain panic: %v, want HTTP 500 with exit code %d", err, api.ExitInternal)
	}
	if !strings.Contains(ce.Message, "solver bug") {
		t.Fatalf("plain panic message %q does not name the panic", ce.Message)
	}

	_, err = c.SolveStream(ctx, boom, api.SolveParams{}, nil)
	if !errors.As(err, &ce) || ce.StatusCode != http.StatusOK || ce.ExitCode != api.ExitInternal {
		t.Fatalf("streamed panic: %v, want a final error event", err)
	}

	resp, err := c.Solve(ctx, unsatDIMACS, api.SolveParams{})
	if err != nil || resp.Status != "unsat" {
		t.Fatalf("solve after the panics: %+v %v", resp, err)
	}
	if n := metric(t, c, `absolverd_solves_total{verdict="error"}`); n != 2 {
		t.Fatalf("error verdicts = %g, want 2", n)
	}
	if n := metric(t, c, "absolverd_workers_busy"); n != 0 {
		t.Fatalf("workers busy = %g after the panics, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := logs.String(); strings.Count(got, "panicked: solver bug") != 2 || !strings.Contains(got, "runtime/debug.Stack") {
		t.Fatalf("log lacks the two panics with their stacks:\n%s", got)
	}
}

// TestBatchBaseOverParserLimit: a batch base problem over the parser's
// size limit is answered 413 and counted as body_too_large, as /v1/solve
// answers the same text.
func TestBatchBaseOverParserLimit(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2, DIMACSLimits: dimacs.Limits{MaxBytes: 64}})
	base := unsatDIMACS + strings.Repeat("c padding\n", 8)
	_, err := c.Solve(context.Background(), base, api.SolveParams{})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("solve over the limit: %v, want 413", err)
	}
	_, _, err = c.Batch(context.Background(), base, []api.BatchInstance{{}}, api.SolveParams{})
	if !errors.As(err, &ce) || ce.StatusCode != http.StatusRequestEntityTooLarge || ce.ExitCode != api.ExitUsage {
		t.Fatalf("batch over the limit: %v, want 413", err)
	}
	if n := metric(t, c, `absolverd_rejected_total{reason="body_too_large"}`); n != 2 {
		t.Fatalf("body_too_large rejections = %g, want 2", n)
	}
	if n := metric(t, c, `absolverd_rejected_total{reason="bad_request"}`); n != 0 {
		t.Fatalf("bad_request rejections = %g, want 0", n)
	}
}

// TestTimedOutBatchDeliversEveryEvent: a batch whose deadline passes
// before it runs still streams one unknown item per instance and its end
// event; the deadline only stops the worker waiting on a stalled reader.
func TestTimedOutBatchDeliversEveryEvent(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 1, SolveDelay: time.Minute})
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	body := batchBody(t, satDIMACS, api.BatchInstance{ID: "a"}, api.BatchInstance{ID: "b"}, api.BatchInstance{ID: "c"})
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch?timeout=1ms", strings.NewReader(body)))
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if len(lines) != 4 || strings.Count(rec.Body.String(), `"reason":"timeout"`) != 3 ||
			!strings.HasPrefix(lines[3], `{"type":"end"`) {
			t.Fatalf("run %d: got %d lines, want 3 timed-out items and an end event:\n%s", i, len(lines), rec.Body.String())
		}
	}
}
