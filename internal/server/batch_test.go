package server_test

import (
	"context"
	"errors"
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

func TestBatchEndToEnd(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()

	instances := []api.BatchInstance{
		{ID: "plain"},
		{ID: "contradicted", Clauses: [][]int{{-1}, {-2}}},
		{ID: "assumed", Assume: []int{1}},
	}
	items, summary, err := c.Batch(ctx, satDIMACS, instances, api.SolveParams{Knobs: core.Config{CheckModels: true}.KnobSet()})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if summary == nil || summary.Total != 3 || summary.Solved != 3 || summary.Errors != 0 {
		t.Fatalf("summary = %+v, want 3 total / 3 solved / 0 errors", summary)
	}
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	for i, it := range items {
		if it.Index != i || it.ID != instances[i].ID {
			t.Fatalf("item %d = %+v: order or id mismatch", i, it)
		}
	}
	if items[0].Result == nil || items[0].Result.Status != "sat" {
		t.Fatalf("plain: %+v", items[0])
	}
	if items[1].Result == nil || items[1].Result.Status != "unsat" {
		t.Fatalf("contradicted: %+v", items[1])
	}
	if r := items[2].Result; r == nil || r.Status != "sat" || r.Model == nil || !r.Model.Bool[0] {
		t.Fatalf("assumed: %+v", items[2])
	}
	// The contradiction was frame-local: it must not leak into item 3, and
	// each item reports exactly its own work (SessionSolves delta = 1).
	for i, it := range items {
		if it.Result != nil && it.Result.Stats.SessionSolves != 1 {
			t.Fatalf("item %d SessionSolves = %d, want per-call delta 1", i, it.Result.Stats.SessionSolves)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string]float64{
		"absolverd_batch_requests_total":          1,
		"absolverd_batch_instances_total":         3,
		`absolverd_solves_total{verdict="sat"}`:   2,
		`absolverd_solves_total{verdict="unsat"}`: 1,
		// The exactness pin: per-instance deltas merged once each — the
		// session counter equals the instance count, not a running total
		// (which would double-count as 1+2+3).
		"absolverd_engine_session_solves_total": 3,
	}
	for k, want := range expect {
		if got := m[k]; got != want {
			t.Errorf("metric %s = %g, want %g", k, got, want)
		}
	}
}

func TestBatchSessionReusesTheoryWork(t *testing.T) {
	// The same instance solved repeatedly over the warm session: later
	// instances must be answered with less theory work than the first.
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	instances := make([]api.BatchInstance, 4)
	for i := range instances {
		instances[i] = api.BatchInstance{Assume: []int{1}}
	}
	items, _, err := c.Batch(context.Background(), satDIMACS, instances, api.SolveParams{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	first := items[0].Result
	last := items[len(items)-1].Result
	if first == nil || last == nil {
		t.Fatalf("missing results: %+v", items)
	}
	if last.Stats.LinearChecks > first.Stats.LinearChecks {
		t.Fatalf("no reuse: first %d linear checks, last %d", first.Stats.LinearChecks, last.Stats.LinearChecks)
	}
}

func TestBatchRejectsMultiStrategyParams(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	for _, params := range []api.SolveParams{
		{Portfolio: 2},
		{Knobs: core.Config{RestartBoolean: true}.KnobSet()},
	} {
		_, _, err := c.Batch(ctx, satDIMACS, []api.BatchInstance{{}}, params)
		var se *client.Error
		if err == nil || !errors.As(err, &se) {
			t.Fatalf("params %+v accepted: %v", params, err)
		}
		if se.StatusCode != http.StatusBadRequest || se.ExitCode != api.ExitUsage {
			t.Fatalf("params %+v: %+v, want 400/usage", params, se)
		}
	}
}

func TestBatchItemErrorsAreLocal(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	instances := []api.BatchInstance{
		{ID: "bad", Clauses: [][]int{{0}}}, // literal 0 is invalid
		{ID: "good"},
	}
	items, summary, err := c.Batch(context.Background(), satDIMACS, instances, api.SolveParams{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if summary.Errors != 1 || summary.Solved != 1 {
		t.Fatalf("summary = %+v, want 1 error / 1 solved", summary)
	}
	if items[0].Error == "" || items[0].Result != nil {
		t.Fatalf("bad item: %+v, want an error and no result", items[0])
	}
	// The failed instance's frame was retracted; the next one is clean.
	if items[1].Result == nil || items[1].Result.Status != "sat" {
		t.Fatalf("good item after bad: %+v", items[1])
	}
}

func TestBatchBadBodies(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 2})
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"bad header", "not json\n"},
		{"bad base", `{"base":"p cnf oops"}` + "\n"},
		{"bad instance", `{"base":"p cnf 1 1\n1 0\n"}` + "\nnot json\n"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, rec.Code)
		}
	}
	// GET is not allowed.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: HTTP %d, want 405", rec.Code)
	}
}

func TestBatchHonorsDrainContract(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, _, err := c.Batch(context.Background(), satDIMACS, []api.BatchInstance{{}}, api.SolveParams{})
	var se *client.Error
	if err == nil || !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining: %v, want 503", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("draining rejection without Retry-After: %+v", se)
	}
}
