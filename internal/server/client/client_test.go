package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"absolver/internal/server/api"
)

// TestParseRetryAfter pins the header grammar: integer seconds, HTTP-date,
// and the one-second fallback for garbage (never zero — a zero would make
// retry loops hot-loop against a server that asked for restraint).
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in       string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"0", 0, 0},
		{"3", 3 * time.Second, 3 * time.Second},
		{" 7 ", 7 * time.Second, 7 * time.Second},
		{"-5", time.Second, time.Second},                            // negative seconds: unparseable per RFC
		{"soon", time.Second, time.Second},                          // garbage
		{"1.5", time.Second, time.Second},                           // fractional seconds: not in the grammar
		{"Mon, 02 Jan 2006 15:04:05 GMT", time.Second, time.Second}, // date in the past
		{time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat), 8 * time.Second, 10 * time.Second},
	} {
		got := parseRetryAfter(tc.in)
		if got < tc.min || got > tc.max {
			t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.in, got, tc.min, tc.max)
		}
	}
}

// connCounter tracks distinct TCP connections accepted by a test server.
type connCounter struct {
	mu sync.Mutex
	n  int
}

func (c *connCounter) hook(_ net.Conn, state http.ConnState) {
	if state == http.StateNew {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

func (c *connCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// newCountingServer serves handler while counting fresh connections, with a
// dedicated keep-alive transport so other tests' pooled connections cannot
// interfere.
func newCountingServer(t *testing.T, handler http.HandlerFunc) (*Client, *connCounter) {
	t.Helper()
	counter := &connCounter{}
	srv := httptest.NewUnstartedServer(handler)
	srv.Config.ConnState = counter.hook
	srv.Start()
	t.Cleanup(srv.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := New(srv.URL)
	c.HTTP = &http.Client{Transport: tr}
	return c, counter
}

// TestErrorResponsesReuseConnection pins the body-drain fix: sequential
// rejected solves must ride one keep-alive connection. Before the fix the
// JSON decode stopped at the end of the error value, the connection was
// closed undrained, and every request dialled anew.
func TestErrorResponsesReuseConnection(t *testing.T) {
	c, counter := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		// Flush forces chunked encoding and flushing the value before the
		// handler returns puts the terminating chunk in a later segment —
		// the shape of any streamed or slow daemon response. The decoder
		// stops at the end of the JSON value without observing EOF; only an
		// explicit drain reads the terminator that makes the connection
		// reusable.
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "queue full", ExitCode: api.ExitUnknown})
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
	})
	for i := 0; i < 3; i++ {
		_, err := c.Solve(context.Background(), "p cnf 1 1\n1 0\n", api.SolveParams{})
		if !IsQueueFull(err) {
			t.Fatalf("request %d: err = %v, want queue-full", i, err)
		}
		var se *Error
		if asError(err, &se); se.RetryAfter != 2*time.Second {
			t.Fatalf("request %d: RetryAfter = %v, want 2s", i, se.RetryAfter)
		}
	}
	if got := counter.count(); got != 1 {
		t.Fatalf("3 sequential error responses used %d connections, want 1 (body not drained?)", got)
	}
}

// TestSolveReusesConnection: successful solves, batches and checks must
// also ride one connection — Solve stops decoding at the end of the JSON
// value and the stream readers stop at the terminal event, so the rest of
// the body has to be drained explicitly.
func TestSolveReusesConnection(t *testing.T) {
	c, counter := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		// Chunked with a late terminator, as for any streamed or large
		// model payload — see TestErrorResponsesReuseConnection.
		enc := json.NewEncoder(w)
		switch r.URL.Path {
		case "/v1/batch":
			enc.Encode(api.BatchEvent{Type: api.EventItem, Item: &api.BatchItemResult{Result: &api.SolveResponse{Status: "unsat"}}})
			enc.Encode(api.BatchEvent{Type: api.EventEnd, Summary: &api.BatchSummary{Total: 1, Solved: 1}})
		case "/v1/check":
			enc.Encode(api.CheckEvent{Type: api.CheckEventDepth, Depth: &api.CheckDepth{Phase: "base", Status: "unsat"}})
			enc.Encode(api.CheckEvent{Type: api.EventResult, Result: &api.CheckResponse{Verdict: api.CheckProved}})
		default:
			enc.Encode(api.SolveResponse{Status: "unsat"})
		}
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		out, err := c.Solve(ctx, "p cnf 1 2\n1 0\n-1 0\n", api.SolveParams{})
		if err != nil || out.Status != "unsat" {
			t.Fatalf("solve %d: out=%+v err=%v", i, out, err)
		}
		items, summary, err := c.Batch(ctx, "p cnf 1 1\n1 0\n", []api.BatchInstance{{Assume: []int{-1}}}, api.SolveParams{})
		if err != nil || len(items) != 1 || summary == nil || summary.Solved != 1 {
			t.Fatalf("batch %d: items=%+v summary=%+v err=%v", i, items, summary, err)
		}
		res, err := c.Check(ctx, "node n() returns (ok: bool); let ok = true; tel;", api.CheckParams{K: 1}, nil)
		if err != nil || res.Verdict != api.CheckProved {
			t.Fatalf("check %d: res=%+v err=%v", i, res, err)
		}
	}
	if got := counter.count(); got != 1 {
		t.Fatalf("3 rounds of solve, batch and check used %d connections, want 1 (body not drained?)", got)
	}
}
