package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/server"
	"absolver/internal/server/api"
)

// TestConcurrentAdmissionNeverPanics hammers a one-worker server with
// concurrent trivial /v1/solve, /v1/batch and /v1/check requests. Such jobs
// finish in microseconds, so the worker can finish one, and count it done,
// before the handler that queued it has returned from the queue send:
// admission has to count the job before it sends it, or the job counter
// goes negative and the process panics. Every request must get 200 or 429,
// and Shutdown must then drain cleanly.
//
// More Ps than CPUs make the OS deschedule a handler between the send
// and what follows it often enough for the old ordering to panic within a
// few thousand requests.
func TestConcurrentAdmissionNeverPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	srv := server.New(server.Config{
		Workers: 1, QueueDepth: 2, CacheSize: -1,
		SolveFunc: func(context.Context, *core.Problem, api.SolveParams, core.TraceFunc) (server.Outcome, error) {
			return server.Outcome{Result: core.Result{Status: core.StatusUnknown}}, nil
		},
	})
	srv.Start()
	h := srv.Handler()

	var batch strings.Builder
	enc := json.NewEncoder(&batch)
	if err := enc.Encode(api.BatchRequest{Base: satDIMACS}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(api.BatchInstance{ID: "one"}); err != nil {
		t.Fatal(err)
	}
	requests := []struct{ path, body string }{
		{"/v1/solve", satDIMACS},
		{"/v1/batch", batch.String()},
		{"/v1/check?k=1", counterLus},
	}

	const clients, perClient = 8, 1000
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r := requests[(c+i)%len(requests)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body)))
				if code := rec.Code; code != http.StatusOK && code != http.StatusTooManyRequests {
					errs <- fmt.Errorf("%s: status %d, want 200 or 429", r.path, code)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
