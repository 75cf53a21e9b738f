package server_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"absolver/internal/server"
	"absolver/internal/server/api"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden from the current handlers")

const wireFile = "testdata/wire.golden"

const thresholdMDL = `model thresh
block in inport
block lim constant 4
block cmp relop >=
block ok outport
line in -> cmp 1
line lim -> cmp 2
line cmp -> ok 1
`

// wireCase is one request of the wire pin.
type wireCase struct {
	name, method, target, body string
}

// batchBody renders a /v1/batch request body: the header line, then one
// line per instance.
func batchBody(t *testing.T, base string, instances ...api.BatchInstance) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	if err := enc.Encode(api.BatchRequest{Base: base}); err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances {
		if err := enc.Encode(inst); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// msField matches a phase time in a stats object; phase times are the only
// wall-clock values on the wire.
var msField = regexp.MustCompile(`("[a-z_]+_ms"):[-+0-9.eE]+`)

// recordStart splits the golden file into its records.
var recordStart = regexp.MustCompile(`(?m)^=== `)

// record serves one request through h and renders what the client sees:
// status, Content-Type, Retry-After and the body with phase times zeroed.
func record(h http.Handler, c wireCase) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
	res := rec.Result()
	return fmt.Sprintf("=== %s: %s %s\nstatus: %d\ncontent-type: %s\nretry-after: %s\n%s",
		c.name, c.method, c.target, res.StatusCode,
		res.Header.Get("Content-Type"), res.Header.Get("Retry-After"),
		msField.ReplaceAllString(rec.Body.String(), "$1:0"))
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// queueDepth scrapes absolverd_queue_depth through the handler.
func queueDepth(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "absolverd_queue_depth "); ok {
			return v
		}
	}
	return ""
}

// TestWirePin sends a fixed request set through Handler() and compares
// every response — status, Content-Type, Retry-After and body, with the
// *_ms phase times zeroed — against testdata/wire.golden. It covers
// /v1/solve (plain and streamed, DIMACS and SMT-LIB, sat, unsat and
// unknown by timeout), /v1/batch, /v1/check, every pre-admission
// rejection, 429 from a full queue and 503 while draining.
//
// The goldens are amd64 values: models carry floats, and other
// architectures may fuse multiply-adds and so take different paths.
func TestWirePin(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateWire {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	var got []string

	// The real engine, one worker, so every run is in request order.
	engine := startServer(t, server.Config{
		Workers: 1, QueueDepth: 2, MaxBodyBytes: 1 << 12, MaxPortfolio: 2,
		MaxBatchInstances: 4, MaxCheckDepth: 10,
	}).Handler()
	big := strings.Repeat("c padding padding padding\n", 200)
	items := batchBody(t, satDIMACS,
		api.BatchInstance{ID: "good"},
		api.BatchInstance{ID: "bad-literal", Clauses: [][]int{{0}}},
		api.BatchInstance{ID: "bad-assume", Assume: []int{99}},
		api.BatchInstance{ID: "contradicted", Clauses: [][]int{{-1}, {-2}}},
	)
	for _, c := range []wireCase{
		{"solve/sat-dimacs", "POST", "/v1/solve", satDIMACS},
		{"solve/sat-dimacs-cached", "POST", "/v1/solve", satDIMACS},
		{"solve/unsat-dimacs", "POST", "/v1/solve", unsatDIMACS},
		{"solve/sat-smtlib", "POST", "/v1/solve?format=smtlib", satSMTLIB},
		{"solve/unsat-smtlib", "POST", "/v1/solve?format=smtlib&no_cache=true", unsatSMTLIB},
		{"solve/stream-sat", "POST", "/v1/solve?stream=1", satDIMACS},
		{"solve/stream-unsat-trace", "POST", "/v1/solve?stream=1&no_lemmas=1", unsatDIMACS},
		{"solve/stream-smtlib", "POST", "/v1/solve?stream=1&format=smtlib", unsatSMTLIB},
		{"solve/bad-portfolio", "POST", "/v1/solve?portfolio=x", satDIMACS},
		{"solve/bad-format", "POST", "/v1/solve?format=tptp", satDIMACS},
		{"solve/bad-timeout", "POST", "/v1/solve?timeout=soon", satDIMACS},
		{"solve/portfolio-over-max", "POST", "/v1/solve?portfolio=3", satDIMACS},
		{"solve/exchange-not-worker", "POST", "/v1/solve?exchange_url=http://127.0.0.1:1", satDIMACS},
		{"solve/bad-dimacs", "POST", "/v1/solve", "\x00\x01 not dimacs at all"},
		{"solve/bad-smtlib", "POST", "/v1/solve?format=smtlib", "(benchmark"},
		{"solve/too-large", "POST", "/v1/solve", satDIMACS + big},
		{"solve/get", "GET", "/v1/solve", ""},

		{"batch/items", "POST", "/v1/batch", items},
		{"batch/smtlib", "POST", "/v1/batch?format=smtlib", batchBody(t, satSMTLIB, api.BatchInstance{ID: "one"})},
		{"batch/empty", "POST", "/v1/batch", ""},
		{"batch/bad-header", "POST", "/v1/batch", "not json\n"},
		{"batch/bad-base", "POST", "/v1/batch", `{"base":"p cnf oops"}` + "\n"},
		{"batch/bad-instance", "POST", "/v1/batch", `{"base":"p cnf 1 1\n1 0\n"}` + "\nnot json\n"},
		{"batch/too-many", "POST", "/v1/batch", batchBody(t, satDIMACS, make([]api.BatchInstance, 5)...)},
		{"batch/portfolio", "POST", "/v1/batch?portfolio=2", batchBody(t, satDIMACS, api.BatchInstance{})},
		{"batch/restart", "POST", "/v1/batch?restart=1", batchBody(t, satDIMACS, api.BatchInstance{})},
		{"batch/bad-params", "POST", "/v1/batch?timeout=soon", batchBody(t, satDIMACS, api.BatchInstance{})},
		{"batch/too-large", "POST", "/v1/batch", batchBody(t, satDIMACS, api.BatchInstance{}) + strings.Repeat("\n", 5000)},
		{"batch/too-large-line", "POST", "/v1/batch", batchBody(t, satDIMACS+big, api.BatchInstance{})},
		{"batch/get", "GET", "/v1/batch", ""},

		{"check/falsified", "POST", "/v1/check?k=6", counterLus},
		{"check/proved", "POST", "/v1/check?k=8&property=ok", sat3Lus},
		{"check/bound-reached", "POST", "/v1/check?k=2&no_induction=1", counterLus},
		{"check/simulink", "POST", "/v1/check?format=simulink&k=2", thresholdMDL},
		{"check/k-over-max", "POST", "/v1/check?k=11", counterLus},
		{"check/negative-k", "POST", "/v1/check?k=-1", counterLus},
		{"check/bad-format", "POST", "/v1/check?format=midi", counterLus},
		{"check/bad-program", "POST", "/v1/check", "node garbage"},
		{"check/bad-simulink", "POST", "/v1/check?format=simulink", "block without model"},
		{"check/too-large", "POST", "/v1/check", counterLus + strings.Repeat("-- padding\n", 400)},
		{"check/get", "GET", "/v1/check", ""},
	} {
		got = append(got, record(engine, c))
	}

	// Unknown by timeout: the deadline expires during the solve delay, so
	// the engine starts on an expired context.
	slow := startServer(t, server.Config{Workers: 1, QueueDepth: 1, SolveDelay: time.Minute}).Handler()
	for _, c := range []wireCase{
		{"timeout/solve", "POST", "/v1/solve?timeout=1ms", satDIMACS},
		{"timeout/solve-stream", "POST", "/v1/solve?timeout=1ms&stream=1", satDIMACS},
	} {
		got = append(got, record(slow, c))
	}

	// 429: one gated solve on the worker, one in the queue, then every
	// endpoint is bounced.
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	gatedSrv := startServer(t, server.Config{Workers: 1, QueueDepth: 1, SolveFunc: gatedSolve(started, release)})
	gated := gatedSrv.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			record(gated, wireCase{"gated", "POST", "/v1/solve?timeout=1m", satDIMACS})
		}()
		if i == 0 {
			<-started
		}
	}
	waitFor(t, "queue to fill", func() bool { return queueDepth(gated) == "1" })
	for _, c := range []wireCase{
		{"full/solve", "POST", "/v1/solve", unsatDIMACS},
		{"full/solve-stream", "POST", "/v1/solve?stream=1", unsatDIMACS},
		{"full/batch", "POST", "/v1/batch", batchBody(t, satDIMACS, api.BatchInstance{})},
		{"full/check", "POST", "/v1/check?k=1", counterLus},
	} {
		got = append(got, record(gated, c))
	}
	close(release)
	wg.Wait()

	// 503: a drained server refuses every endpoint.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gatedSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, c := range []wireCase{
		{"draining/solve", "POST", "/v1/solve", unsatDIMACS},
		{"draining/solve-stream", "POST", "/v1/solve?stream=1", unsatDIMACS},
		{"draining/batch", "POST", "/v1/batch", batchBody(t, satDIMACS, api.BatchInstance{})},
		{"draining/check", "POST", "/v1/check?k=1", counterLus},
	} {
		got = append(got, record(gated, c))
	}

	if *updateWire {
		if err := os.WriteFile(wireFile, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireFile)
	if err != nil {
		t.Fatal(err)
	}
	want := recordStart.Split(string(raw), -1)[1:]
	if len(want) != len(got) {
		t.Fatalf("%d responses, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		if h := strings.TrimPrefix(got[i], "=== "); h != w {
			t.Errorf("response drifted:\n got  %q\n want %q", h, w)
		}
	}
}
