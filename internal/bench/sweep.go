package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"absolver/internal/cluster"
	"absolver/internal/core"
	"absolver/internal/fischer"
	"absolver/internal/server"
	"absolver/internal/server/api"
)

// ---------------------------------------------------------------------------
// The Fischer critical-section sweep (tables 6 and 9, not paper tables).
//
// The workload is the one the paper's applications actually generate: a
// sweep of near-identical reachability queries over one Fischer unrolling —
// "is process 1 in its critical section at step t?" for every t. Both
// tables measure it first with a fresh engine per query on the flattened
// problem, then through a second path over the same queries in the same
// order.

// Query is one query of the sweep: the unit clause Lit asserts that
// process 1 is in its critical section at step t (Name "cs@t").
type Query struct {
	Name string
	Lit  int
}

// CriticalSectionSweep generates FISCHER<nProc> and its sweep, one query
// per unrolling step.
func CriticalSectionSweep(nProc int) (*fischer.Instance, []Query, error) {
	in := fischer.Generate(fischer.Params{N: nProc})
	qs := make([]Query, 0, in.Params.Steps)
	for t := 1; t <= in.Params.Steps; t++ {
		v, ok := in.Var(fmt.Sprintf("loc/1/%d/cs", t))
		if !ok {
			return nil, nil, fmt.Errorf("bench: no cs variable for step %d", t)
		}
		qs = append(qs, Query{Name: fmt.Sprintf("cs@%d", t), Lit: v})
	}
	return in, qs, nil
}

// sweep measures the queries cold — a fresh engine per query on the
// flattened problem, labelled coldLabel — and then through solve, labelled
// label. A definitive-verdict disagreement between the two is an error.
func sweep(t Table, in *fischer.Instance, qs []Query, timeout time.Duration,
	coldLabel, label string, solve func(lit int) (core.Result, error)) (Table, error) {
	cold := make([]Cell, len(qs))
	for i, q := range qs {
		p := in.Problem.Clone()
		p.AddClause(q.Lit)
		c, _, err := solveCell(coldLabel, p, core.Config{Timeout: timeout})
		if err != nil {
			return t, fmt.Errorf("bench: %s: %w", q.Name, err)
		}
		cold[i] = c
	}
	for i, q := range qs {
		c, _, err := measure(label, func() (core.Result, error) { return solve(q.Lit) })
		if err != nil {
			return t, fmt.Errorf("bench: %s: %w", q.Name, err)
		}
		row := Row{Instance: q.Name, Cells: []Cell{cold[i], c}}
		if err := agree(row); err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// RunIncremental measures table 6, the incremental-session ablation, over
// FISCHER<nProc>: cold ("absolver-cold") against one warm core.Session
// ("absolver-session", one frame per query), so learned clauses and theory
// verdicts carry over. The theory-check totals are the work measure: the
// session path must pay measurably fewer LP/NLP invocations than N cold
// solves.
func RunIncremental(nProc int, timeout time.Duration) (Table, error) {
	t := Table{Number: 6, Title: "Incremental session ablation (Fischer critical-section sweep)"}
	in, qs, err := CriticalSectionSweep(nProc)
	if err != nil {
		return t, err
	}
	sess, err := core.NewSession(in.Problem, core.Config{Timeout: timeout})
	if err != nil {
		return t, err
	}
	return sweep(t, in, qs, timeout, "absolver-cold", "absolver-session", func(lit int) (core.Result, error) {
		return sess.SolveFrame(context.Background(), [][]int{{lit}}, nil)
	})
}

// RunCluster measures table 9, the cluster ablation, over FISCHER<nProc>:
// a single in-process engine ("absolver-single") against a
// cube-and-conquer coordinator fanning each query out to `peers` loopback
// worker absolverd instances ("absolver-cluster"). The cluster pays real
// protocol overhead (DIMACS serialisation, HTTP round-trips, cube
// derivation), so tiny queries are expected to lose; the reproduction
// target is that the distributed path stays sound and competitive on the
// harder rows.
func RunCluster(nProc, peers int, timeout time.Duration) (Table, error) {
	t := Table{Number: 9, Title: "Cluster ablation (Fischer critical-section sweep, cube-and-conquer)"}
	if peers < 1 {
		peers = 2
	}
	in, qs, err := CriticalSectionSweep(nProc)
	if err != nil {
		return t, err
	}
	urls := make([]string, peers)
	for i := range urls {
		w := server.New(server.Config{AllowExchange: true})
		w.Start()
		srv := httptest.NewServer(w.Handler())
		urls[i] = srv.URL
		defer func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = w.Shutdown(ctx)
		}()
	}
	co, err := cluster.New(cluster.Config{Peers: urls})
	if err != nil {
		return t, err
	}
	return sweep(t, in, qs, timeout, "absolver-single", "absolver-cluster", func(lit int) (core.Result, error) {
		p := in.Problem.Clone()
		p.AddClause(lit)
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel() // per query: the closure returns after this solve
		}
		out, err := co.Solve(ctx, p, api.SolveParams{}, nil)
		return out.Result, err
	})
}
