package core

import (
	"context"
	"testing"

	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/nlp"
)

// stubLinear returns a fixed verdict, counting calls.
type stubLinear struct {
	verdict LinearVerdict
	calls   int
}

func (s *stubLinear) Name() string { return "stub" }
func (s *stubLinear) Check(context.Context, []lp.Constraint, map[string]float64, map[string]float64, map[string]bool) LinearVerdict {
	s.calls++
	return s.verdict
}

// stubNonlinear returns a fixed verdict, counting calls.
type stubNonlinear struct {
	verdict NonlinearVerdict
	calls   int
}

func (s *stubNonlinear) Name() string { return "stub" }
func (s *stubNonlinear) Check(context.Context, []expr.Atom, expr.Box, expr.Env) NonlinearVerdict {
	s.calls++
	return s.verdict
}

// outOfRangeIIS wraps SimplexSolver and, on an infeasible check, answers
// the IIS {0, len(rows)}: one valid row and one index past the rows.
type outOfRangeIIS struct{ inner *SimplexSolver }

func (s outOfRangeIIS) Name() string { return "out-of-range-iis" }
func (s outOfRangeIIS) Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) LinearVerdict {
	v := s.inner.Check(ctx, rows, lower, upper, ints)
	if v.Status == lp.Infeasible {
		v.IIS = []int{0, len(rows)}
	}
	return v
}

// TestOutOfRangeIISBlocksWholeAssignment: an IIS index outside the rows
// must not be dropped from the conflict clause. Here a ≥ 0 and x ≤ 0 are
// units and (x ≥ 5 ∨ z ≥ 0) is sat through z; a conflict built from the
// in-range index alone would be ¬(a ≥ 0), refuting a unit, and the engine
// would answer unsat.
func TestOutOfRangeIISBlocksWholeAssignment(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.AddClause(3, 4)
	p.Bind(0, atomT(t, "a >= 0", expr.Real))
	p.Bind(1, atomT(t, "x <= 0", expr.Real))
	p.Bind(2, atomT(t, "x >= 5", expr.Real))
	p.Bind(3, atomT(t, "z >= 0", expr.Real))
	for _, linear := range []LinearSolver{NewSimplexSolver(), outOfRangeIIS{NewSimplexSolver()}} {
		cfg := Config{NoGroundLemmas: true, Linear: linear}
		if res := solveP(t, p, cfg); res.Status != StatusSat {
			t.Fatalf("%s: status = %v, want sat", linear.Name(), res.Status)
		}
	}
}

func TestLinearChainFallsThrough(t *testing.T) {
	weak := &stubLinear{verdict: LinearVerdict{Status: lp.IterLimit}}
	strong := &stubLinear{verdict: LinearVerdict{Status: lp.Feasible, X: map[string]float64{"x": 1}}}
	chain := NewLinearChain(weak, strong)
	v := chain.Check(context.Background(), nil, nil, nil, nil)
	if v.Status != lp.Feasible {
		t.Fatalf("status = %v", v.Status)
	}
	if weak.calls != 1 || strong.calls != 1 {
		t.Fatalf("calls: weak=%d strong=%d", weak.calls, strong.calls)
	}
}

func TestLinearChainStopsAtDecisive(t *testing.T) {
	first := &stubLinear{verdict: LinearVerdict{Status: lp.Infeasible, IIS: []int{0}}}
	second := &stubLinear{verdict: LinearVerdict{Status: lp.Feasible}}
	chain := NewLinearChain(first, second)
	v := chain.Check(context.Background(), nil, nil, nil, nil)
	if v.Status != lp.Infeasible {
		t.Fatalf("status = %v", v.Status)
	}
	if second.calls != 0 {
		t.Fatal("second solver should not be consulted after a decisive verdict")
	}
}

func TestNonlinearChainFallsThrough(t *testing.T) {
	unsure := &stubNonlinear{verdict: NonlinearVerdict{Status: nlp.Unknown}}
	sure := &stubNonlinear{verdict: NonlinearVerdict{Status: nlp.Infeasible}}
	chain := NewNonlinearChain(unsure, sure)
	v := chain.Check(context.Background(), nil, nil, nil)
	if v.Status != nlp.Infeasible {
		t.Fatalf("status = %v", v.Status)
	}
	if unsure.calls != 1 || sure.calls != 1 {
		t.Fatalf("calls: %d %d", unsure.calls, sure.calls)
	}
	// All-unknown chain reports unknown.
	chain2 := NewNonlinearChain(unsure, unsure)
	if v := chain2.Check(context.Background(), nil, nil, nil); v.Status != nlp.Unknown {
		t.Fatalf("status = %v", v.Status)
	}
}

func TestChainInsideEngine(t *testing.T) {
	// A chain whose first member always gives up must still let the engine
	// decide via the second member (the real simplex).
	p := NewProblem()
	p.AddClause(1)
	a, _ := expr.ParseAtom("x >= 5", expr.Real)
	p.Bind(0, a)
	weak := &stubLinear{verdict: LinearVerdict{Status: lp.IterLimit}}
	cfg := Config{Linear: NewLinearChain(weak, NewSimplexSolver())}
	res, err := NewEngine(p, cfg).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if weak.calls == 0 {
		t.Fatal("first chain member never consulted")
	}
	if chainName := cfg.Linear.Name(); chainName != "chain(stub,simplex)" {
		t.Fatalf("name = %q", chainName)
	}
}

func TestGenerateTestVectors(t *testing.T) {
	// (x ≥ 5) ∨ (x ≤ 4): two atom-decision profiles are theory-consistent
	// (TF, FT); TT is inconsistent and FF violates the clause.
	p := NewProblem()
	p.AddClause(1, 2)
	a1, _ := expr.ParseAtom("x >= 5", expr.Real)
	a2, _ := expr.ParseAtom("x <= 4", expr.Real)
	p.Bind(0, a1)
	p.Bind(1, a2)
	vecs, status, err := GenerateTestVectors(p, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusUnsat {
		t.Fatalf("final status = %v (space should be exhausted)", status)
	}
	if len(vecs) != 2 {
		t.Fatalf("vectors = %d, want 2", len(vecs))
	}
	seen := map[[2]bool]bool{}
	for _, tv := range vecs {
		prof := [2]bool{tv.Decisions[0], tv.Decisions[1]}
		if seen[prof] {
			t.Fatalf("duplicate profile %v", prof)
		}
		seen[prof] = true
		x := tv.Inputs["x"]
		if prof[0] && x < 5 {
			t.Fatalf("profile %v but x = %g", prof, x)
		}
		if prof[1] && x > 4 {
			t.Fatalf("profile %v but x = %g", prof, x)
		}
	}
	if seen[[2]bool{true, true}] {
		t.Fatal("inconsistent profile TT reported")
	}
}

func TestGenerateTestVectorsMax(t *testing.T) {
	p := NewProblem()
	p.AddClause(1, 2, 3)
	for i, src := range []string{"x >= 0", "x >= 1", "x >= 2"} {
		a, _ := expr.ParseAtom(src, expr.Real)
		p.Bind(i, a)
	}
	vecs, status, err := GenerateTestVectors(p, Config{}, 2)
	if err != nil || status != StatusSat {
		t.Fatalf("%v %v", status, err)
	}
	if len(vecs) != 2 {
		t.Fatalf("vectors = %d, want 2 (bounded)", len(vecs))
	}
}
