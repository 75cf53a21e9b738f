package core

import (
	"context"
	"testing"

	"absolver/internal/expr"
)

// sessionBase builds the shared base problem of the session tests:
// (x ≥ 5 ∨ x ≤ 2) with both atoms bound.
func sessionBase(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem()
	p.AddClause(1, 2)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	p.Bind(1, atomT(t, "x <= 2", expr.Real))
	return p
}

func TestSessionPushPopVerdicts(t *testing.T) {
	s, err := NewSession(sessionBase(t), Config{CheckModels: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("base solve: %v %v", res.Status, err)
	}

	// Frame 1: force the x ≥ 5 branch and contradict it.
	s.Push()
	if _, err := s.Assert(atomT(t, "x <= 4", expr.Real)); err != nil {
		t.Fatal(err)
	}
	if err := s.AssertClause(1); err != nil { // assert x ≥ 5 too
		t.Fatal(err)
	}
	res, err = s.Solve(ctx)
	if err != nil || res.Status != StatusUnsat {
		t.Fatalf("frame 1 solve: %v %v", res.Status, err)
	}

	// Retract: the base problem must be satisfiable again.
	if err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("post-pop solve: %v %v", res.Status, err)
	}

	// Frame 2: a satisfiable refinement, certified.
	s.Push()
	if _, err := s.Assert(atomT(t, "x >= 6", expr.Real)); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("frame 2 solve: %v %v", res.Status, err)
	}
	if x := res.Model.Real["x"]; x < 6-1e-6 {
		t.Fatalf("frame 2 witness x = %g, want ≥ 6", x)
	}
	if err := CertifyModel(s.Problem(), *res.Model); err != nil {
		t.Fatalf("frame 2 model certificate: %v", err)
	}
	if err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d after balanced push/pop", s.Depth())
	}
	if err := s.Pop(); err == nil {
		t.Fatal("Pop at depth 0 succeeded")
	}
}

func TestSessionPerCallDeltaStats(t *testing.T) {
	s, err := NewSession(sessionBase(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Per-call attribution: each result reports exactly its own call,
		// so merging result stats across calls counts every call once.
		if res.Stats.SessionSolves != 1 {
			t.Fatalf("call %d: SessionSolves = %d, want 1", i, res.Stats.SessionSolves)
		}
		if res.Stats.Iterations < 1 {
			t.Fatalf("call %d: empty per-call delta: %+v", i, res.Stats)
		}
	}
	if got := s.Stats().SessionSolves; got != 3 {
		t.Fatalf("cumulative SessionSolves = %d, want 3", got)
	}
}

func TestSessionSolveUnderAssumptions(t *testing.T) {
	s, err := NewSession(sessionBase(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Assuming both branch atoms is theory-inconsistent: x ≥ 5 ∧ x ≤ 2.
	res, err := s.SolveUnderAssumptions(ctx, []int{1, 2})
	if err != nil || res.Status != StatusUnsat {
		t.Fatalf("assume both: %v %v", res.Status, err)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 || len(failed) > 2 {
		t.Fatalf("failure core = %v, want non-empty subset of the assumptions", failed)
	}
	for _, l := range failed {
		if l != 1 && l != 2 {
			t.Fatalf("failure core %v contains non-assumption literal %d", failed, l)
		}
	}

	// Each branch alone is satisfiable, and assumptions left no trace.
	for _, lit := range []int{1, 2} {
		res, err := s.SolveUnderAssumptions(ctx, []int{lit})
		if err != nil || res.Status != StatusSat {
			t.Fatalf("assume %d: %v %v", lit, res.Status, err)
		}
		if !res.Model.Bool[lit-1] {
			t.Fatalf("assume %d: literal not honoured in model", lit)
		}
	}
	res, err = s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("plain solve after assumptions: %v %v", res.Status, err)
	}

	if _, err := s.SolveUnderAssumptions(ctx, []int{0}); err == nil {
		t.Fatal("zero assumption literal accepted")
	}
	if _, err := s.SolveUnderAssumptions(ctx, []int{99}); err == nil {
		t.Fatal("out-of-range assumption accepted")
	}
}

func TestSessionAllModelsRetracts(t *testing.T) {
	// Pure Boolean: (a ∨ b) has 3 models over {a, b}.
	p := NewProblem()
	p.AddClause(1, 2)
	s, err := NewSession(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		count, status, err := s.AllModels(ctx, nil, 0, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if count != 3 || status != StatusUnsat {
			t.Fatalf("round %d: %d models (%v), want 3 exhausted", round, count, status)
		}
	}
	// The enumeration's blocking clauses were retracted with its frame.
	res, err := s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("solve after enumeration: %v %v", res.Status, err)
	}
}

func TestSessionTheoryReusePaysOff(t *testing.T) {
	// The same assumption solved twice: the second call must be answered
	// from persistent state (theory-verdict cache or learned clauses)
	// with no new linear checks.
	s, err := NewSession(sessionBase(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := s.SolveUnderAssumptions(ctx, []int{1})
	if err != nil || first.Status != StatusSat {
		t.Fatalf("first: %v %v", first.Status, err)
	}
	second, err := s.SolveUnderAssumptions(ctx, []int{1})
	if err != nil || second.Status != StatusSat {
		t.Fatalf("second: %v %v", second.Status, err)
	}
	if second.Stats.LinearChecks >= first.Stats.LinearChecks+1 &&
		second.Stats.TheoryCacheHits == 0 {
		t.Fatalf("no reuse: first %+v second %+v", first.Stats, second.Stats)
	}
}

func TestSessionPoppedLossyBlockForgotten(t *testing.T) {
	// sin(x) = 2 is unsatisfiable but only lossily refutable; asserted in
	// a frame it degrades unsat to unknown, and popping the frame must
	// restore definitive verdicts.
	s, err := NewSession(sessionBase(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s.Push()
	if _, err := s.Assert(atomT(t, "sin(x) >= 2", expr.Real)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusSat {
		t.Fatalf("sin(x) ≥ 2 reported sat")
	}
	if err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("post-pop: %v %v (lossy state leaked across Pop)", res.Status, err)
	}
}

func TestSessionConfigRejections(t *testing.T) {
	if _, err := NewSession(sessionBase(t), Config{RestartBoolean: true}); err == nil {
		t.Fatal("RestartBoolean session accepted")
	}
	if _, err := NewSession(sessionBase(t), Config{Bool: NewExternalCDCLSolver()}); err == nil {
		t.Fatal("non-assuming Boolean solver accepted")
	}
}

func TestSessionGroundLemmasIncremental(t *testing.T) {
	// Assert introduces x ≤ 4, which is exclusive with the base's x ≥ 5:
	// the incremental grounding pass must derive the pair lemma so the
	// Boolean solver never proposes the dead branch.
	s, err := NewSession(sessionBase(t), Config{RecordLemmas: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	s.Push()
	v, err := s.Assert(atomT(t, "x <= 4", expr.Real))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lem := range s.Lemmas() {
		if lem.Kind != LemmaGround || len(lem.Clause) != 2 {
			continue
		}
		if (lem.Clause[0] == -1 && lem.Clause[1] == -v) || (lem.Clause[0] == -v && lem.Clause[1] == -1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exclusion lemma between base atom 1 and asserted %d in %v", v, s.Lemmas())
	}
	res, err := s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("x ≤ 4 frame: %v %v", res.Status, err)
	}
	if res.Model.Bool[0] {
		t.Fatal("model asserts x ≥ 5 alongside x ≤ 4")
	}
}

func TestGroundLemmasForMatchesBatchPass(t *testing.T) {
	// The incremental pass over the last-bound variable must reproduce
	// exactly the batch lemmas that mention it.
	p := NewProblem()
	p.AddClause(1, 2, 3)
	p.Bind(0, atomT(t, "y > 3", expr.Real))
	p.Bind(1, atomT(t, "y >= 3", expr.Real))
	p.Bind(2, atomT(t, "y < 1", expr.Real))
	batch := GroundPairLemmas(p)
	var want [][]int
	for _, cl := range batch {
		for _, l := range cl {
			if l == 3 || l == -3 {
				want = append(want, cl)
				break
			}
		}
	}
	got := GroundLemmasFor(p, 2)
	if len(got) != len(want) {
		t.Fatalf("GroundLemmasFor = %v, batch lemmas touching v3 = %v", got, want)
	}
	seen := map[string]bool{}
	for _, cl := range got {
		seen[litSetKey(cl)] = true
	}
	for _, cl := range want {
		if !seen[litSetKey(cl)] {
			t.Fatalf("batch lemma %v missing from incremental pass %v", cl, got)
		}
	}
}

func TestSessionBindAndNewVar(t *testing.T) {
	s, err := NewSession(NewProblem(), Config{CheckModels: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// g guards between two bound-but-unasserted atoms.
	g := s.NewVar()
	lo, err := s.Bind(atomT(t, "x <= 1", expr.Real))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.Bind(atomT(t, "x >= 5", expr.Real))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AssertClause(-g, hi); err != nil { // g → x ≥ 5
		t.Fatal(err)
	}
	if err := s.AssertClause(g, lo); err != nil { // ¬g → x ≤ 1
		t.Fatal(err)
	}

	res, err := s.SolveUnderAssumptions(ctx, []int{g, hi})
	if err != nil || res.Status != StatusSat {
		t.Fatalf("g & hi: %v %v", res.Status, err)
	}
	if v := res.Model.Real["x"]; v < 5 {
		t.Fatalf("x = %g, want ≥ 5", v)
	}
	// Both branches at once contradict each other.
	res, err = s.SolveUnderAssumptions(ctx, []int{lo, hi})
	if err != nil || res.Status != StatusUnsat {
		t.Fatalf("lo & hi: %v %v", res.Status, err)
	}
	// Nothing was asserted permanently: the session stays satisfiable.
	res, err = s.Solve(ctx)
	if err != nil || res.Status != StatusSat {
		t.Fatalf("unasserted binds leaked: %v %v", res.Status, err)
	}
}

func TestSessionSetBounds(t *testing.T) {
	s, err := NewSession(NewProblem(), Config{CheckModels: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := s.SetBounds("x", 0, 10); err != nil {
		t.Fatal(err)
	}
	lit, err := s.Bind(atomT(t, "x >= 5", expr.Real))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveUnderAssumptions(ctx, []int{lit})
	if err != nil || res.Status != StatusSat {
		t.Fatalf("x in [0,10] with x ≥ 5: %v %v", res.Status, err)
	}
	if v := res.Model.Real["x"]; v < 5 || v > 10 {
		t.Fatalf("x = %g outside [5,10]", v)
	}

	// Narrowing must invalidate the cached sat verdict: the same assumption
	// is now infeasible.
	if err := s.SetBounds("x", 0, 3); err != nil {
		t.Fatal(err)
	}
	res, err = s.SolveUnderAssumptions(ctx, []int{lit})
	if err != nil || res.Status != StatusUnsat {
		t.Fatalf("x in [0,3] with x ≥ 5: %v %v", res.Status, err)
	}
	res, err = s.SolveUnderAssumptions(ctx, []int{-lit})
	if err != nil || res.Status != StatusSat {
		t.Fatalf("x in [0,3] with ¬(x ≥ 5): %v %v", res.Status, err)
	}

	// Widening is rejected: conflict clauses learned under the narrow
	// bounds would be stale.
	if err := s.SetBounds("x", 0, 20); err == nil {
		t.Fatal("SetBounds widened without error")
	}
}

// TestSessionSolveFrameAfterAssertFailure: a frame whose clause list fails
// to assert is popped anyway, so the depth is back to 0, the clauses
// asserted before the failure are retracted, and the next frame solves
// normally.
func TestSessionSolveFrameAfterAssertFailure(t *testing.T) {
	s, err := NewSession(sessionBase(t), Config{CheckModels: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// ¬(x ≥ 5) and ¬(x ≤ 2) contradict the base clause; the empty clause
	// then fails to assert.
	if _, err := s.SolveFrame(ctx, [][]int{{-1}, {-2}, {}}, nil); err == nil {
		t.Fatal("SolveFrame with an empty clause: nil error")
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth after a failed frame = %d, want 0", d)
	}
	res, err := s.SolveFrame(ctx, nil, []int{1})
	if err != nil || res.Status != StatusSat {
		t.Fatalf("frame after the failure: %v %v, want sat", res.Status, err)
	}
	res, err = s.SolveFrame(ctx, [][]int{{-1}, {-2}}, nil)
	if err != nil || res.Status != StatusUnsat {
		t.Fatalf("contradicting frame: %v %v, want unsat", res.Status, err)
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth after a solved frame = %d, want 0", d)
	}
}
