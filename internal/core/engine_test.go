package core

import (
	"context"
	"math"
	"testing"
	"time"

	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/nlp"
)

func atomT(t *testing.T, src string, dom expr.Domain) expr.Atom {
	t.Helper()
	a, err := expr.ParseAtom(src, dom)
	if err != nil {
		t.Fatalf("ParseAtom(%q): %v", src, err)
	}
	return a
}

func solveP(t *testing.T, p *Problem, cfg Config) Result {
	t.Helper()
	res, err := NewEngine(p, cfg).Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func requireSat(t *testing.T, p *Problem, cfg Config) *Model {
	t.Helper()
	res := solveP(t, p, cfg)
	if res.Status != StatusSat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	if err := p.Check(*res.Model); err != nil {
		t.Fatalf("model check: %v", err)
	}
	return res.Model
}

func TestPureBooleanSat(t *testing.T) {
	p := NewProblem()
	p.AddClause(1, 2)
	p.AddClause(-1, 2)
	m := requireSat(t, p, Config{})
	if !m.Bool[1] {
		t.Fatal("var 2 must be true")
	}
}

func TestPureBooleanUnsat(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(-1)
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
}

// TestPaperFig2 solves the exact problem of Fig. 2:
//
//	p cnf 4 3
//	1 0 / -2 3 0 / 4 0
//	c def int 1 i >= 0 ; c def int 1 j >= 0  (paper binds two atoms to var 1
//	via conjunction; we model them as var 1 = i≥0 ∧ j≥0 through the clause
//	structure: here we bind separate vars and add unit clauses, preserving
//	the same AB problem)
func TestPaperFig2(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(-2, 3)
	p.AddClause(4)
	p.AddClause(5) // companion of var 1's second def (j >= 0)
	p.Bind(0, atomT(t, "i >= 0", expr.Int))
	p.Bind(4, atomT(t, "j >= 0", expr.Int))
	p.Bind(1, atomT(t, "2*i + j < 10", expr.Int))
	p.Bind(2, atomT(t, "i + j < 5", expr.Int))
	p.Bind(3, atomT(t, "a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1", expr.Real))
	p.SetBounds("a", -10, 10)
	p.SetBounds("x", -10, 10)
	p.SetBounds("y", -10, 3.9)
	p.SetBounds("i", -100, 100)
	p.SetBounds("j", -100, 100)
	m := requireSat(t, p, Config{})
	if m.Real["i"] < -1e-9 || m.Real["j"] < -1e-9 {
		t.Fatalf("i,j must be nonnegative: %v", m.Real)
	}
}

func TestLinearConflictLoop(t *testing.T) {
	// Var 1 ⇔ x ≥ 5, var 2 ⇔ x ≤ 4; clause structure forces both true →
	// theory conflict → UNSAT after refinement.
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	p.Bind(1, atomT(t, "x <= 4", expr.Real))
	// Grounding would discharge this pair at the Boolean level; disable it
	// to exercise the SAT↔theory conflict loop itself.
	res := solveP(t, p, Config{NoGroundLemmas: true})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Stats.ConflictClauses == 0 {
		t.Fatal("expected at least one conflict clause")
	}
}

func TestGroundLemmasShortCircuit(t *testing.T) {
	// With grounding on, the same conflict dies inside the SAT solver:
	// no theory check is ever needed.
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	p.Bind(1, atomT(t, "x <= 4", expr.Real))
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Stats.LinearChecks != 0 {
		t.Fatalf("grounding should avoid theory checks, did %d", res.Stats.LinearChecks)
	}
}

func TestGroundLemmasBoundsUnit(t *testing.T) {
	// x ≥ 100 with x ∈ [0,1] grounds to a unit clause ¬v → instant UNSAT.
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x >= 100", expr.Real))
	p.SetBounds("x", 0, 1)
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Stats.LinearChecks != 0 {
		t.Fatalf("bounds lemma should avoid theory checks, did %d", res.Stats.LinearChecks)
	}
}

func TestLinearChoiceViaBoolean(t *testing.T) {
	// (x ≥ 5 ∨ x ≤ 4): SAT either way; the solver must pick a consistent
	// combination.
	p := NewProblem()
	p.AddClause(1, 2)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	p.Bind(1, atomT(t, "x <= 4", expr.Real))
	requireSat(t, p, Config{})
}

func TestNegatedAtomSemantics(t *testing.T) {
	// Clause (-1): atom must be falsified, i.e. x < 5 must hold.
	p := NewProblem()
	p.AddClause(-1)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	m := requireSat(t, p, Config{})
	if m.Real["x"] >= 5 {
		t.Fatalf("x = %g should be < 5", m.Real["x"])
	}
	if m.Bool[0] {
		t.Fatal("var 1 must be false")
	}
}

func TestNegatedEqualitySplit(t *testing.T) {
	// ¬(x = 3) with 2.5 ≤ x ≤ 3.5 — the split "either < or >" must find a
	// witness off the point.
	p := NewProblem()
	p.AddClause(-1)
	p.AddClause(2)
	p.AddClause(3)
	p.Bind(0, atomT(t, "x = 3", expr.Real))
	p.Bind(1, atomT(t, "x >= 2.5", expr.Real))
	p.Bind(2, atomT(t, "x <= 3.5", expr.Real))
	m := requireSat(t, p, Config{})
	if m.Real["x"] == 3 {
		t.Fatalf("x = 3 violates the disequality")
	}
}

func TestNegatedEqualityUnsat(t *testing.T) {
	// x ≥ 3 ∧ x ≤ 3 ∧ x ≠ 3 is unsatisfiable.
	p := NewProblem()
	p.AddClause(-1)
	p.AddClause(2)
	p.AddClause(3)
	p.Bind(0, atomT(t, "x = 3", expr.Real))
	p.Bind(1, atomT(t, "x >= 3", expr.Real))
	p.Bind(2, atomT(t, "x <= 3", expr.Real))
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestIntegerStrictTightening(t *testing.T) {
	// Integers: 2 < i < 4 forces i = 3.
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "i > 2", expr.Int))
	p.Bind(1, atomT(t, "i < 4", expr.Int))
	p.SetBounds("i", -100, 100)
	m := requireSat(t, p, Config{})
	if m.Real["i"] != 3 {
		t.Fatalf("i = %g, want 3", m.Real["i"])
	}
}

func TestIntegerInfeasibleGap(t *testing.T) {
	// Integers: 2 < i < 3 has no integer solution.
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "i > 2", expr.Int))
	p.Bind(1, atomT(t, "i < 3", expr.Int))
	p.SetBounds("i", -100, 100)
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
}

// TestIntegerSubToleranceFraction: the relaxation puts n at 1.0000000005,
// whose snapped point n = 1 breaks 1000n − y = 0. Branch-and-bound must
// branch on n rather than abandon the node; n = 2, y = 2000 is a model.
func TestIntegerSubToleranceFraction(t *testing.T) {
	for _, cfg := range []Config{{}, {NoGroundLemmas: true}, {CheckModels: true}} {
		p := NewProblem()
		p.AddClause(1)
		p.AddClause(2)
		p.AddClause(3)
		p.Bind(0, atomT(t, "n >= 0", expr.Int))
		p.Bind(1, atomT(t, "1000*n - y = 0", expr.Real))
		p.Bind(2, atomT(t, "y >= 1000.0000005", expr.Real))
		p.SetBounds("n", 0, 10)
		if m := requireSat(t, p, cfg); m.Real["n"] != math.Round(m.Real["n"]) {
			t.Fatalf("%+v: n = %g is not integral", cfg, m.Real["n"])
		}
	}
}

func TestNonlinearSat(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x * x = 4", expr.Real))
	p.SetBounds("x", 0, 10)
	m := requireSat(t, p, Config{})
	if d := m.Real["x"] - 2; d > 1e-4 || d < -1e-4 {
		t.Fatalf("x = %g, want 2", m.Real["x"])
	}
}

func TestNonlinearUnsat(t *testing.T) {
	// The paper's nonlinear_unsat shape: x² < 0 forced true.
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x * x < 0", expr.Real))
	p.SetBounds("x", -1000, 1000)
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestNonlinearConflictDrivesBoolean(t *testing.T) {
	// (x² < 0 ∨ x ≥ 1): the nonlinear refutation must push the Boolean
	// search to the second disjunct.
	p := NewProblem()
	p.AddClause(1, 2)
	p.Bind(0, atomT(t, "x * x < 0", expr.Real))
	p.Bind(1, atomT(t, "x >= 1", expr.Real))
	p.SetBounds("x", -1000, 1000)
	m := requireSat(t, p, Config{})
	if !m.Bool[1] {
		t.Fatal("second disjunct must be chosen")
	}
}

func TestMixedLinearNonlinear(t *testing.T) {
	// x + y = 7 (linear) ∧ x·y = 12 (nonlinear) → {3,4}.
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "x + y = 7", expr.Real))
	p.Bind(1, atomT(t, "x * y = 12", expr.Real))
	p.SetBounds("x", 0, 10)
	p.SetBounds("y", 0, 10)
	m := requireSat(t, p, Config{})
	prod := m.Real["x"] * m.Real["y"]
	if prod < 12-1e-3 || prod > 12+1e-3 {
		t.Fatalf("x·y = %g, want 12", prod)
	}
}

func TestDivisionOperator(t *testing.T) {
	// The paper's div_operator benchmark shape.
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "1 / x >= 2", expr.Real))
	p.SetBounds("x", 0.001, 100)
	m := requireSat(t, p, Config{})
	if m.Real["x"] > 0.5+1e-6 {
		t.Fatalf("x = %g, want ≤ 0.5", m.Real["x"])
	}
}

func TestBoundsAreBackground(t *testing.T) {
	// Bounds alone make the single atom unsatisfiable; the engine must
	// conclude UNSAT (not loop).
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x >= 100", expr.Real))
	p.SetBounds("x", 0, 1)
	res := solveP(t, p, Config{})
	if res.Status != StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestIISRefinementFewerIterations(t *testing.T) {
	// Chain of independent choices with one infeasible pair: IIS blocks
	// the pair directly; NoIIS must enumerate combinations.
	build := func() *Problem {
		p := NewProblem()
		// Free choice vars 3..8 (both polarities fine), conflicting pair 1,2.
		p.AddClause(1)
		p.AddClause(2)
		for v := 3; v <= 8; v++ {
			p.AddClause(v, -v)
		}
		p.Bind(0, atomT(t, "x >= 5", expr.Real))
		p.Bind(1, atomT(t, "x <= 4", expr.Real))
		for v := 3; v <= 8; v++ {
			p.Bind(v-1, atomT(t, "y"+string(rune('0'+v))+" >= 0", expr.Real))
		}
		return p
	}
	resIIS := solveP(t, build(), Config{})
	resNo := solveP(t, build(), Config{NoIIS: true})
	if resIIS.Status != StatusUnsat || resNo.Status != StatusUnsat {
		t.Fatalf("both must be unsat: %v %v", resIIS.Status, resNo.Status)
	}
	if resIIS.Stats.Iterations > resNo.Stats.Iterations {
		t.Fatalf("IIS iterations %d > NoIIS %d", resIIS.Stats.Iterations, resNo.Stats.Iterations)
	}
}

func TestRestartModeSameVerdicts(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		p.AddClause(1, 2)
		p.AddClause(-1, 3)
		p.Bind(0, atomT(t, "x >= 5", expr.Real))
		p.Bind(1, atomT(t, "x <= 4", expr.Real))
		p.Bind(2, atomT(t, "x <= 100", expr.Real))
		return p
	}
	a := solveP(t, build(), Config{})
	b := solveP(t, build(), Config{RestartBoolean: true})
	if a.Status != b.Status {
		t.Fatalf("incremental %v vs restart %v", a.Status, b.Status)
	}
	if a.Status != StatusSat {
		t.Fatalf("should be sat, got %v", a.Status)
	}
}

func TestAllModelsPureBoolean(t *testing.T) {
	// (1 ∨ 2): three models over {1,2}.
	p := NewProblem()
	p.AddClause(1, 2)
	e := NewEngine(p, Config{})
	n, status, err := e.AllModels(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("models = %d, want 3", n)
	}
	if status != StatusUnsat {
		t.Fatalf("final status = %v", status)
	}
}

func TestAllModelsTheoryFiltered(t *testing.T) {
	// Vars 1 ⇔ x ≥ 5, 2 ⇔ x ≤ 4. Boolean models: all 4 minus those blocked
	// by theory: (1∧2) inconsistent → 3 AB-models.
	p := NewProblem()
	p.AddClause(1, 2, -1) // tautology to register vars
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	p.Bind(1, atomT(t, "x <= 4", expr.Real))
	p.NumVars = 2
	e := NewEngine(p, Config{})
	var models []Model
	n, _, err := e.AllModels(nil, 0, func(m Model) error {
		models = append(models, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("models = %d, want 3 (TT blocked by theory)", n)
	}
	for _, m := range models {
		if m.Bool[0] && m.Bool[1] {
			t.Fatal("inconsistent model reported")
		}
		if err := p.Check(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllModelsProjection(t *testing.T) {
	// Projecting on var 1 only: two models regardless of var 2.
	p := NewProblem()
	p.AddClause(1, 2, -2)
	p.NumVars = 2
	e := NewEngine(p, Config{})
	n, _, err := e.AllModels([]int{1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("projected models = %d, want 2", n)
	}
}

func TestAllModelsMax(t *testing.T) {
	p := NewProblem()
	p.AddClause(1, 2, 3, -1)
	p.NumVars = 3
	e := NewEngine(p, Config{})
	n, status, err := e.AllModels(nil, 2, nil)
	if err != nil || n != 2 || status != StatusSat {
		t.Fatalf("n=%d status=%v err=%v", n, status, err)
	}
}

func TestCountsTable1Shape(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "x >= 0", expr.Real))
	p.Bind(1, atomT(t, "x * x <= 9", expr.Real))
	cl, bv, lin, nl := p.Counts()
	if cl != 2 || bv != 2 || lin != 1 || nl != 1 {
		t.Fatalf("counts = %d %d %d %d", cl, bv, lin, nl)
	}
}

func TestValidate(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.Clauses = append(p.Clauses, []int{}) // empty clause
	if err := p.Validate(); err == nil {
		t.Fatal("empty clause must fail validation")
	}
	p2 := NewProblem()
	p2.Clauses = [][]int{{3}}
	p2.NumVars = 1
	if err := p2.Validate(); err == nil {
		t.Fatal("out-of-range literal must fail validation")
	}
}

func TestModelCheckRejectsBadModel(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	bad := Model{Bool: []bool{true}, Real: expr.Env{"x": 0}}
	if err := p.Check(bad); err == nil {
		t.Fatal("inconsistent model accepted")
	}
	good := Model{Bool: []bool{true}, Real: expr.Env{"x": 6}}
	if err := p.Check(good); err != nil {
		t.Fatal(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "x >= 5", expr.Real))
	p.Bind(1, atomT(t, "x <= 4", expr.Real))
	res := solveP(t, p, Config{NoGroundLemmas: true})
	if res.Stats.Iterations == 0 || res.Stats.LinearChecks == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestManyDisjointChoices(t *testing.T) {
	// 10 independent (xi ≥ i ∨ xi ≤ i−1) choices, all satisfiable.
	p := NewProblem()
	for i := 1; i <= 10; i++ {
		p.AddClause(2*i-1, 2*i)
		lo := atomT(t, "x"+string(rune('a'+i-1))+" >= 1", expr.Real)
		hi := atomT(t, "x"+string(rune('a'+i-1))+" <= 0", expr.Real)
		p.Bind(2*i-2, lo)
		p.Bind(2*i-1, hi)
	}
	requireSat(t, p, Config{})
}

// TestStatsCounters pins the exporter contract: a fixed, stable key set
// whose values track the corresponding Stats fields, Merge-compatible.
func TestStatsCounters(t *testing.T) {
	keys := []string{
		"iterations", "linear_checks", "nonlinear_checks", "conflict_clauses",
		"lossy_blocks", "ne_splits", "lemmas_published", "lemmas_imported",
		"lemmas_deduped", "theory_cache_hits", "theory_cache_misses",
		"session_solves", "clauses_subsumed", "probed_literals",
		"arena_compactions", "nlp_unknown", "nlp_unknown_rescued",
		"polyar_regions", "polyar_pruned", "polyar_witnesses",
	}
	zero := Stats{}.Counters()
	if len(zero) != len(keys) {
		t.Fatalf("Counters() has %d keys, want %d", len(zero), len(keys))
	}
	for _, k := range keys {
		if v, ok := zero[k]; !ok || v != 0 {
			t.Fatalf("zero Stats: key %q = %d, present=%v", k, v, ok)
		}
	}
	a := Stats{Iterations: 3, LinearChecks: 2, TheoryCacheHits: 5, SessionSolves: 2, ClausesSubsumed: 4}
	b := Stats{Iterations: 4, LemmasImported: 1, SessionSolves: 1, ClausesSubsumed: 2, ArenaCompactions: 1}
	a.Merge(b)
	c := a.Counters()
	if c["iterations"] != 7 || c["linear_checks"] != 2 || c["theory_cache_hits"] != 5 || c["lemmas_imported"] != 1 || c["session_solves"] != 3 || c["clauses_subsumed"] != 6 || c["arena_compactions"] != 1 {
		t.Fatalf("merged counters wrong: %v", c)
	}

	// Every table entry, not just the named ones: Merge sums it, the
	// session delta subtracts it, and Counters/Phases report it.
	var x, y Stats
	for i, c := range StatCounters {
		*c.Field(&x) = 100 + i
		*c.Field(&y) = 10 + 3*i
	}
	for i, p := range StatPhases {
		*p.Field(&x) = time.Duration(1000 + i)
		*p.Field(&y) = time.Duration(20 + 7*i)
	}
	sum := x
	sum.Merge(y)
	delta := statsDelta(x, y)
	counters, phases := sum.Counters(), sum.Phases()
	if len(phases) != len(StatPhases) {
		t.Fatalf("Phases() has %d keys, want %d", len(phases), len(StatPhases))
	}
	for _, c := range StatCounters {
		if got, want := *c.Field(&sum), *c.Field(&x)+*c.Field(&y); got != want || counters[c.Name] != int64(want) {
			t.Errorf("Merge %s = %d (Counters %d), want %d", c.Name, got, counters[c.Name], want)
		}
		if got, want := *c.Field(&delta), *c.Field(&x)-*c.Field(&y); got != want {
			t.Errorf("delta %s = %d, want %d", c.Name, got, want)
		}
	}
	for _, p := range StatPhases {
		if got, want := *p.Field(&sum), *p.Field(&x)+*p.Field(&y); got != want || phases[p.Name] != want {
			t.Errorf("Merge %s = %v (Phases %v), want %v", p.Name, got, phases[p.Name], want)
		}
		if got, want := *p.Field(&delta), *p.Field(&x)-*p.Field(&y); got != want {
			t.Errorf("delta %s = %v, want %v", p.Name, got, want)
		}
	}
}

// TestWithKnobsOR pins the knob composition every surface shares: a knob
// set on the base Config or in the added set survives, nothing else is
// switched on, and KnobSet reads back exactly the switches that are on.
func TestWithKnobsOR(t *testing.T) {
	for i, kn := range Knobs {
		var own Config
		*kn.Field(&own) = true
		if got := own.KnobSet(); got != 1<<i {
			t.Errorf("%s: KnobSet = %b, want %b", kn.Name, got, 1<<i)
		}
		if got := own.WithKnobs(0).KnobSet(); got != 1<<i {
			t.Errorf("%s on the base lost by WithKnobs(0): %b", kn.Name, got)
		}
		if got := (Config{}).WithKnobs(1 << i).KnobSet(); got != 1<<i {
			t.Errorf("%s added to a zero base: %b", kn.Name, got)
		}
		for j := range Knobs {
			if got, want := own.WithKnobs(1<<j).KnobSet(), KnobSet(1<<i|1<<j); got != want {
				t.Errorf("%s base with %s added: %b, want %b", kn.Name, Knobs[j].Name, got, want)
			}
		}
	}
}

// TestNonlinearWitnessInsideBounds: the penalty solver's start point x=0
// is outside 1/x's domain, and its nudge off the singularity used to move
// the point-bounded y and z out of their boxes, giving the model
// y=2.001, z=0.001 that Problem.Check rejects.
func TestNonlinearWitnessInsideBounds(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "1/x >= -10", expr.Real))
	p.Bind(1, atomT(t, "z*z <= 1", expr.Real))
	p.SetBounds("x", -1, 1)
	p.SetBounds("y", 2, 2)
	p.SetBounds("z", 0, 0)
	requireSat(t, p, Config{})
}

// escapingSolver answers every check with a witness that satisfies the
// atoms but puts x outside its bounds.
type escapingSolver struct{}

func (escapingSolver) Name() string { return "escaping" }

func (escapingSolver) Check(context.Context, []expr.Atom, expr.Box, expr.Env) NonlinearVerdict {
	return NonlinearVerdict{Status: nlp.Feasible, X: expr.Env{"x": 3}}
}

// TestEngineRejectsWitnessOutsideBounds: a nonlinear witness outside the
// declared bounds is not a model; the engine hands the check on to its
// fallback instead of answering SAT with it.
func TestEngineRejectsWitnessOutsideBounds(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x * x >= 4", expr.Real))
	p.SetBounds("x", 0, 2.5)
	requireSat(t, p, Config{Nonlinear: escapingSolver{}}) // PolyAR finds x in [2, 2.5]
	res := solveP(t, p, Config{Nonlinear: escapingSolver{}, NoPolyAR: true})
	if res.Status == StatusSat {
		t.Fatalf("sat with model %v from an out-of-bounds witness", res.Model.Real)
	}
}

// escapingLinear answers every check with x = 5: it satisfies x >= 1 but
// lies outside the declared bounds.
type escapingLinear struct{}

func (escapingLinear) Name() string { return "escaping-linear" }

func (escapingLinear) Check(context.Context, []lp.Constraint, map[string]float64, map[string]float64, map[string]bool) LinearVerdict {
	return LinearVerdict{Status: lp.Feasible, X: map[string]float64{"x": 5}}
}

// TestEngineRejectsLinearWitnessOutsideBounds is the linear twin of
// TestEngineRejectsWitnessOutsideBounds: a linear plug-in's witness
// outside the bounds is not a model either, so the check escalates to the
// nonlinear stage instead of shipping x = 5.
func TestEngineRejectsLinearWitnessOutsideBounds(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x >= 1", expr.Real))
	p.SetBounds("x", -2, 2)
	requireSat(t, p, Config{Linear: escapingLinear{}}) // the penalty solver finds x in [1, 2]
	res := solveP(t, p, Config{Linear: escapingLinear{}, Nonlinear: unknowingNonlinear{}, NoPolyAR: true})
	if res.Status == StatusSat {
		t.Fatalf("sat with model %v from an out-of-bounds linear witness", res.Model.Real)
	}
}

// TestViolatedNESumsInSortedOrder: a disequality's left-hand side is
// summed in sorted variable order. At a = 1e17, b = −1e17, c = 1 that
// order gives exactly 1, so a + b + c ≠ 1 is violated on every call; a
// map-order sum would give 0 in some orders and flip the verdict.
func TestViolatedNESumsInSortedOrder(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "c + a + b != 1", expr.Real))
	e := NewEngine(p, Config{})
	neqs := []assertedAtom{{lit: 1, atom: p.Bindings[0]}}
	x := map[string]float64{"a": 1e17, "b": -1e17, "c": 1}
	for i := 0; i < 50; i++ {
		if got := e.violatedNE(neqs, x); len(got) != 1 {
			t.Fatalf("call %d: violated = %v, want the disequality", i, got)
		}
	}
}
