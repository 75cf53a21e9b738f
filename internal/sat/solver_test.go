package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

func mk(n int) Lit { return FromDIMACS(n) }

func addAll(t *testing.T, s *Solver, clauses [][]int) bool {
	t.Helper()
	ok := true
	for _, cl := range clauses {
		lits := make([]Lit, len(cl))
		for i, n := range cl {
			lits[i] = mk(n)
		}
		ok = s.AddClause(lits...)
		if !ok {
			return false
		}
	}
	return ok
}

func solve(t *testing.T, clauses [][]int) (bool, []bool) {
	t.Helper()
	s := New()
	if !addAll(t, s, clauses) {
		return false, nil
	}
	model, res, err := s.SolveModel()
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	s.checkInvariants() // full arena audit under -tags satdebug, no-op otherwise
	return res == LTrue, model
}

// checkModel verifies that model satisfies all clauses.
func checkModel(t *testing.T, clauses [][]int, model []bool) {
	t.Helper()
	for _, cl := range clauses {
		sat := false
		for _, n := range cl {
			v := abs(n) - 1
			if v < len(model) && (model[v] == (n > 0)) {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model %v does not satisfy clause %v", model, cl)
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func TestTrivialSAT(t *testing.T) {
	ok, model := solve(t, [][]int{{1}})
	if !ok {
		t.Fatal("expected SAT")
	}
	if !model[0] {
		t.Fatal("expected x1 = true")
	}
}

func TestTrivialUNSAT(t *testing.T) {
	ok, _ := solve(t, [][]int{{1}, {-1}})
	if ok {
		t.Fatal("expected UNSAT")
	}
}

func TestEmptyClauseUNSAT(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause must make solver unsatisfiable")
	}
	res, err := s.Solve()
	if err != nil || res != LFalse {
		t.Fatalf("got %v, %v", res, err)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// 1, 1→2, 2→3, ..., 9→10, and clause requiring 10.
	clauses := [][]int{{1}}
	for i := 1; i < 10; i++ {
		clauses = append(clauses, []int{-i, i + 1})
	}
	ok, model := solve(t, clauses)
	if !ok {
		t.Fatal("expected SAT")
	}
	for i := 0; i < 10; i++ {
		if !model[i] {
			t.Fatalf("variable %d should be true", i+1)
		}
	}
}

func TestUnsatChain(t *testing.T) {
	clauses := [][]int{{1}}
	for i := 1; i < 10; i++ {
		clauses = append(clauses, []int{-i, i + 1})
	}
	clauses = append(clauses, []int{-10})
	ok, _ := solve(t, clauses)
	if ok {
		t.Fatal("expected UNSAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	if !s.AddClause(mk(1), mk(-1)) {
		t.Fatal("tautology should be accepted")
	}
	if s.NumClauses() != 0 {
		t.Fatal("tautology should not be stored")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	ok, model := solve(t, [][]int{{2, 2, 2}, {-2, -2, 1}})
	if !ok {
		t.Fatal("expected SAT")
	}
	if !model[1] || !model[0] {
		t.Fatalf("expected both true, got %v", model)
	}
}

// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes, unsatisfiable.
func pigeonhole(pigeons, holes int) [][]int {
	v := func(p, h int) int { return p*holes + h + 1 }
	var clauses [][]int
	for p := 0; p < pigeons; p++ {
		cl := make([]int, holes)
		for h := 0; h < holes; h++ {
			cl[h] = v(p, h)
		}
		clauses = append(clauses, cl)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []int{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return clauses
}

func TestPigeonholeUNSAT(t *testing.T) {
	for n := 2; n <= 6; n++ {
		ok, _ := solve(t, pigeonhole(n+1, n))
		if ok {
			t.Fatalf("PHP(%d,%d) must be UNSAT", n+1, n)
		}
	}
}

func TestPigeonholeSAT(t *testing.T) {
	for n := 2; n <= 6; n++ {
		clauses := pigeonhole(n, n)
		ok, model := solve(t, clauses)
		if !ok {
			t.Fatalf("PHP(%d,%d) must be SAT", n, n)
		}
		checkModel(t, clauses, model)
	}
}

// bruteForce determines satisfiability by exhaustive enumeration (≤ 20 vars).
func bruteForce(nVars int, clauses [][]int) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		sat := true
		for _, cl := range clauses {
			cSat := false
			for _, n := range cl {
				v := abs(n) - 1
				bit := m>>uint(v)&1 == 1
				if bit == (n > 0) {
					cSat = true
					break
				}
			}
			if !cSat {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}

func randomClauses(rng *rand.Rand, nVars, nClauses, width int) [][]int {
	clauses := make([][]int, nClauses)
	for i := range clauses {
		w := 1 + rng.Intn(width)
		cl := make([]int, w)
		for j := range cl {
			v := 1 + rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl[j] = v
		}
		clauses[i] = cl
	}
	return clauses
}

// TestRandomAgainstBruteForce cross-checks the CDCL verdict against
// exhaustive enumeration on many random small instances.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(40)
		clauses := randomClauses(rng, nVars, nClauses, 4)
		want := bruteForce(nVars, clauses)
		got, model := solve(t, clauses)
		if got != want {
			t.Fatalf("iter %d: solver says %v, brute force says %v\nclauses: %v", iter, got, want, clauses)
		}
		if got {
			checkModel(t, clauses, model)
		}
	}
}

// TestRandomHardRatio exercises instances near the phase-transition ratio.
func TestRandomHardRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		nVars := 12 + rng.Intn(6)
		nClauses := int(4.26 * float64(nVars))
		clauses := make([][]int, nClauses)
		for i := range clauses {
			cl := make([]int, 3)
			for j := range cl {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			clauses[i] = cl
		}
		want := bruteForce(nVars, clauses)
		got, model := solve(t, clauses)
		if got != want {
			t.Fatalf("iter %d: solver says %v, brute force says %v", iter, got, want)
		}
		if got {
			checkModel(t, clauses, model)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	addAll(t, s, [][]int{{1, 2}, {-1, 3}, {-2, 3}})
	// Under assumption ¬3, the formula is UNSAT.
	res, err := s.Solve(mk(-3))
	if err != nil {
		t.Fatal(err)
	}
	if res != LFalse {
		t.Fatalf("expected UNSAT under ¬3, got %v", res)
	}
	ca := s.ConflictAssumptions()
	if len(ca) == 0 {
		t.Fatal("expected nonempty conflict assumptions")
	}
	for _, l := range ca {
		if l != mk(-3) {
			t.Fatalf("unexpected conflict assumption %v", l)
		}
	}
	// Without assumptions still SAT.
	res, err = s.Solve()
	if err != nil || res != LTrue {
		t.Fatalf("expected SAT, got %v %v", res, err)
	}
	// Under assumption 3, SAT.
	res, err = s.Solve(mk(3))
	if err != nil || res != LTrue {
		t.Fatalf("expected SAT under 3, got %v %v", res, err)
	}
}

func TestAssumptionsManyCalls(t *testing.T) {
	// Incremental use: same solver, alternating assumptions.
	s := New()
	addAll(t, s, [][]int{{1, 2, 3}, {-1, -2}, {-2, -3}, {-1, -3}})
	for i := 0; i < 50; i++ {
		res, err := s.Solve(mk(1))
		if err != nil || res != LTrue {
			t.Fatalf("i=%d: expected SAT under 1: %v %v", i, res, err)
		}
		res, err = s.Solve(mk(1), mk(2))
		if err != nil || res != LFalse {
			t.Fatalf("i=%d: expected UNSAT under 1,2: %v %v", i, res, err)
		}
		s.checkInvariants()
	}
}

func TestConflictAssumptionsSubset(t *testing.T) {
	s := New()
	// 1 and 2 conflict via 3: (¬1 ∨ 3), (¬2 ∨ ¬3).
	addAll(t, s, [][]int{{-1, 3}, {-2, -3}})
	res, err := s.Solve(mk(1), mk(2), mk(4), mk(5))
	if err != nil {
		t.Fatal(err)
	}
	if res != LFalse {
		t.Fatalf("expected UNSAT, got %v", res)
	}
	ca := s.ConflictAssumptions()
	for _, l := range ca {
		if l == mk(4) || l == mk(5) {
			t.Fatalf("irrelevant assumption %v in conflict set %v", l, ca)
		}
	}
	if len(ca) == 0 || len(ca) > 2 {
		t.Fatalf("conflict set should mention only 1 and 2, got %v", ca)
	}
}

func TestSolveModelKeepsAssignment(t *testing.T) {
	s := New()
	addAll(t, s, [][]int{{1}, {-1, 2}})
	model, res, err := s.SolveModel()
	if err != nil || res != LTrue {
		t.Fatalf("%v %v", res, err)
	}
	if !model[0] || !model[1] {
		t.Fatalf("model should set both: %v", model)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	addAll(t, s, [][]int{{1, 2}})
	res, _ := s.Solve()
	if res != LTrue {
		t.Fatal("expected SAT")
	}
	s.AddClause(mk(-1))
	res, _ = s.Solve()
	if res != LTrue {
		t.Fatal("still SAT via 2")
	}
	s.AddClause(mk(-2))
	res, _ = s.Solve()
	if res != LFalse {
		t.Fatal("expected UNSAT after blocking both")
	}
	// Solver must stay unsat.
	res, _ = s.Solve()
	if res != LFalse {
		t.Fatal("must remain UNSAT")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if g := luby(int64(i)); g != w {
			t.Fatalf("luby(%d) = %d, want %d", i, g, w)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	for _, n := range []int{1, -1, 5, -5, 100, -100} {
		l := FromDIMACS(n)
		if l.DIMACS() != n {
			t.Fatalf("roundtrip %d -> %v -> %d", n, l, l.DIMACS())
		}
		if l.Not().DIMACS() != -n {
			t.Fatalf("negation of %d wrong", n)
		}
		if l.Not().Not() != l {
			t.Fatal("double negation")
		}
	}
	l := MkLit(3, false)
	if l.Var() != 3 || l.Neg() {
		t.Fatal("MkLit positive")
	}
	l = MkLit(3, true)
	if l.Var() != 3 || !l.Neg() {
		t.Fatal("MkLit negative")
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	for _, cl := range pigeonhole(9, 8) {
		lits := make([]Lit, len(cl))
		for i, n := range cl {
			lits[i] = mk(n)
		}
		s.AddClause(lits...)
	}
	s.ConflictBudget = 5
	_, err := s.Solve()
	if err == nil {
		// PHP(9,8) should take more than 5 conflicts; if the solver proved
		// it that fast, that's also fine — but then verify the verdict.
		res, err2 := func() (LBool, error) { s.ConflictBudget = 0; return s.Solve() }()
		if err2 != nil || res != LFalse {
			t.Fatalf("expected UNSAT, got %v %v", res, err2)
		}
		return
	}
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	// After lifting the budget the solver must finish.
	s.ConflictBudget = 0
	res, err := s.Solve()
	if err != nil || res != LFalse {
		t.Fatalf("expected UNSAT after budget lift, got %v %v", res, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	addAll(t, s, pigeonhole(6, 5))
	_, _ = s.Solve()
	if s.Stats.Conflicts == 0 {
		t.Fatal("expected conflicts on PHP(6,5)")
	}
	if s.Stats.Propagations == 0 {
		t.Fatal("expected propagations")
	}
	if s.Stats.SolveCalls != 1 {
		t.Fatalf("SolveCalls = %d", s.Stats.SolveCalls)
	}
}

func TestSetPolarity(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(mk(2), mk(-2)) // tautology keeps var 2 around
	s.EnsureVars(2)
	s.SetPolarity(v, false) // prefer true
	model, res, err := s.SolveModel()
	if err != nil || res != LTrue {
		t.Fatalf("%v %v", res, err)
	}
	if !model[v] {
		t.Fatal("polarity hint not honoured on unconstrained variable")
	}
}

// TestStatsAddSumsEveryField: Add sums each counter, so a counter added to
// Stats without a line in Add fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var o, st Stats
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetInt(int64(i + 1))
	}
	st.Add(o)
	st.Add(o)
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		if got := sv.Field(i).Int(); got != 2*int64(i+1) {
			t.Errorf("%s = %d after adding %d twice", sv.Type().Field(i).Name, got, i+1)
		}
	}
}
