package core

import (
	"fmt"
	"strings"
	"testing"

	"absolver/internal/exchange"
	"absolver/internal/expr"
)

func mustAtomT(t *testing.T, src string) expr.Atom {
	t.Helper()
	a, err := expr.ParseAtom(src, expr.Real)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// contradictionProblem is UNSAT through the theory only: v1 and v2 are
// forced true and bind x+y >= 5 vs x+y <= 4.
func contradictionProblem(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, mustAtomT(t, "x + y >= 5"))
	p.Bind(1, mustAtomT(t, "x + y <= 4"))
	return p
}

// TestExchangeImportSkipsRediscovery runs two engines sequentially over
// the same exchange — a deterministic stand-in for the portfolio's
// concurrent schedule. Engine A discovers the theory conflict and
// publishes it; engine B imports the clause at the top of its first
// iteration and closes the search space without a single theory check.
func TestExchangeImportSkipsRediscovery(t *testing.T) {
	ex := exchange.New()

	// NoGroundLemmas so the conflict must be found by the simplex, not by
	// static grounding.
	a := NewEngine(contradictionProblem(t), Config{
		NoGroundLemmas: true,
		Exchange:       ex.NewClient(),
	})
	resA, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resA.Status != StatusUnsat {
		t.Fatalf("engine A: %v, want unsat", resA.Status)
	}
	stA := a.Stats()
	if stA.ConflictClauses == 0 {
		t.Fatal("engine A discovered no conflict (test premise broken)")
	}
	if stA.LemmasPublished == 0 {
		t.Fatal("engine A published nothing despite learning a conflict")
	}
	if stA.LemmasImported != 0 {
		t.Fatalf("engine A imported %d of its own lemmas", stA.LemmasImported)
	}

	b := NewEngine(contradictionProblem(t), Config{
		NoGroundLemmas: true,
		Exchange:       ex.NewClient(),
		RecordLemmas:   true,
	})
	resB, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resB.Status != StatusUnsat {
		t.Fatalf("engine B: %v, want unsat", resB.Status)
	}
	stB := b.Stats()
	if stB.LemmasImported == 0 {
		t.Fatal("engine B imported nothing")
	}
	if stB.LinearChecks != 0 {
		t.Fatalf("engine B ran %d linear checks; the imported lemma should have closed the space", stB.LinearChecks)
	}
	if stB.Iterations >= stA.Iterations {
		t.Fatalf("engine B took %d iterations, engine A %d — import saved nothing", stB.Iterations, stA.Iterations)
	}
	// The import is visible in the provenance log.
	found := false
	for _, l := range b.Lemmas() {
		if l.Kind == LemmaImported {
			found = true
		}
	}
	if !found {
		t.Fatal("no LemmaImported entry in engine B's lemma log")
	}
}

// TestExchangeDedupAgainstOwnLemmas: an engine whose static grounding pass
// already derived the exclusion must drop the equivalent peer clause and
// count it as deduped, not import a duplicate.
func TestExchangeDedupAgainstOwnLemmas(t *testing.T) {
	ex := exchange.New()

	a := NewEngine(contradictionProblem(t), Config{
		NoGroundLemmas: true,
		Exchange:       ex.NewClient(),
	})
	if _, err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().LemmasPublished == 0 {
		t.Fatal("engine A published nothing (test premise broken)")
	}

	// Engine B keeps ground lemmas: GroundPairLemmas derives the exclusion
	// ¬v1 ∨ ¬v2 from the proportional pair x+y>=5 / x+y<=4, so the peer's
	// identical conflict clause arrives as a known fact.
	b := NewEngine(contradictionProblem(t), Config{
		Exchange: ex.NewClient(),
	})
	if _, err := b.Solve(); err != nil {
		t.Fatal(err)
	}
	stB := b.Stats()
	if stB.LemmasDeduped == 0 {
		t.Fatal("engine B did not dedup the peer's clause against its own ground lemma")
	}
	if stB.LemmasImported != 0 {
		t.Fatalf("engine B imported %d duplicates", stB.LemmasImported)
	}
}

// TestExchangeRestartModeImports pins that restart mode re-feeds imported
// clauses through Reset (they live in e.lemmas, not only in AddBlocking
// state that a restart would discard).
func TestExchangeRestartModeImports(t *testing.T) {
	ex := exchange.New()

	a := NewEngine(contradictionProblem(t), Config{
		NoGroundLemmas: true,
		Exchange:       ex.NewClient(),
	})
	if _, err := a.Solve(); err != nil {
		t.Fatal(err)
	}

	b := NewEngine(contradictionProblem(t), Config{
		NoGroundLemmas: true,
		RestartBoolean: true,
		Exchange:       ex.NewClient(),
	})
	resB, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resB.Status != StatusUnsat {
		t.Fatalf("restart-mode engine B: %v, want unsat", resB.Status)
	}
	stB := b.Stats()
	if stB.LemmasImported == 0 || stB.LinearChecks != 0 {
		t.Fatalf("restart-mode import ineffective: imported=%d linear-checks=%d", stB.LemmasImported, stB.LinearChecks)
	}
}

// TestTheoryCacheAllModels: enumerating models that differ only on unbound
// Boolean variables revisits the same asserted-atom projection; all but
// the first theory check must be served from the cache.
func TestTheoryCacheAllModels(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.NumVars = 4
	p.Bind(0, mustAtomT(t, "x >= 1"))
	e := NewEngine(p, Config{})
	n, status, err := e.AllModels(nil, 0, func(m Model) error {
		if m.Real["x"] < 1 {
			t.Fatalf("model witness x = %v violates the asserted atom", m.Real["x"])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || status != StatusUnsat {
		t.Fatalf("n=%d status=%v, want 8 models then exhausted", n, status)
	}
	st := e.Stats()
	if st.TheoryCacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one distinct projection)", st.TheoryCacheMisses)
	}
	if st.TheoryCacheHits != 7 {
		t.Fatalf("cache hits = %d, want 7", st.TheoryCacheHits)
	}

	// Ablation: NoTheoryCache yields the same enumeration with zero cache
	// traffic.
	p2 := NewProblem()
	p2.AddClause(1)
	p2.NumVars = 4
	p2.Bind(0, mustAtomT(t, "x >= 1"))
	e2 := NewEngine(p2, Config{NoTheoryCache: true})
	n2, _, err := e2.AllModels(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("NoTheoryCache changed the model count: %d vs %d", n2, n)
	}
	st2 := e2.Stats()
	if st2.TheoryCacheHits != 0 || st2.TheoryCacheMisses != 0 {
		t.Fatalf("NoTheoryCache still touched the cache: %+v", st2)
	}
	if st2.LinearChecks <= st.LinearChecks {
		t.Fatalf("cache saved no solver work: %d checks cached vs %d uncached", st.LinearChecks, st2.LinearChecks)
	}
}

// TestTheoryCacheHitEnvIsPrivate: mutating a returned model's witness must
// not corrupt later cache hits.
func TestTheoryCacheHitEnvIsPrivate(t *testing.T) {
	p := NewProblem()
	p.AddClause(1)
	p.NumVars = 3
	p.Bind(0, mustAtomT(t, "x >= 1"))
	e := NewEngine(p, Config{CheckModels: true})
	_, _, err := e.AllModels(nil, 0, func(m Model) error {
		m.Real["x"] = -999 // caller scribbles on its copy
		return nil
	})
	if err != nil {
		t.Fatalf("a later model failed certification — cache env was shared with the caller: %v", err)
	}
}

// TestTheoryCacheEviction pins the epoch reset: with more distinct
// projections than the cache holds, the engine still answers correctly.
func TestTheoryCacheEviction(t *testing.T) {
	p := NewProblem()
	// 14 bound variables, each free: 2^14 projections, twice the cache cap.
	const n = 14
	for v := 1; v <= n; v++ {
		p.AddClause(v, -v)
	}
	for v := 0; v < n; v++ {
		p.Bind(v, mustAtomT(t, fmt.Sprintf("x%d >= 0", v)))
	}
	e := NewEngine(p, Config{NoGroundLemmas: true})
	models, status, err := e.AllModels(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusUnsat || models != 1<<n {
		t.Fatalf("models=%d status=%v, want %d models then exhausted", models, status, 1<<n)
	}
	if len(e.tcache) > theoryCacheSize {
		t.Fatalf("cache holds %d entries after %d projections, over its cap of %d", len(e.tcache), 1<<n, theoryCacheSize)
	}
}

// TestAllModelsProjectionValidation is the engine-level regression for
// caller-supplied projections: out-of-range errors up front, duplicates
// are deduplicated rather than doubling blocking literals.
func TestAllModelsProjectionValidation(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		p.AddClause(1, 2)
		p.NumVars = 2
		return p
	}
	for _, bad := range [][]int{{0}, {-1}, {3}, {1, 99}} {
		e := NewEngine(build(), Config{})
		n, status, err := e.AllModels(bad, 0, nil)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("AllModels(%v) err = %v, want out-of-range", bad, err)
		}
		if n != 0 || status != StatusUnknown {
			t.Fatalf("AllModels(%v) = (%d, %v) before failing, want (0, unknown)", bad, n, status)
		}
	}
	e := NewEngine(build(), Config{})
	n, _, err := e.AllModels([]int{1, 1, 2, 2, 1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("duplicated projection enumerated %d models, want 3", n)
	}
}
