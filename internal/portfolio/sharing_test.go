package portfolio

import (
	"context"
	"testing"

	"absolver/internal/core"
	"absolver/internal/exchange"
	"absolver/internal/nlp"
	"absolver/internal/testkit"
)

// sharingStrategies returns a small racing set with model certification
// on, so a sharing-induced wrong model would be caught in-engine before
// the differential comparison even sees it.
func sharingStrategies() []Strategy {
	ss := []Strategy{
		{Name: "default", Config: core.Config{}},
		{Name: "no-lemmas", Config: core.Config{NoGroundLemmas: true}},
		{Name: "seeded-nlp", Config: core.Config{
			Nonlinear: &core.PenaltySolver{Options: nlp.Options{Seed: 9}},
		}},
	}
	for i := range ss {
		ss[i].Config.CheckModels = true
	}
	return ss
}

// TestSharingDifferentialVsOracle is the soundness gate for the lemma
// exchange: across all four generator fragments, a portfolio with sharing
// ENABLED must never contradict the brute-force reference oracle. Under
// -race (CI) this also stress-tests the concurrent publish/import paths
// with real engine schedules.
func TestSharingDifferentialVsOracle(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
	}
	for frag := testkit.Fragment(0); frag < testkit.NumFragments; frag++ {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			var o *testkit.Oracle
			decided, shared := 0, 0
			for seed := int64(0); seed < seeds; seed++ {
				p := testkit.Generate(seed, frag)
				ov, err := o.Decide(p)
				if err != nil {
					t.Fatalf("oracle: seed=%d: %v", seed, err)
				}
				if ov != testkit.Inconclusive {
					decided++
				}
				out := SolveWith(context.Background(), p.Clone(), sharingStrategies(), Options{})
				shared += out.Stats.LemmasImported
				switch {
				case out.Result.Status == core.StatusSat && ov == testkit.Unsat:
					t.Fatalf("seed=%d frag=%v: portfolio sat, oracle unsat", seed, frag)
				case out.Result.Status == core.StatusUnsat && ov == testkit.Sat:
					t.Fatalf("seed=%d frag=%v: portfolio unsat, oracle sat", seed, frag)
				}
			}
			if decided < int(seeds)/2 {
				t.Errorf("oracle decided only %d/%d instances", decided, seeds)
			}
			t.Logf("%s: %d/%d oracle-decided, %d lemmas imported across runs", frag, decided, seeds, shared)
		})
	}
}

// TestSharingImportsLemmasUnderContention drives a many-member race over a
// conflict-rich problem repeatedly and asserts the exchange actually moves
// lemmas between concurrent members at least once — guarding against the
// hook silently wiring to a dead store. Skipped under -short: the
// assertion is about concurrent schedules actually overlapping.
func TestSharingImportsLemmasUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("needs overlapping member schedules")
	}
	imported := 0
	for round := 0; round < 30 && imported == 0; round++ {
		// A fischer-like conflict-rich UNSAT core: chains of mutually
		// exclusive linear atoms with independent Boolean choice.
		p := testkit.Generate(int64(round), testkit.FragLinear)
		p = testkit.WithContradiction(p)
		strategies := []Strategy{
			{Name: "a", Config: core.Config{NoGroundLemmas: true}},
			{Name: "b", Config: core.Config{NoGroundLemmas: true, NoIIS: true}},
			{Name: "c", Config: core.Config{NoGroundLemmas: true, RestartBoolean: true}},
			{Name: "d", Config: core.Config{NoGroundLemmas: true, NoTheoryCache: true}},
		}
		out := SolveWith(context.Background(), p, strategies, Options{})
		imported += out.Stats.LemmasImported
	}
	if imported == 0 {
		t.Error("30 contended races moved zero lemmas through the exchange")
	} else {
		t.Logf("imported %d lemmas across contended races", imported)
	}
}

// TestNoShareDisablesExchange pins the ablation path: with NoShare the
// merged stats carry no exchange traffic at all.
func TestNoShareDisablesExchange(t *testing.T) {
	p := testkit.WithContradiction(testkit.Generate(3, testkit.FragLinear))
	out := SolveWith(context.Background(), p, sharingStrategies(), Options{NoShare: true})
	st := out.Stats
	if st.LemmasPublished != 0 || st.LemmasImported != 0 || st.LemmasDeduped != 0 {
		t.Fatalf("NoShare race still touched the exchange: %+v", st)
	}
}

// TestStrategyKeepsOwnExchange: a strategy arriving with its own exchange
// client keeps it; the race does not overwrite caller wiring.
func TestStrategyKeepsOwnExchange(t *testing.T) {
	ex := exchange.New()
	feeder := ex.NewClient()
	feeder.Publish([]int{-1, -2})
	p := core.NewProblem()
	p.AddClause(1, 2)
	p.NumVars = 2
	out := SolveWith(context.Background(), p, []Strategy{
		{Name: "wired", Config: core.Config{Exchange: ex.NewClient()}},
	}, Options{})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Stats.LemmasImported == 0 {
		t.Fatal("pre-wired exchange client was not used (no import from the seeded store)")
	}
}
