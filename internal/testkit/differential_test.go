package testkit

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"absolver/internal/baseline"
	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/portfolio"
)

// seedsPerFragment sizes the main differential suite: 4 fragments ×
// 1300 seeds = 5200 problems, each solved with Config.CheckModels and
// Config.RecordLemmas and cross-checked against the reference oracle.
const seedsPerFragment = 1300

// TestDifferentialEngineVsOracle is the tentpole suite: zero tolerated
// engine/oracle disagreements, zero certificate rejections, zero unsound
// lemmas, across all four fragments.
func TestDifferentialEngineVsOracle(t *testing.T) {
	for frag := Fragment(0); frag < NumFragments; frag++ {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			decided, agreedSat, agreedUnsat := 0, 0, 0
			for seed := int64(0); seed < seedsPerFragment; seed++ {
				rep, err := RunDifferential(seed, frag, nil)
				if err != nil {
					t.Fatalf("reproduce with %s: %v", reproCall("RunDifferential", seed, frag), err)
				}
				if rep.Oracle != Inconclusive {
					decided++
				}
				if rep.Oracle == Sat && rep.Engine[0] == core.StatusSat {
					agreedSat++
				}
				if rep.Oracle == Unsat && rep.Engine[0] == core.StatusUnsat {
					agreedUnsat++
				}
			}
			// The suite is only meaningful if the oracle actually decides a
			// healthy share of instances and both verdicts occur.
			if min := seedsPerFragment / 2; decided < min {
				t.Errorf("oracle decided only %d/%d instances (want >= %d)", decided, seedsPerFragment, min)
			}
			if agreedSat == 0 || agreedUnsat == 0 {
				t.Errorf("degenerate suite: %d sat agreements, %d unsat agreements — generator no longer spans both verdicts", agreedSat, agreedUnsat)
			}
			t.Logf("%s: %d/%d oracle-decided (%d sat, %d unsat agreements)",
				frag, decided, seedsPerFragment, agreedSat, agreedUnsat)
		})
	}
}

// titleName renders the fragment as the Frag* identifier suffix used in a
// reproduction snippet.
func titleName(f Fragment) string {
	switch f {
	case FragBool:
		return "Bool"
	case FragLinear:
		return "Linear"
	case FragMixedInt:
		return "MixedInt"
	case FragNonlinear:
		return "Nonlinear"
	}
	return fmt.Sprintf("ment(%d)", int(f))
}

// reproCall renders the runner call that reproduces a failing seed, for
// example testkit.RunDifferential(7, testkit.FragNonlinear, nil,
// core.KnobSet(0x0), core.KnobSet(0x20)).
func reproCall(runner string, seed int64, frag Fragment, variants ...core.KnobSet) string {
	call := fmt.Sprintf("testkit.%s(%d, testkit.Frag%s, nil", runner, seed, titleName(frag))
	for _, k := range variants {
		call += fmt.Sprintf(", core.KnobSet(%#x)", uint32(k))
	}
	return call + ")"
}

// TestDifferentialBaselinesLinear cross-checks the reimplemented
// MathSAT-like and CVC-Lite-like baselines against oracle and engine on
// the fragments they support (pure Boolean and linear-real arithmetic).
func TestDifferentialBaselinesLinear(t *testing.T) {
	for _, frag := range []Fragment{FragBool, FragLinear} {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 400; seed++ {
				p := Generate(seed, frag)
				ov, err := (&Oracle{}).Decide(p)
				if err != nil {
					t.Fatalf("oracle: seed=%d: %v", seed, err)
				}
				for _, b := range []struct {
					name  string
					solve func(*core.Problem) (baseline.Result, error)
				}{
					{"mathsat-like", (&baseline.MathSATLike{}).Solve},
					{"cvclite-like", (&baseline.CVCLiteLike{}).Solve},
				} {
					res, err := b.solve(p.Clone())
					if err != nil {
						t.Fatalf("%s: seed=%d frag=%v: %v", b.name, seed, frag, err)
					}
					if res.Status == core.StatusSat && ov == Unsat {
						t.Fatalf("%s: seed=%d frag=%v: baseline sat, oracle unsat", b.name, seed, frag)
					}
					if res.Status == core.StatusUnsat && ov == Sat {
						t.Fatalf("%s: seed=%d frag=%v: baseline unsat, oracle sat", b.name, seed, frag)
					}
					// Baseline SAT models must pass the engine's certificate.
					if res.Status == core.StatusSat && res.Model != nil {
						if err := core.CertifyModel(p, *res.Model); err != nil {
							t.Fatalf("%s: seed=%d frag=%v: model fails certificate: %v", b.name, seed, frag, err)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialPortfolio races the default strategy set on a slice of
// the generator space: the aggregate outcome and every individual
// member's definitive verdict must be consistent with the oracle.
func TestDifferentialPortfolio(t *testing.T) {
	for frag := Fragment(0); frag < NumFragments; frag++ {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 60; seed++ {
				p := Generate(seed, frag)
				ov, err := (&Oracle{}).Decide(p)
				if err != nil {
					t.Fatalf("oracle: seed=%d: %v", seed, err)
				}
				out := portfolio.Solve(context.Background(), p, portfolio.DefaultStrategies(3))
				if out.Result.Status == core.StatusSat && ov == Unsat {
					t.Fatalf("seed=%d frag=%v: portfolio sat, oracle unsat", seed, frag)
				}
				if out.Result.Status == core.StatusUnsat && ov == Sat {
					t.Fatalf("seed=%d frag=%v: portfolio unsat, oracle sat", seed, frag)
				}
				if out.Result.Status == core.StatusSat && out.Result.Model != nil {
					if err := core.CertifyModel(p, *out.Result.Model); err != nil {
						t.Fatalf("seed=%d frag=%v: portfolio model fails certificate: %v", seed, frag, err)
					}
				}
				// Individual members may be cancelled (unknown), but no two
				// definitive members may disagree, and none may contradict
				// the oracle.
				var sawSat, sawUnsat bool
				for _, er := range out.Engines {
					switch er.Result.Status {
					case core.StatusSat:
						sawSat = true
						if ov == Unsat {
							t.Fatalf("seed=%d frag=%v: engine %q sat, oracle unsat", seed, frag, er.Strategy)
						}
					case core.StatusUnsat:
						sawUnsat = true
						if ov == Sat {
							t.Fatalf("seed=%d frag=%v: engine %q unsat, oracle sat", seed, frag, er.Strategy)
						}
					}
				}
				if sawSat && sawUnsat {
					t.Fatalf("seed=%d frag=%v: portfolio members disagree sat/unsat", seed, frag)
				}
			}
		})
	}
}

// forgingLinear fabricates a witness that satisfies the rows and the
// bounds but gives the integer variable x a fractional value — the kind
// of bug CheckModels exists to catch. The engine's inline acceptance of a
// witness checks atoms and bounds only; the certificate also replays
// integrality.
type forgingLinear struct{}

func (forgingLinear) Name() string { return "forging" }

func (forgingLinear) Check(context.Context, []lp.Constraint, map[string]float64, map[string]float64, map[string]bool) core.LinearVerdict {
	// x = 1.5 satisfies "x >= 1" and the declared bounds [-2, 2], but x
	// is an integer variable.
	return core.LinearVerdict{Status: lp.Feasible, X: map[string]float64{"x": 1.5}}
}

// TestCheckModelsRejectsForgedModel pins the CheckModels contract from the
// rejection side: an engine whose theory solver fabricates witnesses
// must surface ErrModelRejected instead of returning the bogus SAT.
func TestCheckModelsRejectsForgedModel(t *testing.T) {
	p := core.NewProblem()
	p.SetBounds("x", -2, 2)
	p.Bind(0, mustAtom(t, "x >= 1", expr.Int))
	p.AddClause(1)
	eng := core.NewEngine(p, core.Config{
		CheckModels: true,
		Linear:      forgingLinear{},
	})
	res, err := eng.Solve()
	if !errors.Is(err, core.ErrModelRejected) {
		t.Fatalf("Solve = (%v, %v), want ErrModelRejected", res.Status, err)
	}
	if res.Status == core.StatusSat {
		t.Fatal("forged model shipped as sat despite CheckModels")
	}
}
