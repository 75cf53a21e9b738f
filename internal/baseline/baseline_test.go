package baseline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/fischer"
	"absolver/internal/smtlib"
)

func atomT(t *testing.T, src string, dom expr.Domain) expr.Atom {
	t.Helper()
	a, err := expr.ParseAtom(src, dom)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func solvers() []interface {
	Name() string
	Solve(*core.Problem) (Result, error)
} {
	return []interface {
		Name() string
		Solve(*core.Problem) (Result, error)
	}{
		&MathSATLike{},
		&CVCLiteLike{},
	}
}

func TestRejectNonlinear(t *testing.T) {
	// Table 1's comparative rows: nonlinear problems are rejected.
	p := core.NewProblem()
	p.AddClause(1)
	p.Bind(0, atomT(t, "x * x >= 4", expr.Real))
	for _, s := range solvers() {
		_, err := s.Solve(p)
		if !errors.Is(err, ErrNonlinear) {
			t.Fatalf("%s: err = %v, want ErrNonlinear", s.Name(), err)
		}
	}
}

func TestPureBoolean(t *testing.T) {
	p := core.NewProblem()
	p.AddClause(1, 2)
	p.AddClause(-1, 2)
	for _, s := range solvers() {
		r, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if r.Status != core.StatusSat {
			t.Fatalf("%s: status = %v", s.Name(), r.Status)
		}
		if !r.Model.Bool[1] {
			t.Fatalf("%s: var 2 must be true", s.Name())
		}
	}
}

func TestLinearSatUnsat(t *testing.T) {
	for _, s := range solvers() {
		// SAT: (x ≥ 5 ∨ x ≤ 4).
		p := core.NewProblem()
		p.AddClause(1, 2)
		p.Bind(0, atomT(t, "x >= 5", expr.Real))
		p.Bind(1, atomT(t, "x <= 4", expr.Real))
		r, err := s.Solve(p)
		if err != nil || r.Status != core.StatusSat {
			t.Fatalf("%s: %v %v", s.Name(), r.Status, err)
		}
		if err := p.Check(*r.Model); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// UNSAT: both forced.
		q := core.NewProblem()
		q.AddClause(1)
		q.AddClause(2)
		q.Bind(0, atomT(t, "x >= 5", expr.Real))
		q.Bind(1, atomT(t, "x <= 4", expr.Real))
		r, err = s.Solve(q)
		if err != nil || r.Status != core.StatusUnsat {
			t.Fatalf("%s: %v %v, want unsat", s.Name(), r.Status, err)
		}
	}
}

func TestDisequalitySplitting(t *testing.T) {
	for _, s := range solvers() {
		// ¬(x = 3) ∧ 2.5 ≤ x ≤ 3.5 — needs splitting-on-demand.
		p := core.NewProblem()
		p.AddClause(-1)
		p.AddClause(2)
		p.AddClause(3)
		p.Bind(0, atomT(t, "x = 3", expr.Real))
		p.Bind(1, atomT(t, "x >= 2.5", expr.Real))
		p.Bind(2, atomT(t, "x <= 3.5", expr.Real))
		r, err := s.Solve(p)
		if err != nil || r.Status != core.StatusSat {
			t.Fatalf("%s: %v %v", s.Name(), r.Status, err)
		}
		if x := r.Model.Real["x"]; x == 3 {
			t.Fatalf("%s: witness sits on excluded point", s.Name())
		}
	}
}

func TestDisequalityUnsat(t *testing.T) {
	for _, s := range solvers() {
		p := core.NewProblem()
		p.AddClause(-1)
		p.AddClause(2)
		p.AddClause(3)
		p.Bind(0, atomT(t, "x = 3", expr.Real))
		p.Bind(1, atomT(t, "x >= 3", expr.Real))
		p.Bind(2, atomT(t, "x <= 3", expr.Real))
		r, err := s.Solve(p)
		if err != nil || r.Status != core.StatusUnsat {
			t.Fatalf("%s: %v %v, want unsat", s.Name(), r.Status, err)
		}
	}
}

func TestGroundLemmasSpeedUpCVC(t *testing.T) {
	// A chain x ≥ 10 ∧ x ≤ 1 among decoys: grounding derives the
	// exclusion eagerly, so CVCLiteLike needs fewer theory checks than
	// MathSATLike on the same instance.
	build := func() *core.Problem {
		p := core.NewProblem()
		p.AddClause(1)
		p.AddClause(2)
		for v := 3; v <= 10; v++ {
			p.AddClause(v, -v)
		}
		p.Bind(0, atomT(t, "x >= 10", expr.Real))
		p.Bind(1, atomT(t, "x <= 1", expr.Real))
		for v := 3; v <= 10; v++ {
			p.Bind(v-1, atomT(t, fmt.Sprintf("x <= %d", 10+v), expr.Real))
		}
		return p
	}
	ms := &MathSATLike{}
	cv := &CVCLiteLike{}
	rm, err1 := ms.Solve(build())
	rc, err2 := cv.Solve(build())
	if err1 != nil || err2 != nil {
		t.Fatalf("%v %v", err1, err2)
	}
	if rm.Status != core.StatusUnsat || rc.Status != core.StatusUnsat {
		t.Fatalf("verdicts %v %v", rm.Status, rc.Status)
	}
	if rc.Stats.Lemmas == 0 {
		t.Fatal("grounding produced no lemmas")
	}
	if rc.Stats.TheoryChecks > rm.Stats.TheoryChecks {
		t.Fatalf("grounded solver used more theory checks (%d) than ungrounded (%d)",
			rc.Stats.TheoryChecks, rm.Stats.TheoryChecks)
	}
}

func TestCVCOutOfMemory(t *testing.T) {
	// A tiny budget triggers the –∗ behaviour on any instance needing a
	// few theory checks.
	// Two-variable atoms dodge the eager grounding pass, forcing a real
	// theory check that charges the accountant.
	p := core.NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	p.Bind(0, atomT(t, "x + y >= 5", expr.Real))
	p.Bind(1, atomT(t, "x + y <= 4", expr.Real))
	cv := &CVCLiteLike{MemoryBudget: 1}
	_, err := cv.Solve(p)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestTimeout(t *testing.T) {
	// An instance with many blocked assignments under a zero-ish timeout.
	p := core.NewProblem()
	for v := 1; v <= 12; v++ {
		p.AddClause(v, -v)
		p.Bind(v-1, atomT(t, "x"+string(rune('a'+v))+" >= 0", expr.Real))
	}
	p.AddClause(1)
	ms := &MathSATLike{Timeout: 1 * time.Nanosecond}
	_, err := ms.Solve(p)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPairRelation(t *testing.T) {
	LT, GT, LE, GE, EQ, NE := expr.CmpLT, expr.CmpGT, expr.CmpLE, expr.CmpGE, expr.CmpEQ, expr.CmpNE
	cases := []struct {
		opA  expr.CmpOp
		a    float64
		opB  expr.CmpOp
		b    float64
		want core.PairRel
	}{
		{GE, 5, LE, 4, core.RelExclusive},
		{GE, 5, LE, 5, core.RelNone},
		{GT, 5, LE, 5, core.RelExclusive},
		{GE, 5, GE, 4, core.RelAImpliesB},
		{GE, 4, GE, 5, core.RelBImpliesA},
		{GE, 5, GT, 5, core.RelBImpliesA}, // x>5 ⇒ x≥5
		{GT, 5, GE, 5, core.RelAImpliesB},
		{LE, 4, LE, 5, core.RelAImpliesB},
		{LT, 5, LE, 5, core.RelAImpliesB},
		{LE, 5, LT, 5, core.RelBImpliesA},
		{EQ, 3, LE, 5, core.RelAImpliesB},
		{EQ, 7, LE, 5, core.RelExclusive},
		{EQ, 3, EQ, 3, core.RelAImpliesB},
		{EQ, 3, EQ, 4, core.RelExclusive},
		{EQ, 3, NE, 4, core.RelAImpliesB},
		{EQ, 3, NE, 3, core.RelExclusive},
		{NE, 3, NE, 3, core.RelAImpliesB},
		{NE, 3, GE, 1, core.RelNone},
		{GE, 1, LE, 3, core.RelNone},
	}
	for i, c := range cases {
		got := core.PairRelation(c.opA, c.a, c.opB, c.b)
		if got != c.want {
			t.Fatalf("case %d: PairRelation(%v %g, %v %g) = %v, want %v",
				i, c.opA, c.a, c.opB, c.b, got, c.want)
		}
	}
}

// TestPairRelationSoundness samples points to confirm every derived lemma.
func TestPairRelationSoundness(t *testing.T) {
	ops := []expr.CmpOp{expr.CmpLT, expr.CmpGT, expr.CmpLE, expr.CmpGE, expr.CmpEQ, expr.CmpNE}
	bounds := []float64{-1, 0, 1}
	points := []float64{-2, -1, -0.5, 0, 0.5, 1, 2}
	for _, opA := range ops {
		for _, a := range bounds {
			for _, opB := range ops {
				for _, b := range bounds {
					rel := core.PairRelation(opA, a, opB, b)
					for _, x := range points {
						// {x} ⊆ {y : y op b} is x op b.
						inA := core.SubsetAtom(expr.CmpEQ, x, opA, a)
						inB := core.SubsetAtom(expr.CmpEQ, x, opB, b)
						switch rel {
						case core.RelExclusive:
							if inA && inB {
								t.Fatalf("exclusive lemma wrong: x=%g in both (%v %g / %v %g)", x, opA, a, opB, b)
							}
						case core.RelAImpliesB:
							if inA && !inB {
								t.Fatalf("A⇒B lemma wrong: x=%g (%v %g / %v %g)", x, opA, a, opB, b)
							}
						case core.RelBImpliesA:
							if inB && !inA {
								t.Fatalf("B⇒A lemma wrong: x=%g (%v %g / %v %g)", x, opA, a, opB, b)
							}
						}
					}
				}
			}
		}
	}
}

func TestAgreesWithEngineOnRandomLinear(t *testing.T) {
	// Baselines and the ABsolver engine must agree on linear verdicts.
	mk := func(seed int) *core.Problem {
		p := core.NewProblem()
		// Three atoms over one variable with varying thresholds; clause
		// pattern from the seed's bits.
		p.Bind(0, atomT(t, "x >= 5", expr.Real))
		p.Bind(1, atomT(t, "x <= 3", expr.Real))
		p.Bind(2, atomT(t, "x = 4", expr.Real))
		for v := 1; v <= 3; v++ {
			if seed>>(v-1)&1 == 1 {
				p.AddClause(v)
			} else {
				p.AddClause(-v)
			}
		}
		return p
	}
	for seed := 0; seed < 8; seed++ {
		ref, err := core.NewEngine(mk(seed), core.Config{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers() {
			r, err := s.Solve(mk(seed))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			if r.Status != ref.Status {
				t.Fatalf("seed %d: %s says %v, engine says %v", seed, s.Name(), r.Status, ref.Status)
			}
		}
	}
}

func TestIntegerBranching(t *testing.T) {
	// 2 < x < 4 over an integer variable: lazy splitting must find x = 3.
	for _, s := range solvers() {
		p := core.NewProblem()
		p.AddClause(1)
		p.AddClause(2)
		p.Bind(0, atomT(t, "x > 2", expr.Int))
		p.Bind(1, atomT(t, "x < 4", expr.Int))
		p.SetBounds("x", -100, 100)
		r, err := s.Solve(p)
		if err != nil || r.Status != core.StatusSat {
			t.Fatalf("%s: %v %v", s.Name(), r.Status, err)
		}
		if r.Model.Real["x"] != 3 {
			t.Fatalf("%s: x = %g, want 3", s.Name(), r.Model.Real["x"])
		}
	}
}

func TestIntegerBranchingUnsat(t *testing.T) {
	// 2 < x < 3 over an integer variable has no solution.
	for _, s := range solvers() {
		p := core.NewProblem()
		p.AddClause(1)
		p.AddClause(2)
		p.Bind(0, atomT(t, "x > 2", expr.Int))
		p.Bind(1, atomT(t, "x < 3", expr.Int))
		p.SetBounds("x", -100, 100)
		r, err := s.Solve(p)
		if err != nil || r.Status != core.StatusUnsat {
			t.Fatalf("%s: %v %v, want unsat", s.Name(), r.Status, err)
		}
	}
}

func TestIntegerNeverFractional(t *testing.T) {
	// A system whose LP relaxation is fractional: x + y = 5, x - y = 2
	// over integers has no solution (x = 3.5); the baselines must not
	// report a fractional witness.
	for _, s := range solvers() {
		p := core.NewProblem()
		p.AddClause(1)
		p.AddClause(2)
		p.Bind(0, atomT(t, "x + y = 5", expr.Int))
		p.Bind(1, atomT(t, "x - y = 2", expr.Int))
		p.SetBounds("x", -10, 10)
		p.SetBounds("y", -10, 10)
		r, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if r.Status == core.StatusSat {
			x := r.Model.Real["x"]
			t.Fatalf("%s: accepted fractional witness x=%g", s.Name(), x)
		}
	}
}

func TestNearlyCompleteArithmeticSudokuStyle(t *testing.T) {
	// A 4-cell all-different over [1,4] with three cells pinned: the lazy
	// splitting loop must place the last cell correctly.
	for _, s := range solvers() {
		p := core.NewProblem()
		lit := 0
		force := func(src string) {
			lit++
			p.Bind(lit-1, atomT(t, src, expr.Int))
			p.AddClause(lit)
		}
		cells := []string{"c1", "c2", "c3", "c4"}
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				force(cells[i] + " - " + cells[j] + " != 0")
			}
		}
		force("c1 = 1")
		force("c2 = 2")
		force("c3 = 3")
		for _, c := range cells {
			p.SetBounds(c, 1, 4)
		}
		r, err := s.Solve(p)
		if err != nil || r.Status != core.StatusSat {
			t.Fatalf("%s: %v %v", s.Name(), r.Status, err)
		}
		if r.Model.Real["c4"] != 4 {
			t.Fatalf("%s: c4 = %g, want 4", s.Name(), r.Model.Real["c4"])
		}
	}
}

// TestReproducibleStats: the baselines iterate their atom bindings in
// variable order, so the LP row order, the lemma order and every counter
// repeat from run to run (Tables 2 and 3 report theory_checks).
func TestReproducibleStats(t *testing.T) {
	for n := 1; n <= 2; n++ {
		b, err := smtlib.Parse(fischer.Generate(fischer.Params{N: n}).SMTLIB())
		if err != nil {
			t.Fatal(err)
		}
		p := b.ToProblem()
		for _, s := range solvers() {
			var first Result
			for run := 0; run < 5; run++ {
				res, err := s.Solve(p.Clone())
				if err != nil {
					t.Fatalf("FISCHER%d %s: %v", n, s.Name(), err)
				}
				if run == 0 {
					first = res
				} else if res.Status != first.Status || res.Stats != first.Stats {
					t.Fatalf("FISCHER%d %s run %d: %v %+v, run 0: %v %+v", n, s.Name(), run, res.Status, res.Stats, first.Status, first.Stats)
				}
			}
		}
	}
}
