package polyar

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"absolver/internal/expr"
	"absolver/internal/interval"
	"absolver/internal/lp"
)

// FuzzPolyARRegion pins the relaxation soundness invariant: for a random
// region box and random polynomial atoms known to be satisfied at a
// sampled point, the canonical extension of that point (aux variables set
// to their subterms' exact values) must satisfy every relaxation row and
// every aux bound, and the region LP must not report Infeasible. A
// violation would mean a relaxation that cuts off a feasible point —
// exactly the bug class that would make PolyAR prune satisfiable regions.
func FuzzPolyARRegion(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))

		box := expr.Box{}
		vars := []string{"x", "y"}
		for _, v := range vars {
			lo := -5 + 10*rng.Float64()
			box[v] = interval.Interval{Lo: lo, Hi: lo + 0.25 + 8*rng.Float64()}
		}
		point := expr.Env{}
		for _, v := range vars {
			iv := box[v]
			point[v] = iv.Lo + rng.Float64()*iv.Width()
		}

		atoms := randomFeasibleAtoms(rng, point)
		if len(atoms) == 0 {
			return
		}

		rx := compileRelaxation(atoms, vars)
		var g region
		g.fill(rx, box)
		full, err := rx.extend(point)
		if err != nil {
			// The sampled point is outside some subterm's domain; the
			// atom evaluation below would have failed the same way.
			return
		}

		// Aux bounds: exact subterm values must sit inside the interval
		// ranges the relaxer assigned.
		for _, a := range rx.aux {
			v := full[a.slot]
			lo, hi := g.rows.Bounds(a.slot)
			if v < lo-tolFor(lo) {
				t.Fatalf("seed %d: aux %s = %v below bound %v (term %s)", seed, a.name, v, lo, expr.String(a.e))
			}
			if v > hi+tolFor(hi) {
				t.Fatalf("seed %d: aux %s = %v above bound %v (term %s)", seed, a.name, v, hi, expr.String(a.e))
			}
		}

		// Every relaxation row must hold at the canonical extension.
		for i := 0; i < g.rows.NumRows(); i++ {
			c := g.rows.Row(i)
			lhs, scale := 0.0, 1.0+math.Abs(c.RHS)
			for _, tm := range c.Terms {
				lhs += tm.Coeff * full[tm.Var]
				scale += math.Abs(tm.Coeff * full[tm.Var])
			}
			tol := 1e-9 * scale
			bad := false
			switch c.Rel {
			case lp.LE:
				bad = lhs > c.RHS+tol
			case lp.GE:
				bad = lhs < c.RHS-tol
			case lp.EQ:
				bad = math.Abs(lhs-c.RHS) > tol
			}
			if bad {
				t.Fatalf("seed %d: row %d (%v) cut feasible point: lhs=%v rhs=%v atoms=%v point=%v",
					seed, i, c, lhs, c.RHS, atoms, point)
			}
		}

		// And the simplex must agree the region survives.
		if st := g.lp.Solve(context.Background(), &g.rows, 20000); st == lp.Infeasible {
			t.Fatalf("seed %d: LP infeasible though %v satisfies %v", seed, point, atoms)
		}
	})
}

func tolFor(bound float64) float64 {
	return 1e-9 * (1 + math.Abs(bound))
}

// randomFeasibleAtoms builds 1-3 random polynomial/transcendental atoms
// constructed to hold at point: the comparison bound is placed on the
// satisfied side of the term's exact value there.
func randomFeasibleAtoms(rng *rand.Rand, point expr.Env) []expr.Atom {
	x, y := expr.V("x"), expr.V("y")
	templates := []expr.Expr{
		expr.Mul(x, y),
		expr.Mul(x, x),
		expr.Add(expr.Mul(x, x), expr.Mul(y, y)),
		expr.Sub(expr.Mul(x, y), x),
		expr.Mul(expr.Add(x, y), expr.Sub(x, y)),
		expr.Mul(expr.Mul(x, x), y),
		expr.Div(x, expr.Add(expr.Mul(y, y), expr.C(1))),
		expr.Exp(expr.Mul(expr.C(0.5), x)),
		expr.Abs(expr.Sub(x, y)),
		expr.Sqrt(expr.Add(expr.Mul(x, x), expr.C(0.5))),
		expr.Log(expr.Add(expr.Mul(y, y), expr.C(2))),
		expr.Sin(x),
		expr.Add(expr.Mul(x, expr.Mul(y, y)), expr.Cos(y)),
	}
	n := 1 + rng.Intn(3)
	atoms := make([]expr.Atom, 0, n)
	for i := 0; i < n; i++ {
		e := templates[rng.Intn(len(templates))]
		val, err := e.Eval(point)
		if err != nil || math.IsNaN(val) || math.IsInf(val, 0) {
			continue
		}
		slack := rng.Float64() * 2
		var a expr.Atom
		switch rng.Intn(5) {
		case 0:
			a = expr.Atom{LHS: e, Op: expr.CmpLE, RHS: expr.C(val + slack)}
		case 1:
			a = expr.Atom{LHS: e, Op: expr.CmpGE, RHS: expr.C(val - slack)}
		case 2:
			a = expr.Atom{LHS: e, Op: expr.CmpLT, RHS: expr.C(val + slack + 0.01)}
		case 3:
			a = expr.Atom{LHS: e, Op: expr.CmpGT, RHS: expr.C(val - slack - 0.01)}
		case 4:
			a = expr.Atom{LHS: e, Op: expr.CmpEQ, RHS: expr.C(val)}
		}
		atoms = append(atoms, a)
	}
	return atoms
}
