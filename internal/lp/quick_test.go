package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickFeasibleByConstruction: systems built around a known point are
// always found feasible, and the returned witness verifies.
func TestQuickFeasibleByConstruction(t *testing.T) {
	vars := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x0 := map[string]float64{}
		for _, v := range vars {
			x0[v] = rng.Float64()*20 - 10
		}
		p := NewProblem()
		for i := 0; i < 1+rng.Intn(10); i++ {
			coeffs := map[string]float64{}
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					coeffs[v] = rng.Float64()*4 - 2
				}
			}
			lhs := 0.0
			for v, cc := range coeffs {
				lhs += cc * x0[v]
			}
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(coeffs, LE, lhs+rng.Float64())
			case 1:
				p.AddConstraint(coeffs, GE, lhs-rng.Float64())
			default:
				p.AddConstraint(coeffs, EQ, lhs)
			}
		}
		r := p.Solve()
		return r.Status == Feasible && p.Verify(r.X, false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIISIsInfeasibleSubset: for infeasible systems, the IIS really
// is an infeasible subset, and removing any single member makes it
// feasible (irreducibility).
func TestQuickIISIsInfeasibleSubset(t *testing.T) {
	vars := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		// Embed a guaranteed conflict.
		coeffs := map[string]float64{}
		for _, v := range vars {
			coeffs[v] = rng.Float64()*4 - 2
		}
		bound := rng.Float64() * 10
		p.AddConstraint(cloneCoeffs(coeffs), GE, bound+1+rng.Float64())
		p.AddConstraint(cloneCoeffs(coeffs), LE, bound)
		// Noise constraints.
		for i := 0; i < rng.Intn(8); i++ {
			cs := map[string]float64{vars[rng.Intn(len(vars))]: rng.Float64()*2 - 1}
			p.AddConstraint(cs, LE, 10+rng.Float64()*100)
		}
		iis := p.IIS()
		if iis == nil {
			return false // must be infeasible
		}
		// Subset infeasible?
		sub := NewProblem()
		for _, i := range iis {
			sub.Constraints = append(sub.Constraints, p.Constraints[i])
		}
		if sub.Solve().Status != Infeasible {
			return false
		}
		// Irreducible?
		for drop := range iis {
			q := NewProblem()
			for j, i := range iis {
				if j != drop {
					q.Constraints = append(q.Constraints, p.Constraints[i])
				}
			}
			if q.Solve().Status == Infeasible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func cloneCoeffs(m map[string]float64) map[string]float64 {
	c := make(map[string]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// TestQuickPropagationSoundness: if bound propagation claims infeasible,
// simplex agrees.
func TestQuickPropagationSoundness(t *testing.T) {
	vars := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				lo := rng.Float64()*10 - 5
				p.SetBounds(v, lo, lo+rng.Float64()*10)
			}
		}
		for i := 0; i < 1+rng.Intn(8); i++ {
			coeffs := map[string]float64{}
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					coeffs[v] = float64(rng.Intn(9) - 4)
				}
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(coeffs, rel, float64(rng.Intn(21)-10))
		}
		if p.RefutedByPropagation() {
			return p.Solve().Status == Infeasible
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPresolveEquivalence: Solve with presolve agrees with a direct
// tableau solve on feasibility status.
func TestQuickPresolveEquivalence(t *testing.T) {
	vars := []string{"a", "b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		for i := 0; i < 1+rng.Intn(8); i++ {
			coeffs := map[string]float64{}
			nv := 1 + rng.Intn(2)
			for j := 0; j < nv; j++ {
				coeffs[vars[rng.Intn(len(vars))]] = float64(rng.Intn(9) - 4)
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(coeffs, rel, float64(rng.Intn(13)-6))
		}
		got := p.Solve().Status
		// Direct tableau (no presolve).
		direct := solveWithoutPresolve(p)
		if got == IterLimit || direct == IterLimit {
			return true
		}
		return got == direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// solveWithoutPresolve runs the tableau over every row of p, unit and
// constant rows included.
func solveWithoutPresolve(p *Problem) Status {
	r := p.compile()
	t := &tableau{r: r, ctx: context.Background()}
	t.has = make([]bool, len(r.lo0))
	t.x = make([]float64, len(r.lo0))
	t.lo = append(t.lo, r.lo0...)
	t.hi = append(t.hi, r.hi0...)
	t.hasLo = append(t.hasLo, r.hasLo...)
	t.hasHi = append(t.hasHi, r.hasHi...)
	for i := range r.rows {
		t.live = append(t.live, i)
	}
	t.build(0)
	return t.run()
}

// TestQuickMIPRespectsIntegrality: SolveMIP returns integral values for
// marked variables, verified against bounds and rows.
func TestQuickMIPRespectsIntegrality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		p.MarkInteger("x")
		p.MarkInteger("y")
		p.SetBounds("x", 0, 8)
		p.SetBounds("y", 0, 8)
		for i := 0; i < 1+rng.Intn(5); i++ {
			coeffs := map[string]float64{
				"x": float64(rng.Intn(7) - 3),
				"y": float64(rng.Intn(7) - 3),
			}
			rel := []Rel{LE, GE}[rng.Intn(2)]
			p.AddConstraint(coeffs, rel, float64(rng.Intn(17)-8))
		}
		r := p.SolveMIP(0)
		if r.Status != Feasible {
			return true
		}
		if math.Abs(r.X["x"]-math.Round(r.X["x"])) > 1e-6 {
			return false
		}
		if math.Abs(r.X["y"]-math.Round(r.X["y"])) > 1e-6 {
			return false
		}
		return p.Verify(r.X, true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMIPEpsilonStrictUnbounded regression-tests the branch-and-bound fix
// for ε-strict rows over unbounded integer variables (u > 0 relaxed to
// u ≥ 1e-6 once left the root node's near-integral witness unexplored).
func TestMIPEpsilonStrictUnbounded(t *testing.T) {
	p := NewProblem()
	p.MarkInteger("v")
	p.MarkInteger("u")
	p.AddConstraint(map[string]float64{"v": 1}, LE, -4)
	p.AddConstraint(map[string]float64{"v": 1}, LE, -4)
	p.AddConstraint(map[string]float64{"u": 1}, GE, 1e-6)
	r := p.SolveMIP(0)
	if r.Status != Feasible {
		t.Fatalf("status = %v, want feasible (u=1, v=-4)", r.Status)
	}
	if r.X["u"] < 1 || r.X["v"] > -4 {
		t.Fatalf("witness %v", r.X)
	}
}
