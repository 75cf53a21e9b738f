package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFeasibleSimple(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": 1}, LE, 10)
	p.AddConstraint(map[string]float64{"x": 1}, GE, 2)
	p.AddConstraint(map[string]float64{"y": 1}, GE, 3)
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if err := p.Verify(r.X, false); err != nil {
		t.Fatal(err)
	}
}

func TestInfeasibleSimple(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1}, GE, 5)
	p.AddConstraint(map[string]float64{"x": 1}, LE, 4)
	r := p.Solve()
	if r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestEqualitySystem(t *testing.T) {
	// x + y = 4, x - y = 2 → x=3, y=1.
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": 1}, EQ, 4)
	p.AddConstraint(map[string]float64{"x": 1, "y": -1}, EQ, 2)
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(r.X["x"]-3) > 1e-6 || math.Abs(r.X["y"]-1) > 1e-6 {
		t.Fatalf("got x=%g y=%g", r.X["x"], r.X["y"])
	}
}

func TestInconsistentEqualities(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": 1}, EQ, 4)
	p.AddConstraint(map[string]float64{"x": 1, "y": 1}, EQ, 5)
	if r := p.Solve(); r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestFreeVariables(t *testing.T) {
	// Free variables may need to go negative: x + y = -10, x - y = 0.
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": 1}, EQ, -10)
	p.AddConstraint(map[string]float64{"x": 1, "y": -1}, EQ, 0)
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(r.X["x"]+5) > 1e-6 || math.Abs(r.X["y"]+5) > 1e-6 {
		t.Fatalf("got x=%g y=%g", r.X["x"], r.X["y"])
	}
}

func TestBounds(t *testing.T) {
	p := NewProblem()
	p.SetBounds("x", -7, 7)
	p.AddConstraint(map[string]float64{"x": 1}, GE, 6)
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if r.X["x"] < 6-1e-7 || r.X["x"] > 7+1e-7 {
		t.Fatalf("x = %g out of [6,7]", r.X["x"])
	}
	p2 := NewProblem()
	p2.SetBounds("x", -7, 7)
	p2.AddConstraint(map[string]float64{"x": 1}, GE, 8)
	if r := p2.Solve(); r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestUpperBoundOnly(t *testing.T) {
	p := NewProblem()
	p.SetBounds("x", math.Inf(-1), -3)
	p.AddConstraint(map[string]float64{"x": 1}, LE, -5)
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if err := p.Verify(r.X, false); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateCycleGuard(t *testing.T) {
	// Beale's cycling example (cycles under naive Dantzig without
	// anti-cycling) as a feasibility problem: its objective
	// -0.75x4 + 150x5 - 0.02x6 + 6x7, whose minimum is -0.05, becomes the
	// row ≤ -0.05, so phase 1 must pivot through the degenerate rows and
	// Bland's rule must terminate.
	p := NewProblem()
	for _, v := range []string{"x4", "x5", "x6", "x7"} {
		p.SetBounds(v, 0, math.Inf(1))
	}
	p.AddConstraint(map[string]float64{"x4": 0.25, "x5": -60, "x6": -0.04, "x7": 9}, LE, 0)
	p.AddConstraint(map[string]float64{"x4": 0.5, "x5": -90, "x6": -0.02, "x7": 3}, LE, 0)
	p.AddConstraint(map[string]float64{"x6": 1}, LE, 1)
	p.AddConstraint(map[string]float64{"x4": -0.75, "x5": 150, "x6": -0.02, "x7": 6}, LE, -0.05)
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Pivots == 0 {
		t.Fatal("no pivots: the degenerate rows were never pivoted through")
	}
	if err := p.Verify(r.X, false); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	r := p.Solve()
	if r.Status != Feasible {
		t.Fatalf("empty problem must be feasible, got %v", r.Status)
	}
}

func TestZeroRowFeasible(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{}, LE, 5) // 0 ≤ 5
	if r := p.Solve(); r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestZeroRowInfeasible(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{}, GE, 5) // 0 ≥ 5
	if r := p.Solve(); r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
}

// TestRandomFeasibleByConstruction builds systems around a known point; the
// solver must find them feasible and Verify must accept its answer.
func TestRandomFeasibleByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vars := []string{"a", "b", "c", "d", "e"}
	for iter := 0; iter < 200; iter++ {
		// Random target point.
		x0 := map[string]float64{}
		for _, v := range vars {
			x0[v] = rng.Float64()*20 - 10
		}
		p := NewProblem()
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			coeffs := map[string]float64{}
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					coeffs[v] = rng.Float64()*4 - 2
				}
			}
			lhs := 0.0
			for v, c := range coeffs {
				lhs += c * x0[v]
			}
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(coeffs, LE, lhs+rng.Float64())
			case 1:
				p.AddConstraint(coeffs, GE, lhs-rng.Float64())
			case 2:
				p.AddConstraint(coeffs, EQ, lhs)
			}
		}
		r := p.Solve()
		if r.Status != Feasible {
			t.Fatalf("iter %d: known-feasible system reported %v", iter, r.Status)
		}
		if err := p.Verify(r.X, false); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestRandomInfeasibleByConstruction embeds a contradictory pair.
func TestRandomInfeasibleByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vars := []string{"a", "b", "c"}
	for iter := 0; iter < 100; iter++ {
		p := NewProblem()
		coeffs := map[string]float64{}
		for _, v := range vars {
			coeffs[v] = rng.Float64()*4 - 2
		}
		bound := rng.Float64() * 10
		p.AddConstraint(coeffs, GE, bound+1)
		neg := map[string]float64{}
		for v, c := range coeffs {
			neg[v] = c
		}
		p.AddConstraint(neg, LE, bound)
		// Noise rows.
		for i := 0; i < rng.Intn(5); i++ {
			cs := map[string]float64{vars[rng.Intn(len(vars))]: rng.Float64()*2 - 1}
			p.AddConstraint(cs, LE, rng.Float64()*100)
		}
		if r := p.Solve(); r.Status != Infeasible {
			t.Fatalf("iter %d: contradictory system reported %v", iter, r.Status)
		}
	}
}

func TestIISMinimal(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1}, LE, 10) // 0: harmless
	p.AddConstraint(map[string]float64{"x": 1}, GE, 5)  // 1: conflicts with 2
	p.AddConstraint(map[string]float64{"x": 1}, LE, 4)  // 2
	p.AddConstraint(map[string]float64{"y": 1}, GE, 0)  // 3: harmless
	iis := p.IIS()
	if len(iis) != 2 || iis[0] != 1 || iis[1] != 2 {
		t.Fatalf("IIS = %v, want [1 2]", iis)
	}
}

func TestIISOnFeasible(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1}, LE, 10)
	if iis := p.IIS(); iis != nil {
		t.Fatalf("IIS of feasible problem = %v, want nil", iis)
	}
}

func TestIISIsIrreducible(t *testing.T) {
	// Chain x ≥ y+1, y ≥ z+1, z ≥ x+1 is infeasible only all together.
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": -1}, GE, 1)
	p.AddConstraint(map[string]float64{"y": 1, "z": -1}, GE, 1)
	p.AddConstraint(map[string]float64{"z": 1, "x": -1}, GE, 1)
	p.AddConstraint(map[string]float64{"w": 1}, LE, 100) // irrelevant
	iis := p.IIS()
	if len(iis) != 3 {
		t.Fatalf("IIS = %v, want the 3-cycle", iis)
	}
	for _, i := range iis {
		if i == 3 {
			t.Fatal("irrelevant constraint in IIS")
		}
	}
	// Irreducibility: every proper subset is feasible.
	for drop := 0; drop < 3; drop++ {
		q := NewProblem()
		for j, c := range p.Constraints[:3] {
			if j != drop {
				q.Constraints = append(q.Constraints, c)
			}
		}
		if r := q.Solve(); r.Status != Feasible {
			t.Fatalf("dropping %d should be feasible", drop)
		}
	}
}

func TestMIPSimple(t *testing.T) {
	// x integer, 1.2 ≤ x ≤ 1.8 is infeasible; 1.2 ≤ x ≤ 2.3 gives x=2.
	p := NewProblem()
	p.MarkInteger("x")
	p.SetBounds("x", 1.2, 1.8)
	if r := p.SolveMIP(0); r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
	p2 := NewProblem()
	p2.MarkInteger("x")
	p2.SetBounds("x", 1.2, 2.3)
	r := p2.SolveMIP(0)
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if r.X["x"] != 2 {
		t.Fatalf("x = %g, want 2", r.X["x"])
	}
}

func TestMIPEqualities(t *testing.T) {
	// a + b = 7, a - b = 2 has no integer solution (a=4.5);
	// a + b = 8, a - b = 2 does (a=5, b=3).
	p := NewProblem()
	p.MarkInteger("a")
	p.MarkInteger("b")
	p.SetBounds("a", -100, 100)
	p.SetBounds("b", -100, 100)
	p.AddConstraint(map[string]float64{"a": 1, "b": 1}, EQ, 7)
	p.AddConstraint(map[string]float64{"a": 1, "b": -1}, EQ, 2)
	if r := p.SolveMIP(0); r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
	p2 := NewProblem()
	p2.MarkInteger("a")
	p2.MarkInteger("b")
	p2.SetBounds("a", -100, 100)
	p2.SetBounds("b", -100, 100)
	p2.AddConstraint(map[string]float64{"a": 1, "b": 1}, EQ, 8)
	p2.AddConstraint(map[string]float64{"a": 1, "b": -1}, EQ, 2)
	r := p2.SolveMIP(0)
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
	if r.X["a"] != 5 || r.X["b"] != 3 {
		t.Fatalf("got a=%g b=%g", r.X["a"], r.X["b"])
	}
}

func TestRandomMIPAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 80; iter++ {
		// 2-3 integer vars in [0,6], random ≤ rows; brute-force feasibility.
		nv := 2 + rng.Intn(2)
		vars := []string{"x", "y", "z"}[:nv]
		p := NewProblem()
		for _, v := range vars {
			p.MarkInteger(v)
			p.SetBounds(v, 0, 6)
		}
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			coeffs := map[string]float64{}
			for _, v := range vars {
				coeffs[v] = float64(rng.Intn(7) - 3)
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(coeffs, rel, float64(rng.Intn(13)-6))
		}
		want := false
	enum:
		for a := 0; a <= 6; a++ {
			for b := 0; b <= 6; b++ {
				for c := 0; c <= 6; c++ {
					if nv == 2 && c > 0 {
						break
					}
					x := map[string]float64{"x": float64(a), "y": float64(b), "z": float64(c)}
					ok := true
					for _, con := range p.Constraints {
						if !con.Satisfied(x) {
							ok = false
							break
						}
					}
					if ok {
						want = true
						break enum
					}
				}
			}
		}
		r := p.SolveMIP(0)
		got := r.Status == Feasible
		if got != want {
			t.Fatalf("iter %d: MIP says %v, enumeration says %v\n%v", iter, r.Status, want, p.Constraints)
		}
		if got {
			if err := p.Verify(r.X, true); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{Coeffs: map[string]float64{"x": 2, "y": -1}, Rel: LE, RHS: 3}
	if got := c.String(); got != "2*x + -1*y <= 3" {
		t.Fatalf("String() = %q", got)
	}
}
