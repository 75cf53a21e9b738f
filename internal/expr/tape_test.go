package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genTapeExpr extends genExpr with every unary function — log and sqrt
// reach their domain errors on half the points — and with nested
// negations.
func genTapeExpr(rng *rand.Rand, depth int, xs []string) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return genExpr(rng, depth, xs)
	}
	switch rng.Intn(4) {
	case 0:
		return Call{Func(rng.Intn(int(FuncAbs) + 1)), genTapeExpr(rng, depth-1, xs)}
	case 1:
		return Neg{Neg{genTapeExpr(rng, depth-1, xs)}}
	default:
		return Bin{Op(rng.Intn(int(OpDiv) + 1)), genTapeExpr(rng, depth-1, xs), genTapeExpr(rng, depth-1, xs)}
	}
}

// tapePoints are coordinates that hit the generator's constants (half
// integers) exactly, so x − 1, 1/(x − x) and log(y − 0.5) reach zero and
// the domain edges.
var tapePoints = []float64{-2, -1, -0.5, 0, 0.5, 1, 2, math.Inf(1)}

// sameEval reports whether the tape and Expr.Eval agree at env: the same
// float64 bits (any NaN matches any NaN: the payload of an operation on
// two NaNs depends on the operand order the compiler picks) and ok exactly
// when Eval returns no error.
func sameEval(t *testing.T, e Expr, slot map[string]int, env Env) bool {
	t.Helper()
	tape := Compile(e, slot)
	x := make([]float64, len(slot))
	for name, s := range slot {
		x[s] = env[name]
	}
	got, ok := tape.Eval(x, make([]float64, tape.Depth()))
	want, err := e.Eval(env)
	if ok != (err == nil) {
		t.Logf("%s at %v: tape ok=%v, Eval err=%v", String(e), env, ok, err)
		return false
	}
	if ok && math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Logf("%s at %v: tape %v, Eval %v", String(e), env, got, want)
		return false
	}
	return true
}

// TestQuickTapeMatchesEval compares the compiled tape with the tree
// evaluator on seeded expressions and points, domain errors included.
func TestQuickTapeMatchesEval(t *testing.T) {
	xs := []string{"x", "y", "z"}
	slot := map[string]int{"x": 0, "y": 1, "z": 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genTapeExpr(rng, 5, xs)
		for i := 0; i < 20; i++ {
			env := Env{}
			for _, v := range xs {
				if rng.Intn(2) == 0 {
					env[v] = tapePoints[rng.Intn(len(tapePoints))]
				} else {
					env[v] = rng.Float64()*10 - 5
				}
			}
			if !sameEval(t, e, slot, env) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestTapeEdgeCases covers each failure Eval reports and the constructs
// the generator reaches rarely.
func TestTapeEdgeCases(t *testing.T) {
	slot := map[string]int{"x": 0, "y": 1}
	cases := []Expr{
		Div(V("x"), Sub(V("y"), V("y"))), // division by zero
		Div(C(1), V("x")),
		Log(V("x")),
		Log(C(0)),
		Sqrt(V("x")),
		Sqrt(Neg{C(1)}),
		Abs(Neg{Neg{Neg{V("x")}}}),
		Neg{C(0)}, // −0 keeps its sign bit
		Exp(Mul(V("x"), V("y"))),
		Cos(Sin(V("y"))),
		Add(V("unbound"), V("x")),
		Mul(Div(C(1), C(0)), V("unbound")),
		Bin{Op(99), V("x"), V("y")},
		Call{Func(99), V("x")},
	}
	for _, e := range cases {
		for _, x := range []float64{-1, 0, math.Copysign(0, -1), 0.25, 4} {
			for _, y := range []float64{-3, 0, 2} {
				if !sameEval(t, e, slot, Env{"x": x, "y": y}) {
					t.Errorf("tape and Eval disagree on %s", String(e))
				}
			}
		}
	}
}
