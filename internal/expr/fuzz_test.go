package expr

import "testing"

// FuzzParseExpr exercises the infix parser; parsed expressions must print
// to a form that re-parses.
func FuzzParseExpr(f *testing.F) {
	f.Add("a * x + 3.5 / ( 4 - y ) + 2 * y")
	f.Add("-x - -y")
	f.Add("sin(x)*cos(y)+exp(z)")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		s := String(e)
		if _, err := Parse(s); err != nil {
			t.Fatalf("printed form %q does not re-parse: %v (from %q)", s, err, src)
		}
	})
}

// FuzzTapeMatchesEval parses like FuzzParseExpr and checks that the
// compiled tape agrees with Expr.Eval at the fuzzed point: the same bits
// and a failure exactly where Eval errs. The expression's variables take
// the three coordinates in turn.
func FuzzTapeMatchesEval(f *testing.F) {
	f.Add("a * x + 3.5 / ( 4 - y ) + 2 * y", 1.0, 4.0, 0.0)
	f.Add("log(x - 1) + sqrt(-y)", 1.0, 2.0, 0.0)
	f.Add("--abs(-x) / (x - x)", 0.0, 0.0, 0.0)
	f.Add("sin(x)*cos(y)+exp(z)", 0.5, -1.0, 700.0)
	f.Fuzz(func(t *testing.T, src string, x, y, z float64) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		coords := []float64{x, y, z}
		slot := map[string]int{}
		env := Env{}
		for i, name := range Vars(e) {
			slot[name] = i
			env[name] = coords[i%len(coords)]
		}
		if !sameEval(t, e, slot, env) {
			t.Fatalf("tape and Eval disagree on %q", src)
		}
	})
}

// FuzzParseAtom exercises the comparison parser.
func FuzzParseAtom(f *testing.F) {
	f.Add("2*i + j < 10")
	f.Add("x != 0")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParseAtom(src, Real)
		if err != nil {
			return
		}
		if _, err := ParseAtom(a.String(), Real); err != nil {
			t.Fatalf("printed atom %q does not re-parse: %v", a.String(), err)
		}
	})
}
