package lustre

import (
	"strings"
	"testing"

	"absolver/internal/core"
	"absolver/internal/simulink"
)

const fig1Lustre = `
node fig1(a, x, y: real; i, j: int) returns (Out1: bool);
var v1: bool;
let
  v1 = (i >= 0) and (j >= 0);
  Out1 = v1 and ((not (2*i + j < 10)) or (i + j < 5))
            and (a*x + 3.5/(4.0 - y) + 2.0*y >= 7.1);
tel;
`

func TestParseBasics(t *testing.T) {
	p, err := Parse(fig1Lustre)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Main()
	if n.Name != "fig1" {
		t.Fatalf("name = %q", n.Name)
	}
	if len(n.Inputs) != 5 || len(n.Outputs) != 1 || len(n.Locals) != 1 {
		t.Fatalf("decls: %d in, %d out, %d local", len(n.Inputs), len(n.Outputs), len(n.Locals))
	}
	if n.Inputs[3].Type != TInt || n.Inputs[0].Type != TReal {
		t.Fatal("input types wrong")
	}
	if len(n.Equations) != 2 {
		t.Fatalf("equations = %d", len(n.Equations))
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	p, err := Parse(fig1Lustre)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(p)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if Format(p2) != text {
		t.Fatalf("format not idempotent:\n%s\nvs\n%s", text, Format(p2))
	}
}

func TestExtractFig1(t *testing.T) {
	p, err := Parse(fig1Lustre)
	if err != nil {
		t.Fatal(err)
	}
	c, nums, err := Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) != 0 {
		t.Fatalf("unexpected numeric outputs: %v", nums)
	}
	if got := len(c.Atoms()); got != 5 {
		t.Fatalf("atoms = %d, want 5", got)
	}
	prob := core.FromCircuit(c)
	for _, v := range []string{"a", "x", "i", "j"} {
		prob.SetBounds(v, -10, 10)
	}
	prob.SetBounds("y", -10, 3.9)
	res, err := core.NewEngine(prob, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if err := prob.Check(*res.Model); err != nil {
		t.Fatal(err)
	}
}

func TestFromSimulinkFig1(t *testing.T) {
	// The full Fig. 3 pipeline on the Fig. 1 model: Simulink → Lustre →
	// text → parse → AB problem → solve.
	m := simulink.Fig1()
	prog, err := FromSimulink(m)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("generated Lustre does not re-parse: %v\n%s", err, text)
	}
	prob, err := ExtractProblem(prog2)
	if err != nil {
		t.Fatal(err)
	}
	cl, _, lin, nl := prob.Counts()
	if cl == 0 {
		t.Fatal("no clauses")
	}
	if lin+nl != 5 || nl != 1 {
		t.Fatalf("atoms: %d linear, %d nonlinear; want 4/1", lin, nl)
	}
	for _, v := range []string{"a", "x", "i", "j"} {
		prob.SetBounds(v, -10, 10)
	}
	prob.SetBounds("y", -10, 3.9)
	res, err := core.NewEngine(prob, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestNumericIteAux(t *testing.T) {
	src := `
node sw(u, c: real) returns (o: bool);
let
  o = (if c >= 0.5 then u else 9.0) >= 5.0;
tel;
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := ExtractProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	prob.SetBounds("u", 0, 1)
	prob.SetBounds("c", 0, 1)
	res, err := core.NewEngine(prob, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Model.Real["c"] >= 0.5 {
		t.Fatalf("c = %g must be < 0.5 to reach the else branch", res.Model.Real["c"])
	}
}

func TestBooleanIteAndOperators(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      core.Status
		minX      float64 // exclusive lower bound on a sat model's x
	}{
		// p xor false forces p; then x > 1 and x > 0.
		{"ite-implies-xor", `node ops(x: real; p: bool) returns (o: bool);
let o = (if p then x > 1.0 else x < -1.0) and (p => x > 0.0) and (p xor false); tel;`, core.StatusSat, 1},
		// A Boolean if-then-else is a Boolean operand of '='.
		{"ite-iff-unsat", `node n(a, b, c: bool) returns (o: bool);
let o = ((if a then b else c) = a) and a and not b; tel;`, core.StatusUnsat, 0},
		{"ite-iff-sat", `node n(a, b, c: bool) returns (o: bool);
let o = ((if a then b else c) = a) and not a and not c; tel;`, core.StatusSat, 0},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prob, err := ExtractProblem(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.minX != 0 {
			prob.SetBounds("x", -10, 10)
		}
		res, err := core.NewEngine(prob, core.Config{}).Solve()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != tc.want {
			t.Fatalf("%s: status = %v, want %v", tc.name, res.Status, tc.want)
		}
		if tc.minX != 0 && res.Model.Real["x"] <= tc.minX {
			t.Fatalf("%s: x = %g should be > %g", tc.name, res.Model.Real["x"], tc.minX)
		}
	}
}

func TestExtractErrors(t *testing.T) {
	bad := []string{
		// Type error: bool flow used numerically.
		"node n(p: bool) returns (o: bool); let o = p + 1 > 0; tel;",
		// Cycle.
		"node n(x: real) returns (o: bool); var a: real; let a = a + 1; o = a > 0; tel;",
		// Missing equation.
		"node n(x: real) returns (o: bool); var a: real; let o = a > 0; tel;",
		// Duplicate equation.
		"node n(x: real) returns (o: bool); let o = x > 0; o = x < 0; tel;",
		// No Boolean outputs.
		"node n(x: real) returns (o: real); let o = x + 1; tel;",
		// Equation for an input.
		"node n(a: bool) returns (o: bool); let a = true; o = a; tel;",
		// Equation for an undeclared flow.
		"node n(x: real) returns (o: bool); let o = x > 0; ghost = x > 1; tel;",
		// Declared flow with no equation, never read.
		"node n(x: real) returns (o: bool); var l: real; let o = x > 0; tel;",
		// A flow declared twice: an input redeclared as an output.
		"node n(a: bool) returns (o: bool; a: int); let o = a > 0; tel;",
		"node n(a: bool) returns (o: bool; a: bool); let o = a; tel;",
		// An output redeclared as a local.
		"node n(x: real) returns (o: bool); var o: bool; let o = x > 0; tel;",
	}
	for _, src := range bad {
		p, err := Parse(src)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, _, err := Extract(p); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"node",
		"node f(x real) returns (o: bool); let o = true; tel;",
		"node f(x: real) returns (o: bool); let o = ; tel;",
		"node f(x: real) returns (o: bool); let o = x > ; tel;",
		"node f(x: quaternion) returns (o: bool); let o = true; tel;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("accepted %q", src)
		}
	}
}

func TestCommentsAndMultiNode(t *testing.T) {
	src := `
-- helper node first
node helper(x: real) returns (o: bool);
let o = x > 0.0; tel;
-- main node last wins
node main(y: real) returns (o: bool);
let o = y < 0.0; tel;
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 2 || p.Main().Name != "main" {
		t.Fatalf("nodes: %d, main: %q", len(p.Nodes), p.Main().Name)
	}
}

func TestFormatExprPrecedence(t *testing.T) {
	// (a + b) * c must keep parentheses; a + b * c must not add them.
	e1 := Binary{Op: "*", L: Binary{Op: "+", L: Ref{"a"}, R: Ref{"b"}}, R: Ref{"c"}}
	if got := FormatExpr(e1); got != "(a + b) * c" {
		t.Fatalf("got %q", got)
	}
	e2 := Binary{Op: "+", L: Ref{"a"}, R: Binary{Op: "*", L: Ref{"b"}, R: Ref{"c"}}}
	if got := FormatExpr(e2); got != "a + b * c" {
		t.Fatalf("got %q", got)
	}
	if !strings.Contains(FormatExpr(Ite{Ref{"p"}, Ref{"x"}, Ref{"y"}}), "if p then x else y") {
		t.Fatal("ite format")
	}
}

func TestMinMaxDeadZoneViaLustre(t *testing.T) {
	// Cross-check the new blocks through the full pipeline against the
	// direct compilation, at sample points.
	m := simulink.NewModel("mmdz")
	m.Add(&simulink.Block{Name: "u", Type: simulink.Inport})
	m.Add(&simulink.Block{Name: "v", Type: simulink.Inport})
	m.Add(&simulink.Block{Name: "mm", Type: simulink.MinMax}) // min
	m.Connect("u", "mm", 1)
	m.Connect("v", "mm", 2)
	m.Add(&simulink.Block{Name: "dz", Type: simulink.DeadZone, Lo: -1, Hi: 1})
	m.Connect("mm", "dz", 1)
	m.Add(&simulink.Block{Name: "k", Type: simulink.Constant, Value: 0.5})
	m.Add(&simulink.Block{Name: "r", Type: simulink.RelOp, Op: 3}) // CmpGE
	m.Connect("dz", "r", 1)
	m.Connect("k", "r", 2)
	m.Add(&simulink.Block{Name: "o", Type: simulink.Outport})
	m.Connect("r", "o", 1)

	prog, err := FromSimulink(m)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Parse(Format(prog))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := ExtractProblem(prog2)
	if err != nil {
		t.Fatal(err)
	}
	prob.SetBounds("u", -5, 5)
	prob.SetBounds("v", -5, 5)
	res, err := core.NewEngine(prob, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	// dz(min(u,v)) ≥ 0.5 needs min(u,v) ≥ 1.5.
	if res.Status != core.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	u, v := res.Model.Real["u"], res.Model.Real["v"]
	mn := u
	if v < u {
		mn = v
	}
	if mn < 1.5-1e-6 {
		t.Fatalf("min(u,v) = %g should be ≥ 1.5 (u=%g v=%g)", mn, u, v)
	}
}
