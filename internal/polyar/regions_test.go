package polyar_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"absolver/internal/bench"
	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/interval"
	"absolver/internal/polyar"
	"absolver/internal/testkit"
)

var updateRegions = flag.Bool("update", false, "rewrite testdata/regions.golden from the current search")

const regionsFile = "testdata/regions.golden"

// regionsSeeds are the testkit nonlinear seeds whose search pin
// (internal/nlp/testdata/search_pin.txt) shows PolyAR regions.
var regionsSeeds = []int64{24, 28, 127, 137, 151, 196, 203, 219, 265}

// TestRegionsGolden pins every region LP PolyAR solves, in frontier order:
// status, pivots, the relaxation's exact bits and the LP point's exact
// bits. It covers direct Solve calls over small problems (one per
// relaxation case), the testkit nonlinear seeds that reach PolyAR, and
// the PolyAR queries the engine issues on Table 1's nonlinear instances.
// The search pin only pins counters; this pins the LPs underneath them.
// Car steering takes seconds, so -short skips it.
//
// The goldens are amd64 values: other architectures may fuse
// multiply-adds and so take different floating-point paths.
func TestRegionsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateRegions {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	// One worker solves each wave's regions in frontier order.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var got []string
	var name string
	n := 0
	defer polyar.RecordRegions(func(line string) {
		got = append(got, fmt.Sprintf("%s\t%d\t%s", name, n, line))
		n++
	})()
	begin := func(s string) { name, n = s, 0 }

	for _, pr := range regionProblems() {
		begin(pr.name)
		polyar.Solve(context.Background(), pr.atoms, pr.box, pr.ints, polyar.Options{MaxRegions: pr.maxRegions})
	}
	for _, seed := range regionsSeeds {
		begin(fmt.Sprintf("testkit.Generate(%d, FragNonlinear)", seed))
		if _, err := core.NewEngine(testkit.Generate(seed, testkit.FragNonlinear), core.Config{}).Solve(); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range bench.Table1Instances() {
		if testing.Short() && in.Name == "Car steering" {
			continue
		}
		p, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		begin(in.Name)
		if _, err := core.NewEngine(p, core.Config{}).Solve(); err != nil {
			t.Fatal(err)
		}
	}

	if *updateRegions {
		if err := os.WriteFile(regionsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(regionsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if testing.Short() && strings.HasPrefix(line, "Car steering\t") {
			continue
		}
		want = append(want, line)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("region LP %d drifted (%d recorded, %d pinned):\n got  %s\n want %s", i, len(got), len(want), g, w)
		}
	}
}

type regionProblem struct {
	name       string
	atoms      []expr.Atom
	box        expr.Box
	ints       map[string]bool
	maxRegions int
}

// regionProblems are the polyar unit-test problems plus one problem per
// relaxation case the unit tests leave out (division straddling zero,
// log, sqrt, abs, cos, an integer bilinear product).
func regionProblems() []regionProblem {
	x, y := expr.V("x"), expr.V("y")
	iv := func(lo, hi float64) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }
	xy := func(xlo, xhi, ylo, yhi float64) expr.Box { return expr.Box{"x": iv(xlo, xhi), "y": iv(ylo, yhi)} }
	circle := expr.Add(expr.Mul(x, x), expr.Mul(y, y))
	at := func(l expr.Expr, op expr.CmpOp, r expr.Expr) expr.Atom { return expr.Atom{LHS: l, Op: op, RHS: r} }
	return []regionProblem{
		{name: "circle-line-sat", atoms: []expr.Atom{at(circle, expr.CmpLE, expr.C(4)), at(expr.Add(x, y), expr.CmpGE, expr.C(1))}, box: xy(-2, 2, -2, 2)},
		{name: "circle-line-unsat", atoms: []expr.Atom{at(circle, expr.CmpLE, expr.C(1)), at(expr.Add(x, y), expr.CmpGE, expr.C(3))}, box: xy(-2, 2, -2, 2)},
		{name: "bilinear-unsat", atoms: []expr.Atom{at(expr.Mul(x, y), expr.CmpGE, expr.C(2))}, box: xy(0, 1, 0, 1)},
		{name: "bilinear-sat", atoms: []expr.Atom{at(expr.Mul(x, y), expr.CmpGE, expr.C(2)), at(x, expr.CmpLE, expr.C(2)), at(y, expr.CmpLE, expr.C(2))}, box: xy(0, 4, 0, 4)},
		{name: "sin-sat", atoms: []expr.Atom{at(expr.Sin(x), expr.CmpGE, expr.C(0.5))}, box: expr.Box{"x": iv(0, math.Pi)}},
		{name: "sin-unsat", atoms: []expr.Atom{at(expr.Sin(x), expr.CmpGE, expr.C(1.5))}, box: expr.Box{"x": iv(0, math.Pi)}},
		{name: "exp-unsat", atoms: []expr.Atom{at(expr.Exp(x), expr.CmpLE, x)}, box: expr.Box{"x": iv(-5, 5)}},
		{name: "int-sat", atoms: []expr.Atom{
			{LHS: expr.Mul(expr.V("m"), expr.V("n")), Op: expr.CmpGE, RHS: expr.C(6), Domain: expr.Int},
			{LHS: expr.Add(expr.V("m"), expr.V("n")), Op: expr.CmpLE, RHS: expr.C(5), Domain: expr.Int},
		}, box: expr.Box{"m": iv(0, 4), "n": iv(0, 4)}, ints: map[string]bool{"m": true, "n": true}},
		{name: "int-unsat", atoms: []expr.Atom{
			{LHS: expr.Mul(expr.V("m"), expr.V("n")), Op: expr.CmpGE, RHS: expr.C(6), Domain: expr.Int},
			{LHS: expr.Add(expr.V("m"), expr.V("n")), Op: expr.CmpLE, RHS: expr.C(4), Domain: expr.Int},
		}, box: expr.Box{"m": iv(0, 4), "n": iv(0, 4)}, ints: map[string]bool{"m": true, "n": true}},
		{name: "strict-ne", atoms: []expr.Atom{at(expr.Mul(x, x), expr.CmpLT, expr.C(1)), at(x, expr.CmpNE, expr.C(0))}, box: expr.Box{"x": iv(-1, 1)}},
		{name: "budgeted", atoms: []expr.Atom{at(circle, expr.CmpEQ, expr.C(2))}, box: xy(-2, 2, -2, 2), maxRegions: 2},
		{name: "unbounded", atoms: []expr.Atom{at(expr.Mul(x, x), expr.CmpGE, expr.C(1e6))}, box: expr.Box{}},
		{name: "circle-hyperbola", atoms: []expr.Atom{at(circle, expr.CmpLE, expr.C(4)), at(expr.Mul(x, y), expr.CmpGE, expr.C(1))}, box: xy(-2, 2, -2, 2)},
		{name: "div-straddle", atoms: []expr.Atom{at(expr.Div(x, y), expr.CmpGE, expr.C(3)), at(expr.Add(x, y), expr.CmpLE, expr.C(1))}, box: xy(-2, 2, -1, 2)},
		{name: "log-sqrt", atoms: []expr.Atom{at(expr.Log(x), expr.CmpGE, expr.Sqrt(y)), at(expr.Mul(x, y), expr.CmpLE, expr.C(2))}, box: xy(-1, 6, -1, 4), maxRegions: 64},
		{name: "abs-cos", atoms: []expr.Atom{at(expr.Abs(expr.Sub(x, y)), expr.CmpGE, expr.Add(expr.Cos(y), expr.C(1.5))), at(circle, expr.CmpLE, expr.C(3))}, box: xy(-2, 2, -2, 2), maxRegions: 64},
		{name: "exp-product", atoms: []expr.Atom{at(expr.Exp(expr.Mul(x, y)), expr.CmpEQ, expr.Add(x, expr.C(2)))}, box: xy(-3, 3, -3, 3), maxRegions: 64},
		{name: "disc-hyperbola-unsat", atoms: []expr.Atom{at(circle, expr.CmpLE, expr.C(1)), at(expr.Mul(x, y), expr.CmpGE, expr.C(0.55))}, box: xy(-1, 1, -1, 1), maxRegions: 128},
		{name: "div-unsat", atoms: []expr.Atom{at(expr.Div(x, y), expr.CmpGE, expr.C(1.2)), at(x, expr.CmpLE, y)}, box: xy(0, 2, 0.5, 2), maxRegions: 128},
		{name: "sqrt-log-unsat", atoms: []expr.Atom{at(expr.Sqrt(x), expr.CmpGE, expr.Add(expr.Log(x), expr.C(1.2)))}, box: expr.Box{"x": iv(0.1, 50)}, maxRegions: 128},
		{name: "cubic-int", atoms: []expr.Atom{
			{LHS: expr.Mul(expr.Mul(x, x), y), Op: expr.CmpEQ, RHS: expr.C(12), Domain: expr.Int},
		}, box: xy(-5, 5, -5, 5), ints: map[string]bool{"x": true, "y": true}},
	}
}
