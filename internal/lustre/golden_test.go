package lustre_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"absolver/internal/dimacs"
	"absolver/internal/expr"
	"absolver/internal/lustre"
	"absolver/internal/simulink"
	"absolver/internal/steering"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/extract.golden from the current extractor")

const goldenFile = "testdata/extract.golden"

// goldenSources are the accepted Lustre programs of this package's tests,
// plus one with numeric outputs.
var goldenSources = []struct{ name, src string }{
	{"fig1-lustre", lustre.Fig1Lustre},
	{"numeric-ite-aux", `node sw(u, c: real) returns (o: bool);
let o = (if c >= 0.5 then u else 9.0) >= 5.0; tel;`},
	{"boolean-ite-ops", `node ops(x: real; p: bool) returns (o: bool);
let o = (if p then x > 1.0 else x < -1.0) and (p => x > 0.0) and (p xor false); tel;`},
	{"never-panics-base", `node m(x, y: real; i: int) returns (o: bool);
var t: real;
let
  t = if x > 0.0 then x else -x;
  o = (t >= y) and (i < 3) or not (x = y);
tel;`},
	{"multi-node", `node helper(x: real) returns (o: bool);
let o = x > 0.0; tel;
node main(y: real) returns (o: bool);
let o = y < 0.0; tel;`},
	{"numeric-outputs", `node n(x: real; i, j: int; p: bool) returns (o: bool; y: real; k: int);
var s: real;
let
  s = if p then x * 2.0 else sin(x) + abs(x);
  y = s - exp(x) / 3.0;
  k = if i < j then i + 1 else j - 1;
  o = (s > 1.0) = p and (k >= 0);
tel;`},
}

// goldenModels are the block diagrams converted through FromSimulink.
func goldenModels() []struct {
	name string
	m    *simulink.Model
} {
	mm := simulink.NewModel("mmdz")
	mm.Add(&simulink.Block{Name: "u", Type: simulink.Inport})
	mm.Add(&simulink.Block{Name: "v", Type: simulink.Inport})
	mm.Add(&simulink.Block{Name: "mm", Type: simulink.MinMax})
	mm.Connect("u", "mm", 1)
	mm.Connect("v", "mm", 2)
	mm.Add(&simulink.Block{Name: "dz", Type: simulink.DeadZone, Lo: -1, Hi: 1})
	mm.Connect("mm", "dz", 1)
	mm.Add(&simulink.Block{Name: "k", Type: simulink.Constant, Value: 0.5})
	mm.Add(&simulink.Block{Name: "r", Type: simulink.RelOp, Op: expr.CmpGE})
	mm.Connect("dz", "r", 1)
	mm.Connect("k", "r", 2)
	mm.Add(&simulink.Block{Name: "o", Type: simulink.Outport})
	mm.Connect("r", "o", 1)
	return []struct {
		name string
		m    *simulink.Model
	}{
		{"fig1-simulink", simulink.Fig1()},
		{"steering", steering.Model()},
		{"minmax-deadzone", mm},
	}
}

// TestExtractGolden pins the combinational extraction byte for byte: the
// extended DIMACS rendering of ExtractProblem and Extract's numeric outputs
// for the Fig. 1 model, Car steering, this package's test programs and the
// random diagrams of TestCrossValidateDirectVsLustre (same generator, same
// seed, same draws). Block diagrams go through FromSimulink, Format and
// Parse, as the Fig. 3 tool-chain does.
func TestExtractGolden(t *testing.T) {
	var sb strings.Builder
	record := func(name string, p *lustre.Program) {
		c, nums, err := lustre.Extract(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prob, err := lustre.ExtractProblem(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text, err := dimacs.WriteString(prob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "=== %s (%d atoms)\n%s", name, len(c.Atoms()), text)
		outs := make([]string, 0, len(nums))
		for o := range nums {
			outs = append(outs, o)
		}
		sort.Strings(outs)
		for _, o := range outs {
			fmt.Fprintf(&sb, "num %s = %s\n", o, expr.String(nums[o]))
		}
	}
	viaText := func(name string, m *simulink.Model) *lustre.Program {
		prog, err := lustre.FromSimulink(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err = lustre.Parse(lustre.Format(prog))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return prog
	}
	for _, s := range goldenSources {
		p, err := lustre.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		record(s.name, p)
	}
	for _, g := range goldenModels() {
		record(g.name, viaText(g.name, g.m))
	}
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 150; iter++ {
		m := lustre.GenModel(rng)
		direct, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("crossval-%d", iter), viaText(m.Name, m))
		for i := 0; i < 20*len(direct.Inports); i++ {
			rng.Intn(13)
		}
	}

	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("extraction drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("extraction drifted: %d lines, want %d", len(gl), len(wl))
	}
}
