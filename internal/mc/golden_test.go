package mc_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"absolver/internal/expr"
	"absolver/internal/lustre"
	"absolver/internal/mc"
	"absolver/internal/simulink"
	"absolver/internal/testkit"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/check.golden from the current checker")

const goldenFile = "testdata/check.golden"

// goldenPrograms are this package's test programs with the options their
// tests use (property, bounds, depth).
var goldenPrograms = []struct {
	name, src, prop string
	depth           int
	bounds          map[string][2]float64
}{
	{name: "counter", depth: 10, src: `node counter(inc: bool) returns (ok: bool);
var n: int;
let n = 0 -> (if inc then pre n + 1 else pre n); ok = n <= 3; tel;`},
	{name: "sat3", depth: 10, src: `node sat3(inc: bool) returns (ok: bool);
var n: int;
let n = 0 -> (if inc and pre n < 3 then pre n + 1 else pre n); ok = n <= 3; tel;`},
	{name: "toggle", depth: 5, src: `node s(a: bool) returns (ok: bool);
var b: bool;
let b = false -> not pre b; ok = not (b and a); tel;`},
	{name: "two-q", depth: 1, prop: "q", src: `node two(a: bool) returns (p, q: bool);
let p = a; q = not a; tel;`},
	{name: "bounded", depth: 3, bounds: map[string][2]float64{"x": {0, 5}}, src: `node b(x: int) returns (ok: bool);
let ok = x <= 9; tel;`},
	{name: "unbounded", depth: 3, src: `node b(x: int) returns (ok: bool);
let ok = x <= 9; tel;`},
	{name: "stay2", depth: 8, src: `node stay2(tick: bool) returns (ok: bool);
var x: int;
let x = 2 -> (if pre x = 2 then 2 else pre x - 1); ok = x <> 0; tel;`},
	{name: "stay3", depth: 20, src: `node stay3(tick: bool) returns (ok: bool);
var x: int;
let x = 3 -> (if pre x = 3 then 3 else pre x - 1); ok = x <> 0; tel;`},
	{name: "evens", depth: 8, src: `node evens(tick: bool) returns (ok: bool);
var x: int; even: bool;
let
  even = true -> not pre even;
  x = 0 -> (if pre even then pre x + 2 else pre x);
  ok = x <> 3;
tel;`},
	{name: "count", depth: 10, src: `node count(tick: bool) returns (ok: bool);
var x: int;
let x = 0 -> pre x + 1; ok = x <= 3; tel;`},
	{name: "real-ite", depth: 4, bounds: map[string][2]float64{"u": {-2, 2}}, src: `node r(u: real; b: bool) returns (ok: bool);
var s: real; m: bool;
let
  s = 0.0 -> (if b then pre s + u else pre s / 2.0);
  m = (pre m -> (b = (s > 1.0)));
  ok = s <= 3.0 or m;
tel;`},
}

// goldenSeeds is the fixed slice of testkit.GenerateLustre programs.
const (
	goldenSeeds = 40
	goldenDepth = 5
)

// TestCheckGolden pins mc.Check's verdict, depth, replay flag and
// counterexample inputs, plus the engine's counters, on this package's test programs, a Simulink
// threshold model and testkit.GenerateLustre seeds 0..39, each under
// induction, BMC only and the cold-session ablation.
func TestCheckGolden(t *testing.T) {
	var sb strings.Builder
	run := func(name string, prog *lustre.Program, opts mc.Options) {
		for _, mode := range []struct {
			tag   string
			noInd bool
			cold  bool
		}{{"ind", false, false}, {"bmc", true, false}, {"cold", false, true}} {
			o := opts
			o.NoInduction, o.Cold = mode.noInd, mode.cold
			res, err := mc.Check(context.Background(), prog, o)
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode.tag, err)
			}
			fmt.Fprintf(&sb, "%s %s: %s k=%d depths=%d certified=%v induction=%v reason=%q\n",
				name, mode.tag, res.Verdict, res.K, res.Depths, res.Certified, res.Induction, res.Reason)
			// The engine's counters pin the unrolling's call order: a
			// reordered clause or binding shows here first.
			c := res.Stats.Counters()
			keys := make([]string, 0, len(c))
			for k := range c {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sb.WriteString(" ")
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%d", k, c[k])
			}
			sb.WriteByte('\n')
			if res.Trace != nil {
				for i, in := range res.Trace.Inputs {
					names := make([]string, 0, len(in))
					for n := range in {
						names = append(names, n)
					}
					sort.Strings(names)
					fmt.Fprintf(&sb, "  @%d", i)
					for _, n := range names {
						fmt.Fprintf(&sb, " %s=%s", n, strconv.FormatFloat(in[n], 'g', -1, 64))
					}
					sb.WriteByte('\n')
				}
			}
		}
	}
	for _, g := range goldenPrograms {
		p, err := lustre.Parse(g.src)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		run(g.name, p, mc.Options{Property: g.prop, MaxDepth: g.depth, InputBounds: g.bounds})
	}

	m := simulink.NewModel("thresh")
	m.Add(&simulink.Block{Name: "in", Type: simulink.Inport})
	m.Add(&simulink.Block{Name: "lim", Type: simulink.Constant, Value: 4})
	m.Add(&simulink.Block{Name: "cmp", Type: simulink.RelOp, Op: expr.CmpGE})
	m.Add(&simulink.Block{Name: "ok", Type: simulink.Outport})
	m.Connect("in", "cmp", 1)
	m.Connect("lim", "cmp", 2)
	m.Connect("cmp", "ok", 1)
	prog, err := lustre.FromSimulink(m)
	if err != nil {
		t.Fatal(err)
	}
	run("thresh", prog, mc.Options{MaxDepth: 2})

	for seed := int64(0); seed < goldenSeeds; seed++ {
		g, err := testkit.GenerateLustre(seed)
		if err != nil {
			t.Fatal(err)
		}
		bounds := map[string][2]float64{}
		for _, in := range g.Inputs {
			if in.Int {
				bounds[in.Name] = in.Bounds()
			}
		}
		run(fmt.Sprintf("seed-%d", seed), g.Prog, mc.Options{MaxDepth: goldenDepth, InputBounds: bounds})
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
				t.Fatalf("model checking drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("model checking drifted: %d lines, want %d", len(gl), len(wl))
	}
}
