package bench

import (
	"fmt"
	"time"

	"absolver/internal/core"
	"absolver/internal/testkit"
)

// ---------------------------------------------------------------------------
// Knob ablations: a suite of instances solved under labelled variants of
// the default engine, each variant a core.KnobSet switched on. A new
// ablation is one suite plus one variant list.

// Variant is one labelled engine configuration of an ablation.
type Variant struct {
	// Solver is the variant's label in the table and the JSON output.
	Solver string
	// Knobs are switched on over the instance's configuration.
	Knobs core.KnobSet
	// Counters lists the Stats.Counters keys recorded on this variant's
	// cells.
	Counters []string
}

// Instance is one problem of an ablation suite.
type Instance struct {
	Name  string
	Build func() (*core.Problem, error)
	// External selects the paper's external-restart combination mode (a
	// fresh external CDCL solver per iteration), Table 2's configuration.
	External bool
}

// config returns cfg in the instance's combination mode.
func (inst Instance) config(cfg core.Config) core.Config {
	if inst.External {
		cfg.RestartBoolean = true
		cfg.Bool = core.NewExternalCDCLSolver()
	}
	return cfg
}

// Ablation is a knob ablation: every instance of Suite solved once per
// variant, each solve on a freshly built problem.
type Ablation struct {
	Table    int
	Title    string
	Suite    []Instance
	Variants []Variant
	// Keep, when set, selects the instances the table is about:
	// Variants[Probe] solves each instance first, and the other variants
	// run only when Keep accepts that solve's stats. The probe solve is
	// the kept cell, so no instance is solved twice by one variant.
	Keep  func(core.Stats) bool
	Probe int
	// Rows caps the kept instances (0 = the whole suite).
	Rows int
}

// Run measures the ablation. A definitive verdict that differs between
// two variants is an error (agree).
func (a Ablation) Run(timeout time.Duration) (Table, error) {
	t := Table{Number: a.Table, Title: a.Title}
	order := []int{a.Probe}
	for i := range a.Variants {
		if i != a.Probe {
			order = append(order, i)
		}
	}
suite:
	for _, inst := range a.Suite {
		if a.Rows > 0 && len(t.Rows) == a.Rows {
			break
		}
		row := Row{Instance: inst.Name, Cells: make([]Cell, len(a.Variants))}
		for n, i := range order {
			v := a.Variants[i]
			p, err := inst.Build()
			if err != nil {
				return t, fmt.Errorf("bench: %s: %w", inst.Name, err)
			}
			cfg := inst.config(core.Config{Timeout: timeout}.WithKnobs(v.Knobs))
			c, res, err := solveCell(v.Solver, p, cfg)
			if err != nil {
				return t, fmt.Errorf("bench: %s %s: %w", inst.Name, v.Solver, err)
			}
			if n == 0 && a.Keep != nil && !a.Keep(res.Stats) {
				continue suite
			}
			if len(v.Counters) > 0 {
				all := res.Stats.Counters()
				c.Counters = make(map[string]int64, len(v.Counters))
				for _, k := range v.Counters {
					c.Counters[k] = all[k]
				}
			}
			row.Cells[i] = c
		}
		if err := agree(row); err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// SATCoreSolverName labels the pre-arena core's rows inside BENCH_7.json.
const SATCoreSolverName = "absolver-pre-arena"

// SATCore is table 7, the SAT-core ablation (arena + inprocessing; not a
// paper table). The instances are the wall-time-dominant rows of Tables 1
// and 2: FISCHER1..maxFischer in the paper's external-restart mode, then
// Car steering in the default incremental mode, with inprocessing on
// ("absolver") and off ("absolver-noinpro"). Old-core measurements,
// captured before the arena refactor as SATCoreSolverName, ride along via
// Table.AddBaseline, so the committed BENCH_7.json keeps both sides.
func SATCore(maxFischer int) Ablation {
	var suite []Instance
	for n := 1; n <= maxFischer; n++ {
		suite = append(suite, fischerInstance(n))
	}
	for _, inst := range Table1Instances() {
		if inst.Name == "Car steering" {
			suite = append(suite, Instance{Name: inst.Name, Build: inst.Build})
		}
	}
	return Ablation{
		Table: 7, Title: "SAT-core ablation (arena + inprocessing)", Suite: suite,
		Variants: []Variant{
			{Solver: "absolver", Counters: []string{"clauses_subsumed", "probed_literals", "arena_compactions"}},
			{Solver: "absolver-noinpro", Knobs: core.Config{NoInprocess: true}.KnobSet()},
		},
	}
}

// NLP is table 10, the PolyAR nonlinear-fallback ablation (not a paper
// table). It scans testkit's nonlinear and mixed-integer fragments for
// instances whose penalty-descent/HC4 stage comes back inconclusive
// (Stats.NLPUnknown > 0 on the default engine) — exactly the instances
// the fallback exists for — and keeps up to maxRows of them, solved with
// the fallback off ("absolver-no-polyar") and on ("absolver-polyar"). The
// verdict column is the headline, and the polyar cells count the theory
// checks the fallback rescued and the refinement regions behind them.
func NLP(maxRows int) Ablation {
	const scanCap = 2000 // seeds probed per fragment before giving up
	var suite []Instance
	for _, frag := range []testkit.Fragment{testkit.FragNonlinear, testkit.FragMixedInt} {
		for seed := int64(0); seed < scanCap; seed++ {
			suite = append(suite, Instance{
				Name:  fmt.Sprintf("%v/%d", frag, seed),
				Build: func() (*core.Problem, error) { return testkit.Generate(seed, frag), nil },
			})
		}
	}
	return Ablation{
		Table: 10, Title: "PolyAR nonlinear-fallback ablation (inconclusive-stage instances)",
		Suite: suite, Rows: maxRows,
		Variants: []Variant{
			{Solver: "absolver-no-polyar", Knobs: core.Config{NoPolyAR: true}.KnobSet()},
			{Solver: "absolver-polyar", Counters: []string{"nlp_unknown_rescued", "polyar_regions", "polyar_pruned"}},
		},
		// Stats.NLPUnknown counts every inconclusive nonlinear check
		// whatever the NoPolyAR knob, so the default engine's solve picks
		// the instances.
		Keep:  func(st core.Stats) bool { return st.NLPUnknown > 0 },
		Probe: 1,
	}
}
