package bench

import (
	"context"
	"fmt"
	"time"

	"absolver/internal/core"
	"absolver/internal/fischer"
	"absolver/internal/lustre"
	"absolver/internal/mc"
	"absolver/internal/steering"
)

// ---------------------------------------------------------------------------
// Table 8: the model-checking front end (an ablation, not a paper table).
//
// The workload is BMC + k-induction over the repo's two protocol/case-study
// models: the discrete Fischer protocol in both timing variants (safe and
// broken) and the paper's steering case study converted through the full
// Simulink → Lustre chain. Warm mode is the checker's default — all depths
// of the unrolling share one core.Session, so clause learning and theory
// verdicts carry across depths. Cold mode rebuilds a fresh session per
// depth, the per-query baseline an external driver would pay. As with the
// incremental table, the theory-check column is the work measure: warm must
// not pay more theory checks than cold.

// CheckInstance is one model of the check benchmark.
type CheckInstance struct {
	Name string
	// Depth is the unrolling bound handed to the checker.
	Depth int
	// Build parses/converts the model into the checker's input.
	Build func() (*lustre.Program, error)
	// Property names the flow to verify ("" = sole Boolean output).
	Property string
	// Bounds restricts numeric inputs (the steering sensor ranges).
	Bounds map[string][2]float64
}

// CheckInstances returns the benchmark's model set.
func CheckInstances() []CheckInstance {
	return []CheckInstance{
		{
			Name: "fischer_safe", Depth: 4,
			Build: func() (*lustre.Program, error) { return lustre.Parse(fischer.LustreSafe()) },
		},
		{
			Name: "fischer_broken", Depth: 6,
			Build: func() (*lustre.Program, error) { return lustre.Parse(fischer.LustreBroken()) },
		},
		{
			// The paper's verification question is the reachability of the
			// critical driving situation, which the checker poses as
			// falsifying the safety property "the scenario never occurs":
			// the counterexample is exactly the case study's test vector.
			Name: "steering", Depth: 1, Property: "ok",
			Build:  steeringSafety,
			Bounds: steering.SensorBounds(),
		},
	}
}

// steeringSafety converts the steering case study and adds the safety
// property ok = not CriticalScenario, so falsifying "G ok" asks the
// paper's question (is the critical situation reachable?).
func steeringSafety() (*lustre.Program, error) {
	prog, err := lustre.FromSimulink(steering.Model())
	if err != nil {
		return nil, err
	}
	n := prog.Main()
	n.Outputs = append(n.Outputs, lustre.VarDecl{Name: "ok", Type: lustre.TBool})
	n.Equations = append(n.Equations, lustre.Equation{
		Target: "ok",
		Rhs:    lustre.Unary{Op: "not", X: lustre.Ref{Name: "CriticalScenario"}},
	})
	return prog, nil
}

// RunCheck measures table 8, the model-checking sweep: every instance
// checked to its depth, once with the warm shared session
// ("absolver-warm") and once cold ("absolver-cold").
func RunCheck(timeout time.Duration) (Table, error) {
	return runCheck(CheckInstances(), timeout)
}

func runCheck(instances []CheckInstance, timeout time.Duration) (Table, error) {
	t := Table{Number: 8, Title: "Model checking (BMC + k-induction, warm session vs cold per depth)"}
	for _, inst := range instances {
		row, err := runCheckInstance(inst, timeout)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// checkStatus maps a checker verdict onto the solver status agree
// compares: a counterexample is sat, a proof unsat, a reached bound
// undecided.
var checkStatus = map[mc.Verdict]core.Status{mc.Falsified: core.StatusSat, mc.Proved: core.StatusUnsat}

// runCheckInstance checks one model in both modes. The cells carry the
// checker's verdict vocabulary, and Detail the warm run's depth k.
func runCheckInstance(inst CheckInstance, timeout time.Duration) (Row, error) {
	row := Row{Instance: inst.Name}
	prog, err := inst.Build()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", inst.Name, err)
	}
	for _, mode := range []struct {
		solver string
		cold   bool
	}{{"absolver-warm", false}, {"absolver-cold", true}} {
		var res mc.Result
		c, _, err := measure(mode.solver, func() (core.Result, error) {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			var err error
			res, err = mc.Check(ctx, prog, mc.Options{
				Property:    inst.Property,
				MaxDepth:    inst.Depth,
				Cold:        mode.cold,
				InputBounds: inst.Bounds,
				Config:      &core.Config{Timeout: timeout, CheckModels: true},
			})
			return core.Result{Status: checkStatus[res.Verdict], Stats: res.Stats}, err
		})
		if err != nil {
			return row, fmt.Errorf("bench: %s: %w", inst.Name, err)
		}
		c.Verdict = string(res.Verdict)
		if !mode.cold {
			row.Detail = fmt.Sprintf("k=%d", res.K)
		}
		row.Cells = append(row.Cells, c)
	}
	return row, agree(row)
}
