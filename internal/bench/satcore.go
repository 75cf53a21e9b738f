package bench

import (
	"fmt"
	"strings"
	"time"

	"absolver/internal/core"
	"absolver/internal/fischer"
	"absolver/internal/smtlib"
)

// ---------------------------------------------------------------------------
// Table 7: SAT-core ablation (arena + inprocessing, PR 7; not a paper
// table).
//
// The instances are the wall-time-dominant rows of Tables 1 and 2 — the
// Fischer unrollings in the paper's external-restart combination mode and
// Car steering in the default incremental mode — measured with the arena
// core's inprocessing on ("absolver") and off ("absolver-noinpro").
// Old-core measurements, captured before the arena refactor under the
// solver name "absolver-pre-arena", ride along via the baseline parameter
// so the table prints old-vs-new columns and the committed BENCH_7.json
// keeps both sides of the comparison.

// SATCoreSolverName labels the pre-arena core's rows inside BENCH_7.json.
const SATCoreSolverName = "absolver-pre-arena"

// SATCoreRow is one instance measured under both inprocessing modes.
type SATCoreRow struct {
	Name string
	// On is the default configuration (inprocessing enabled), Off the
	// -no-inprocess ablation.
	On, Off Cell
	// Subsumed, Probes and Compactions are the inprocessing/arena counters
	// of the On run.
	Subsumed, Probes, Compactions int64
	// Baseline is the old core's measurement of the same instance (from
	// the baseline rows), nil when unknown.
	Baseline *JSONRow
}

// satCoreInstances enumerates the table's workloads: FISCHER1..maxFischer
// in the paper's external-restart mode, then Car steering incrementally.
func satCoreInstances(maxFischer int) []struct {
	name     string
	build    func() (*core.Problem, error)
	external bool
} {
	var out []struct {
		name     string
		build    func() (*core.Problem, error)
		external bool
	}
	for n := 1; n <= maxFischer; n++ {
		n := n
		in := fischer.Generate(fischer.Params{N: n})
		out = append(out, struct {
			name     string
			build    func() (*core.Problem, error)
			external bool
		}{in.Name + ".smt", func() (*core.Problem, error) {
			b, err := smtlib.Parse(in.SMTLIB())
			if err != nil {
				return nil, err
			}
			return b.ToProblem(), nil
		}, true})
	}
	for _, inst := range Table1Instances() {
		if inst.Name != "Car steering" {
			continue
		}
		out = append(out, struct {
			name     string
			build    func() (*core.Problem, error)
			external bool
		}{inst.Name, inst.Build, false})
	}
	return out
}

// RunSATCore measures the SAT-core ablation. baseline, when non-nil,
// supplies old-core rows (solver "absolver-pre-arena") matched by instance
// name for the old-vs-new columns.
func RunSATCore(maxFischer int, timeout time.Duration, baseline []JSONRow) ([]SATCoreRow, error) {
	base := map[string]JSONRow{}
	for _, r := range baseline {
		if r.Solver == SATCoreSolverName {
			base[r.Instance] = r
		}
	}
	var rows []SATCoreRow
	for _, inst := range satCoreInstances(maxFischer) {
		row := SATCoreRow{Name: inst.name}
		for _, noInpro := range [2]bool{false, true} {
			p, err := inst.build()
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", inst.name, err)
			}
			cfg := core.Config{Timeout: timeout, NoInprocess: noInpro}
			if inst.external {
				cfg.RestartBoolean = true
				cfg.Bool = core.NewExternalCDCLSolver()
			}
			start := time.Now()
			res, err := core.NewEngine(p, cfg).Solve()
			cell := Cell{
				Time: time.Since(start), Status: res.Status,
				Checks: res.Stats.LinearChecks + res.Stats.NonlinearChecks,
			}
			if err == core.ErrTimeout {
				cell.Note = "timeout"
			} else if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", inst.name, err)
			}
			if noInpro {
				row.Off = cell
			} else {
				row.On = cell
				row.Subsumed = int64(res.Stats.ClausesSubsumed)
				row.Probes = int64(res.Stats.ProbedLiterals)
				row.Compactions = int64(res.Stats.ArenaCompactions)
			}
		}
		if row.On.Note == "" && row.Off.Note == "" && row.On.Status != row.Off.Status {
			return nil, fmt.Errorf("bench: %s: inprocessing flipped the verdict: on=%v off=%v",
				inst.name, row.On.Status, row.Off.Status)
		}
		if b, ok := base[inst.name]; ok {
			b := b
			row.Baseline = &b
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSATCore renders the ablation with old-vs-new core columns.
func FormatSATCore(rows []SATCoreRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SAT-core ablation (arena + inprocessing)\n")
	fmt.Fprintf(&b, "%-22s | %-7s | %10s | %10s | %7s | %10s | %6s | %s\n",
		"instance", "verdict", "old core", "new core", "Δ", "noinpro", "checks", "inprocess")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 110))
	for _, r := range rows {
		old := "–"
		delta := "–"
		if r.Baseline != nil {
			oldD := time.Duration(r.Baseline.WallSeconds * float64(time.Second))
			old = fmtDur(oldD)
			if oldD > 0 {
				delta = fmt.Sprintf("%+.0f%%", 100*(r.On.Time.Seconds()-oldD.Seconds())/oldD.Seconds())
			}
		}
		fmt.Fprintf(&b, "%-22s | %-7s | %10s | %10s | %7s | %10s | %6d | sub=%d probe=%d compact=%d\n",
			r.Name, r.On.Status, old, r.On.String(), delta, r.Off.String(), r.On.Checks,
			r.Subsumed, r.Probes, r.Compactions)
	}
	return b.String()
}

// JSONSATCore flattens the ablation into table-7 rows: "absolver" (new
// core, inprocessing on), "absolver-noinpro" (ablation), and a pass-through
// "absolver-pre-arena" row per instance whose baseline is known — so a
// regenerated BENCH_7.json keeps the old core's side of the comparison.
func JSONSATCore(rows []SATCoreRow) []JSONRow {
	var out []JSONRow
	for _, r := range rows {
		on := jsonRow(7, r.Name, "absolver", r.On)
		on.Counters = map[string]int64{
			"clauses_subsumed":  r.Subsumed,
			"probed_literals":   r.Probes,
			"arena_compactions": r.Compactions,
		}
		out = append(out, on, jsonRow(7, r.Name, "absolver-noinpro", r.Off))
		if r.Baseline != nil {
			bl := *r.Baseline
			bl.Table = 7
			out = append(out, bl)
		}
	}
	return out
}
