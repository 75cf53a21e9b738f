package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"absolver/internal/core"
)

// Cell is one solver's measurement of one instance.
type Cell struct {
	// Solver labels the measurement: "absolver", "cvclite", "mathsat" in
	// the paper's tables, the mode or knob variant in the ablations
	// ("absolver-session", "absolver-noinpro", ...).
	Solver string
	Time   time.Duration
	Status core.Status
	// Verdict, when set, is printed instead of Status: the model checker's
	// proved / falsified / bound_reached, or a verdict carried over from a
	// prior artifact.
	Verdict string
	// Note marks abnormal outcomes: "rejected" (nonlinear), "timeout",
	// "iteration limit", "OOM", or an error string.
	Note string
	// Checks counts theory-solver invocations (linear + nonlinear for
	// ABsolver, the baseline's own theory checks otherwise) — the work
	// measure behind the wall time in machine-readable output.
	Checks int
	// Counters carries the engine statistics a table records for this
	// solver (Stats.Counters keys); nil for most cells.
	Counters map[string]int64
}

// String renders the cell's time in the paper's m'ss.mmm's style, or its
// abnormal outcome.
func (c Cell) String() string {
	switch c.Note {
	case "":
		return fmtDur(c.Time)
	case "OOM":
		return "–*" // the paper's out-of-memory marker
	case "timeout":
		return fmt.Sprintf(">%s (timeout)", fmtDur(c.Time))
	}
	return c.Note
}

func fmtDur(d time.Duration) string {
	m := int(d.Minutes())
	s := d.Seconds() - float64(m)*60
	return fmt.Sprintf("%dm%06.3fs", m, s)
}

func (c Cell) verdict() string {
	if c.Verdict != "" {
		return c.Verdict
	}
	return c.Status.String()
}

// definitive reports a clean sat or unsat answer.
func (c Cell) definitive() bool {
	return c.Note == "" && (c.Status == core.StatusSat || c.Status == core.StatusUnsat)
}

// Row is one instance measured by several solvers or modes.
type Row struct {
	Instance string
	Cells    []Cell
	// Detail is extra text for the row's line in the text layout (the
	// model checker's depth); it is not part of the JSON output.
	Detail string
}

// agree is the one verdict-agreement rule of every table: two cells of a
// row conflict only when both are definitive and differ. Unknown,
// timed-out and iteration-limited cells agree with anything.
func agree(r Row) error {
	var first *Cell
	for i := range r.Cells {
		c := &r.Cells[i]
		if !c.definitive() {
			continue
		}
		if first == nil {
			first = c
		} else if c.Status != first.Status {
			return fmt.Errorf("bench: %s: %s %v vs %s %v",
				r.Instance, first.Solver, first.Status, c.Solver, c.Status)
		}
	}
	return nil
}

// Table is one measured table: the paper's Tables 1-3 or an ablation.
type Table struct {
	// Number is the table's number in the JSON output: 1-3 for the
	// paper's tables, 6-10 for the ablations.
	Number int
	Title  string
	Rows   []Row
}

// measure times solve and turns its outcome into a cell labelled solver.
// A timeout (core.ErrTimeout or an expired context) or the iteration
// limit yields a cell with a note; any other error is returned.
func measure(solver string, solve func() (core.Result, error)) (Cell, core.Result, error) {
	start := time.Now()
	res, err := solve()
	c := Cell{
		Solver: solver, Time: time.Since(start), Status: res.Status,
		Checks: res.Stats.LinearChecks + res.Stats.NonlinearChecks,
	}
	switch {
	case err == nil:
	case errors.Is(err, core.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		c.Note = "timeout"
	case errors.Is(err, core.ErrIterationLimit):
		c.Note, c.Status = "iteration limit", core.StatusUnknown
	default:
		return c, res, err
	}
	return c, res, nil
}

// solveCell measures one fresh engine solving p under cfg.
func solveCell(solver string, p *core.Problem, cfg core.Config) (Cell, core.Result, error) {
	return measure(solver, func() (core.Result, error) { return core.NewEngine(p, cfg).Solve() })
}

// solvers lists the table's solver labels in order of first appearance.
func (t Table) solvers() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if !seen[c.Solver] {
				seen[c.Solver] = true
				out = append(out, c.Solver)
			}
		}
	}
	return out
}

// Checks sums the theory checks of solver's cells.
func (t Table) Checks(solver string) int {
	n := 0
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if c.Solver == solver {
				n += c.Checks
			}
		}
	}
	return n
}

// Format renders the table: the paper's Tables 1-3 in their published
// layouts, every ablation in the one layout below.
func (t Table) Format() string {
	switch t.Number {
	case 1:
		return formatTable1(t.Rows)
	case 2:
		return formatTable2(t.Rows)
	case 3:
		return formatTable3(t.Rows)
	}
	return t.formatAblation()
}

// formatAblation prints one line per instance with each solver's verdict,
// time and theory checks, then the row's counters and detail, and a footer
// of per-solver totals.
func (t Table) formatAblation() string {
	const cellFmt = " | %-13s %-20s %6s"
	solvers := t.solvers()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-22s", t.Title, "instance")
	for _, s := range solvers {
		fmt.Fprintf(&b, " | %-41s", s)
	}
	rule := strings.Repeat("-", 22+44*len(solvers))
	fmt.Fprintf(&b, "\n%s\n", rule)
	totals := make([]Cell, len(solvers))
	unknown := make([]int, len(solvers))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s", r.Instance)
		var extra []string
		for i, s := range solvers {
			c, ok := r.cell(s)
			if !ok {
				fmt.Fprintf(&b, cellFmt, "–", "", "")
				continue
			}
			fmt.Fprintf(&b, cellFmt, c.verdict(), c, fmt.Sprint(c.Checks))
			totals[i].Checks += c.Checks
			if !c.definitive() {
				unknown[i]++
			}
			for _, k := range sortedKeys(c.Counters) {
				extra = append(extra, fmt.Sprintf("%s=%d", k, c.Counters[k]))
				if totals[i].Counters == nil {
					totals[i].Counters = map[string]int64{}
				}
				totals[i].Counters[k] += c.Counters[k]
			}
		}
		if r.Detail != "" {
			extra = append(extra, r.Detail)
		}
		if len(extra) > 0 {
			fmt.Fprintf(&b, " | %s", strings.Join(extra, " "))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%s\n", rule)
	for i, s := range solvers {
		fmt.Fprintf(&b, "total %s: theory checks=%d undecided=%d", s, totals[i].Checks, unknown[i])
		for _, k := range sortedKeys(totals[i].Counters) {
			fmt.Fprintf(&b, " %s=%d", k, totals[i].Counters[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (r Row) cell(solver string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Solver == solver {
			return c, true
		}
	}
	return Cell{}, false
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
