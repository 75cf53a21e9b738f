package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"absolver/internal/core"
	"absolver/internal/fischer"
)

// ---------------------------------------------------------------------------
// Table 6: incremental sessions (PR 6 ablation, not a paper table).
//
// The workload is the one the paper's applications actually generate: a
// sweep of near-identical reachability queries over one Fischer unrolling —
// "is process 1 in its critical section at step t?" for every t. Cold mode
// answers each query with a fresh engine on the flattened problem; session
// mode answers the same sweep with one warm core.Session (push the query
// frame, solve, pop), so learned clauses and theory verdicts carry over.
// The theory-check column is the work measure: the session path must pay
// measurably fewer LP/NLP invocations than N cold solves.

// IncrementalRow is one query of the sweep, measured both ways.
type IncrementalRow struct {
	// Name identifies the query, e.g. "cs@3".
	Name string
	// Cold is the fresh-engine measurement, Session the warm-session one.
	Cold    Cell
	Session Cell
}

// RunIncremental measures the critical-section sweep over FISCHER<nProc>:
// one query per unrolling step. The two modes run the same queries in the
// same order under the same configuration.
func RunIncremental(nProc int, timeout time.Duration) ([]IncrementalRow, error) {
	in := fischer.Generate(fischer.Params{N: nProc})
	steps := in.Params.Steps
	lits := make([]int, 0, steps)
	names := make([]string, 0, steps)
	for t := 1; t <= steps; t++ {
		v, ok := in.Var(fmt.Sprintf("loc/1/%d/cs", t))
		if !ok {
			return nil, fmt.Errorf("bench: no cs variable for step %d", t)
		}
		lits = append(lits, v)
		names = append(names, fmt.Sprintf("cs@%d", t))
	}

	rows := make([]IncrementalRow, len(lits))
	for i := range rows {
		rows[i].Name = names[i]
	}

	// Cold: a fresh engine per query on the flattened problem.
	for i, lit := range lits {
		p := in.Problem.Clone()
		p.AddClause(lit)
		start := time.Now()
		res, err := core.NewEngine(p, core.Config{Timeout: timeout}).Solve()
		rows[i].Cold = Cell{
			Time: time.Since(start), Status: res.Status,
			Checks: res.Stats.LinearChecks + res.Stats.NonlinearChecks,
		}
		if err == core.ErrTimeout {
			rows[i].Cold.Note = "timeout"
		} else if err != nil {
			return nil, err
		}
	}

	// Session: one warm session, one frame per query.
	sess, err := core.NewSession(in.Problem, core.Config{Timeout: timeout})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i, lit := range lits {
		start := time.Now()
		res, err := sess.SolveFrame(ctx, [][]int{{lit}}, nil)
		rows[i].Session = Cell{
			Time: time.Since(start), Status: res.Status,
			Checks: res.Stats.LinearChecks + res.Stats.NonlinearChecks,
		}
		if err == core.ErrTimeout {
			rows[i].Session.Note = "timeout"
		} else if err != nil {
			return nil, err
		}
		if rows[i].Session.Status != rows[i].Cold.Status &&
			rows[i].Session.Note == "" && rows[i].Cold.Note == "" {
			return nil, fmt.Errorf("bench: %s: session %v vs cold %v",
				rows[i].Name, rows[i].Session.Status, rows[i].Cold.Status)
		}
	}
	return rows, nil
}

// IncrementalTotals sums the theory checks of both modes.
func IncrementalTotals(rows []IncrementalRow) (cold, session int) {
	for _, r := range rows {
		cold += r.Cold.Checks
		session += r.Session.Checks
	}
	return cold, session
}

// FormatIncremental renders the sweep in the tables' layout.
func FormatIncremental(rows []IncrementalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental session ablation (Fischer critical-section sweep)\n")
	fmt.Fprintf(&b, "%-8s | %-7s | %10s | %6s | %10s | %6s\n",
		"query", "verdict", "cold", "checks", "session", "checks")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 64))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %-7s | %10s | %6d | %10s | %6d\n",
			r.Name, r.Cold.Status, fmtDur(r.Cold.Time), r.Cold.Checks,
			fmtDur(r.Session.Time), r.Session.Checks)
	}
	cold, session := IncrementalTotals(rows)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 64))
	fmt.Fprintf(&b, "total theory checks: cold=%d session=%d\n", cold, session)
	return b.String()
}

// JSONIncremental flattens the sweep into one JSONRow per mode and query
// (table number 6, solvers "absolver-cold" and "absolver-session").
func JSONIncremental(rows []IncrementalRow) []JSONRow {
	var out []JSONRow
	for _, r := range rows {
		out = append(out,
			jsonRow(6, r.Name, "absolver-cold", r.Cold),
			jsonRow(6, r.Name, "absolver-session", r.Session))
	}
	return out
}
