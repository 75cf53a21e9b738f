package bench

import (
	"encoding/json"
	"io"
	"math"
	"time"

	"absolver/internal/core"
)

// JSONRow is one solver-on-instance measurement in the machine-readable
// output of abbench -json: which table, which instance, which solver, the
// verdict, the wall time, and the theory-check count behind it. The field
// names are part of the tool's output contract — CI archives these files
// (BENCH_5.json) and downstream tooling diffs them across revisions.
type JSONRow struct {
	Table    int    `json:"table"`
	Instance string `json:"instance"`
	Solver   string `json:"solver"`
	Verdict  string `json:"verdict"`
	// Note carries the abnormal-outcome marker ("rejected", "timeout",
	// "OOM", or an error string); empty for a clean run.
	Note        string  `json:"note,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// TheoryChecks counts theory-solver invocations (see Cell.Checks).
	TheoryChecks int `json:"theory_checks"`
	// Counters carries optional solver-internal statistics (see
	// Cell.Counters); absent from most rows.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// JSON flattens the table into one JSONRow per cell, row by row.
func (t Table) JSON() []JSONRow {
	var out []JSONRow
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			out = append(out, JSONRow{
				Table: t.Number, Instance: r.Instance, Solver: c.Solver,
				Verdict: c.verdict(), Note: c.Note,
				WallSeconds: c.Time.Seconds(), TheoryChecks: c.Checks,
				Counters: c.Counters,
			})
		}
	}
	return out
}

// AddBaseline appends to each row the cell that a prior artifact's rows of
// solver recorded for the same instance, so the table prints old-vs-new
// columns and its JSON output carries the old side along.
func (t *Table) AddBaseline(prior []JSONRow, solver string) {
	old := map[string]Cell{}
	for _, r := range prior {
		if r.Solver != solver {
			continue
		}
		c := Cell{
			Solver: r.Solver, Verdict: r.Verdict, Note: r.Note,
			Time:   time.Duration(math.Round(r.WallSeconds * float64(time.Second))),
			Checks: r.TheoryChecks, Counters: r.Counters,
		}
		for _, s := range []core.Status{core.StatusSat, core.StatusUnsat} {
			if r.Verdict == s.String() {
				c.Status = s
			}
		}
		old[r.Instance] = c
	}
	for i, r := range t.Rows {
		if c, ok := old[r.Instance]; ok {
			t.Rows[i].Cells = append(r.Cells, c)
		}
	}
}

// WriteJSON writes the rows as an indented JSON array with a trailing
// newline (the committed-artifact format of BENCH_5.json).
func WriteJSON(w io.Writer, rows []JSONRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// ReadJSON parses a committed benchmark artifact (the WriteJSON format)
// back into rows — used by abbench -baseline to print old-vs-new columns.
func ReadJSON(r io.Reader) ([]JSONRow, error) {
	var rows []JSONRow
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return nil, err
	}
	return rows, nil
}
