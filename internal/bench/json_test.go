package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"absolver/internal/core"
)

// TestJSONRows pins the machine-readable output contract: one row per
// solver per instance, stable field names, notes only on abnormal
// outcomes, and a decodable stream.
func TestJSONRows(t *testing.T) {
	rows := Table{Number: 1, Rows: []Row{{Instance: "nonlinear_unsat", Cells: []Cell{
		{Solver: "absolver", Time: 1500 * time.Millisecond, Status: core.StatusUnsat, Checks: 7},
		{Solver: "cvclite", Time: time.Millisecond, Status: core.StatusUnknown, Note: "rejected"},
		{Solver: "mathsat", Time: time.Millisecond, Status: core.StatusUnknown, Note: "rejected"},
	}}}}.JSON()
	rows = append(rows, Table{Number: 3, Rows: []Row{{Instance: "easy_1", Cells: []Cell{
		{Solver: "absolver", Time: 80 * time.Millisecond, Status: core.StatusSat, Checks: 3},
		{Solver: "cvclite", Time: 10 * time.Millisecond, Status: core.StatusUnknown, Note: "OOM"},
		{Solver: "mathsat", Time: 5 * time.Second, Status: core.StatusUnknown, Note: "timeout", Checks: 42},
	}}}}.JSON()...)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 solvers x 2 instances)", len(rows))
	}
	first := rows[0]
	if first.Table != 1 || first.Instance != "nonlinear_unsat" || first.Solver != "absolver" ||
		first.Verdict != "unsat" || first.Note != "" || first.WallSeconds != 1.5 || first.TheoryChecks != 7 {
		t.Fatalf("absolver row: %+v", first)
	}

	var sb strings.Builder
	if err := WriteJSON(&sb, rows); err != nil {
		t.Fatal(err)
	}
	var back []JSONRow
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back) != len(rows) || back[5].Note != "timeout" || back[5].Table != 3 {
		t.Fatalf("round trip: %+v", back)
	}
	// The field names are the contract: downstream tooling diffs these.
	for _, key := range []string{`"table"`, `"instance"`, `"solver"`, `"verdict"`, `"wall_seconds"`, `"theory_checks"`} {
		if !strings.Contains(sb.String(), key) {
			t.Errorf("output lacks field %s", key)
		}
	}
}

// TestAgree pins the one agreement rule of every table: a definitive
// sat/unsat split is an error; unknown, timed-out and iteration-limited
// cells agree with anything.
func TestAgree(t *testing.T) {
	sat := Cell{Solver: "a", Status: core.StatusSat}
	unsat := Cell{Solver: "b", Status: core.StatusUnsat}
	for _, cells := range [][]Cell{
		{sat, unsat},
		{sat, {Solver: "u", Status: core.StatusUnknown}, unsat},
		{{Solver: "w", Status: checkStatus["falsified"]}, {Solver: "c", Status: checkStatus["proved"]}},
	} {
		if err := agree(Row{Instance: "x", Cells: cells}); err == nil {
			t.Errorf("%+v: no conflict reported", cells)
		}
	}
	for _, other := range []Cell{
		sat,
		{Solver: "u", Status: core.StatusUnknown},
		{Solver: "t", Status: core.StatusUnsat, Note: "timeout"},
		{Solver: "i", Status: core.StatusUnknown, Note: "iteration limit"},
		{Solver: "b", Status: checkStatus["bound_reached"]},
	} {
		if err := agree(Row{Instance: "x", Cells: []Cell{sat, other}}); err != nil {
			t.Errorf("sat vs %+v: %v", other, err)
		}
	}
}

// TestMeasureOutcomes pins how a solve's error becomes a cell: timeouts
// (engine or context) and the iteration limit are notes on an unknown
// cell, anything else fails the table.
func TestMeasureOutcomes(t *testing.T) {
	for err, note := range map[error]string{
		nil:             "",
		core.ErrTimeout: "timeout",
		fmt.Errorf("solve: %w", context.DeadlineExceeded): "timeout",
		core.ErrIterationLimit:                            "iteration limit",
	} {
		c, _, got := measure("s", func() (core.Result, error) { return core.Result{Status: core.StatusUnknown}, err })
		if got != nil || c.Note != note || c.Solver != "s" {
			t.Errorf("%v: cell %+v, err %v; want note %q", err, c, got, note)
		}
	}
	c, _, err := measure("s", func() (core.Result, error) { return core.Result{Status: core.StatusSat}, core.ErrIterationLimit })
	if err != nil || c.Status != core.StatusUnknown {
		t.Errorf("iteration limit: cell %+v, err %v; want unknown", c, err)
	}
	boom := errors.New("boom")
	if _, _, err := measure("s", func() (core.Result, error) { return core.Result{}, boom }); err != boom {
		t.Errorf("engine error: got %v", err)
	}
}

// TestJSONContract runs every ablation at its smallest size and checks
// that its JSON rows carry exactly the (table, solver) pairs and counter
// keys of the committed artifacts, so regenerated files stay diffable.
func TestJSONContract(t *testing.T) {
	const timeout = 60 * time.Second
	committed := func(name string) []JSONRow {
		f, err := os.Open(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := ReadJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	sat := SATCore(1)
	sat.Suite = sat.Suite[:1] // FISCHER1
	nlp := NLP(1)
	nlp.Suite, nlp.Keep = nlp.Suite[:1], nil
	steering := CheckInstances()[2:]
	for _, c := range []struct {
		file string
		run  func() (Table, error)
	}{
		{"BENCH_6.json", func() (Table, error) { return RunIncremental(1, timeout) }},
		{"BENCH_7.json", func() (Table, error) {
			tab, err := sat.Run(timeout)
			tab.AddBaseline(committed("BENCH_7.json"), SATCoreSolverName)
			return tab, err
		}},
		{"BENCH_8.json", func() (Table, error) { return runCheck(steering, timeout) }},
		{"BENCH_9.json", func() (Table, error) { return RunCluster(1, 1, timeout) }},
		{"BENCH_10.json", func() (Table, error) { return nlp.Run(timeout) }},
	} {
		tab, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		got, want := shape(tab.JSON()), shape(committed(c.file))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows carry %q, committed file %q", c.file, got, want)
		}
	}
}

// shape lists the distinct "table solver counter-keys" of rows, sorted.
func shape(rows []JSONRow) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		var keys []string
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := fmt.Sprintf("%d %s %s", r.Table, r.Solver, strings.Join(keys, ","))
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
