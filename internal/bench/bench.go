// Package bench assembles the paper's evaluation (Sec. 5): the instance
// builders and runners that regenerate Tables 1-3, shared between the
// abbench command and the repository-level Go benchmarks, plus the
// ablations that measure this implementation's design choices. Every
// runner returns a Table: rows of per-solver Cells, printed by
// Table.Format (the paper's layouts for Tables 1-3, one ablation layout
// otherwise) and flattened by Table.JSON.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"absolver/internal/baseline"
	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/fischer"
	"absolver/internal/smtlib"
	"absolver/internal/steering"
	"absolver/internal/sudoku"
)

// ---------------------------------------------------------------------------
// Table 1: nonlinear problems.

// esatN11M8 is the esat_n11_m8_nonlinear benchmark: 11 clauses, 8 Boolean
// variables, 9 linear and 2 nonlinear constraints — a small embedded
// saturation check. The dimensions match the paper's row exactly.
const esatN11M8 = `c esat_n11_m8_nonlinear
p cnf 8 11
1 0
2 0
3 0
4 0
8 0
5 6 0
-5 7 0
-6 7 0
5 -7 6 0
7 0
-5 -6 7 0
c def real 1 u >= 0
c def real 2 u <= 10
c def real 3 w >= 1
c def real 4 w <= 5
c def real 5 u + w <= 12
c def real 5 u - w >= -6
c def real 6 u - w >= -4
c def real 7 2*u + 3*w <= 30
c def real 7 u + 2*w >= 2
c def real 8 u * w >= 6
c def real 8 u * w <= 20
c bound u -100 100
c bound w -100 100
`

// nonlinearUnsat is the nonlinear_unsat benchmark: a single Boolean
// variable bound to the contradictory conjunction x² ≥ 1 ∧ x² ≤ 0.5.
const nonlinearUnsat = `c nonlinear_unsat
p cnf 1 1
1 0
c def real 1 x * x >= 1
c def real 1 x * x <= 0.5
c bound x -1000 1000
`

// divOperator is the div_operator benchmark: 4 linear range constraints
// plus one constraint using the division operator (the extension the paper
// reports took "less than an hour of programming effort").
const divOperator = `c div_operator
p cnf 1 1
1 0
c def real 1 y >= 0
c def real 1 y <= 10
c def real 1 z >= 1
c def real 1 z <= 5
c def real 1 y / z = 2
c bound y -100 100
c bound z 0.5 100
`

// Table1Instance is one row's workload.
type Table1Instance struct {
	Name string
	// Declared dimensions (as in the paper's table: input clauses and
	// variables, linear and nonlinear constraint counts).
	Clauses, Vars, Linear, Nonlinear int
	Build                            func() (*core.Problem, error)
	// Want is the expected verdict (sanity check).
	Want core.Status
}

// Table1Instances returns the four workloads of Table 1.
func Table1Instances() []Table1Instance {
	fromDIMACS := func(src string) func() (*core.Problem, error) {
		return func() (*core.Problem, error) { return dimacs.ParseString(src) }
	}
	return []Table1Instance{
		{
			Name: "Car steering", Clauses: 964, Vars: 24, Linear: 4, Nonlinear: 20,
			Build: steering.Problem, Want: core.StatusSat,
		},
		{
			Name: "esat_n11_m8_nonlinear", Clauses: 11, Vars: 8, Linear: 9, Nonlinear: 2,
			Build: fromDIMACS(esatN11M8), Want: core.StatusSat,
		},
		{
			Name: "nonlinear_unsat", Clauses: 1, Vars: 1, Linear: 0, Nonlinear: 2,
			Build: fromDIMACS(nonlinearUnsat), Want: core.StatusUnsat,
		},
		{
			Name: "div_operator", Clauses: 1, Vars: 1, Linear: 4, Nonlinear: 1,
			Build: fromDIMACS(divOperator), Want: core.StatusSat,
		},
	}
}

// RunTable1 measures Table 1: ABsolver solves each nonlinear instance;
// both baselines reject them. A verdict that differs from the instance's
// Want fails the run unless it timed out.
func RunTable1(timeout time.Duration) (Table, error) {
	t := Table{Number: 1}
	for _, inst := range Table1Instances() {
		row, err := table1Row(inst, timeout)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func table1Row(inst Table1Instance, timeout time.Duration) (Row, error) {
	p, err := inst.Build()
	if err != nil {
		return Row{}, fmt.Errorf("bench: building %s: %w", inst.Name, err)
	}
	c, _, err := solveCell("absolver", p, core.Config{Timeout: timeout})
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", inst.Name, err)
	}
	if c.Note != "timeout" && c.Status != inst.Want {
		return Row{}, fmt.Errorf("bench: %s: verdict %v, want %v", inst.Name, c.Status, inst.Want)
	}
	return Row{Instance: inst.Name, Cells: []Cell{c,
		runBaseline("cvclite", &baseline.CVCLiteLike{Timeout: timeout}, p),
		runBaseline("mathsat", &baseline.MathSATLike{Timeout: timeout}, p),
	}}, nil
}

type baselineSolver interface {
	Solve(*core.Problem) (baseline.Result, error)
}

// runBaseline measures a comparison solver under the label solver.
func runBaseline(solver string, s baselineSolver, p *core.Problem) Cell {
	start := time.Now()
	r, err := s.Solve(p)
	cell := Cell{Solver: solver, Time: time.Since(start), Status: r.Status, Checks: r.Stats.TheoryChecks}
	switch {
	case err == nil:
	case errors.Is(err, baseline.ErrNonlinear):
		cell.Note = "rejected"
	case errors.Is(err, baseline.ErrTimeout):
		cell.Note = "timeout"
	case errors.Is(err, baseline.ErrOutOfMemory):
		cell.Note = "OOM"
	default:
		cell.Note = err.Error()
	}
	return cell
}

// formatTable1 renders the rows like the paper's Table 1 (plus the
// comparison columns' rejections).
func formatTable1(rows []Row) string {
	dims := map[string]Table1Instance{}
	for _, inst := range Table1Instances() {
		dims[inst.Name] = inst
	}
	var sb strings.Builder
	sb.WriteString("Table 1. Results: nonlinear problems.\n")
	fmt.Fprintf(&sb, "%-24s %6s %6s %8s %9s  %-14s %-10s %-10s\n",
		"Benchmark", "#Cl.", "#Var.", "#linear", "#nonlin.", "ABSOLVER", "CVC Lite", "MathSAT")
	for _, r := range rows {
		d := dims[r.Instance]
		fmt.Fprintf(&sb, "%-24s %6d %6d %8d %9d  %-14s %-10s %-10s\n",
			r.Instance, d.Clauses, d.Vars, d.Linear, d.Nonlinear,
			r.Cells[0], r.Cells[1], r.Cells[2])
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2: SMT-LIB (Fischer) benchmarks.

// fischerInstance is FISCHER<n> as the paper's pipeline feeds it to
// ABsolver: generated, rendered to SMT-LIB and converted back, solved in
// the external-restart combination mode.
func fischerInstance(n int) Instance {
	in := fischer.Generate(fischer.Params{N: n})
	return Instance{Name: in.Name + ".smt", External: true, Build: func() (*core.Problem, error) {
		b, err := smtlib.Parse(in.SMTLIB())
		if err != nil {
			return nil, err
		}
		return b.ToProblem(), nil
	}}
}

// RunTable2 measures FISCHER1..maxN: each instance is generated, rendered
// to SMT-LIB, converted to ABsolver's format (the paper's pipeline), and
// solved by the three solvers. ABsolver runs in the paper's
// external-restart combination mode. The optional progress callback
// receives each row as soon as it is measured (long sweeps stream).
func RunTable2(maxN int, timeout time.Duration, progress ...func(Row)) (Table, error) {
	t := Table{Number: 2}
	for n := 1; n <= maxN; n++ {
		inst := fischerInstance(n)
		p, err := inst.Build()
		if err != nil {
			return t, fmt.Errorf("bench: %s: %w", inst.Name, err)
		}
		cvc, ms := p.Clone(), p.Clone()
		c, _, err := solveCell("absolver", p, inst.config(core.Config{Timeout: timeout}))
		if err != nil {
			return t, fmt.Errorf("bench: %s: %w", inst.Name, err)
		}
		// The proof-memory budget is set to workstation scale (1 GiB —
		// Table 2's instances must run to completion as in the paper;
		// Table 3 models the published out-of-memory aborts with the
		// budget the harness passes there).
		row := Row{Instance: inst.Name, Cells: []Cell{c,
			runBaseline("cvclite", &baseline.CVCLiteLike{Timeout: timeout, MemoryBudget: 1 << 30}, cvc),
			runBaseline("mathsat", &baseline.MathSATLike{Timeout: timeout}, ms),
		}}
		t.Rows = append(t.Rows, row)
		for _, cb := range progress {
			cb(row)
		}
	}
	return t, nil
}

// formatTable2 renders the rows like the paper's Table 2.
func formatTable2(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Results: SMT-LIB benchmarks.\n")
	fmt.Fprintf(&sb, "%-24s %-18s %-18s %-18s\n", "Benchmark", "ABSOLVER", "CVC Lite", "MathSAT")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %-18s %-18s %-18s\n", r.Instance, r.Cells[0], r.Cells[1], r.Cells[2])
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 3: Sudoku puzzles.

// Table3Options tune the run: the baselines get the era-typical arithmetic
// encoding under a timeout, CVCLiteLike additionally under a proof-memory
// budget (0 = 32 MiB, calibrated so the abort happens within seconds, as
// the paper's –∗ entries suggest for its 2006 machine).
type Table3Options struct {
	Timeout   time.Duration
	CVCMemory int64
}

// RunTable3 measures the ten puzzle instances. ABsolver uses the natural
// mixed Boolean-integer encoding (Sec. 5.3: "the encoding is more natural
// as it can make use of integers"); the comparison solvers receive the
// arithmetic translation their input languages support.
func RunTable3(opt Table3Options) (Table, error) {
	if opt.Timeout == 0 {
		opt.Timeout = 60 * time.Second
	}
	if opt.CVCMemory == 0 {
		opt.CVCMemory = 32 << 20
	}
	t := Table{Number: 3}
	for _, inst := range sudoku.Puzzles() {
		c, res, err := solveCell("absolver", sudoku.EncodeMixed(&inst.Puzzle), core.Config{Timeout: opt.Timeout})
		if err != nil {
			return t, fmt.Errorf("bench: %s: %w", inst.Name, err)
		}
		if res.Status == core.StatusSat {
			// Guard against nonsense timings: verify the solution.
			if g, err := sudoku.DecodeMixed(res.Model); err != nil {
				return t, err
			} else if err := sudoku.Verify(&inst.Puzzle, g); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, Row{Instance: inst.Name, Cells: []Cell{c,
			runBaseline("cvclite", &baseline.CVCLiteLike{
				Timeout: opt.Timeout, MemoryBudget: opt.CVCMemory,
			}, sudoku.EncodeArithmetic(&inst.Puzzle)),
			runBaseline("mathsat", &baseline.MathSATLike{Timeout: opt.Timeout}, sudoku.EncodeArithmetic(&inst.Puzzle)),
		}})
	}
	return t, nil
}

// formatTable3 renders the rows like the paper's Table 3.
func formatTable3(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3. Results: Sudoku puzzles.\n")
	fmt.Fprintf(&sb, "%-20s %-14s %-10s %-18s\n", "Benchmark", "ABSOLVER", "CVC Lite", "MathSAT")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %-14s %-10s %-18s\n", r.Instance, r.Cells[0], r.Cells[1], r.Cells[2])
	}
	return sb.String()
}
