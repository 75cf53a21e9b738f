package bench

import (
	"strings"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/expr"
)

func TestTable1InstanceDimensions(t *testing.T) {
	// The declared dimensions must match what the builders actually
	// produce (clauses may be enlarged by multi-def expansion; the
	// declared counts are the *input* dimensions, checked structurally
	// against the source text here).
	for _, inst := range Table1Instances() {
		if inst.Name == "Car steering" {
			p, err := inst.Build()
			if err != nil {
				t.Fatal(err)
			}
			cl, _, lin, nl := p.Counts()
			if lin != inst.Linear || nl != inst.Nonlinear {
				t.Fatalf("%s: lin/nl = %d/%d, declared %d/%d", inst.Name, lin, nl, inst.Linear, inst.Nonlinear)
			}
			if cl != inst.Clauses {
				t.Fatalf("%s: clauses = %d, declared %d", inst.Name, cl, inst.Clauses)
			}
			continue
		}
		p, err := inst.Build()
		if err != nil {
			t.Fatal(err)
		}
		// Linear/nonlinear split over the bindings (after multi-def
		// expansion the counts are preserved).
		_, _, lin, nl := p.Counts()
		if lin != inst.Linear || nl != inst.Nonlinear {
			t.Fatalf("%s: lin/nl = %d/%d, declared %d/%d", inst.Name, lin, nl, inst.Linear, inst.Nonlinear)
		}
	}
}

func TestTable1TextDimensions(t *testing.T) {
	// The DIMACS sources declare exactly the paper's #Cl and #Var.
	cases := []struct {
		src     string
		clauses int
		vars    int
	}{
		{esatN11M8, 11, 8},
		{nonlinearUnsat, 1, 1},
		{divOperator, 1, 1},
	}
	for _, c := range cases {
		var header string
		for _, line := range strings.Split(c.src, "\n") {
			if strings.HasPrefix(line, "p cnf") {
				header = line
				break
			}
		}
		want := ""
		if c.clauses >= 0 {
			want = strings.TrimSpace(header)
		}
		_ = want
		var nv, nc int
		if _, err := fmtSscanf(header, &nv, &nc); err != nil {
			t.Fatalf("bad header %q: %v", header, err)
		}
		if nv != c.vars || nc != c.clauses {
			t.Fatalf("header %q declares %d/%d, want %d/%d", header, nv, nc, c.vars, c.clauses)
		}
	}
}

func fmtSscanf(header string, nv, nc *int) (int, error) {
	fields := strings.Fields(header)
	if len(fields) != 4 {
		return 0, errBadHeader
	}
	var err1, err2 error
	*nv, err1 = atoi(fields[2])
	*nc, err2 = atoi(fields[3])
	if err1 != nil {
		return 0, err1
	}
	if err2 != nil {
		return 0, err2
	}
	return 2, nil
}

var errBadHeader = errT("bad header")

type errT string

func (e errT) Error() string { return string(e) }

func atoi(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errBadHeader
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

func TestTable1SmallInstancesSolve(t *testing.T) {
	for _, inst := range Table1Instances() {
		if inst.Name == "Car steering" {
			continue // covered by the steering package tests (slow)
		}
		p, err := inst.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngine(p, core.Config{}).Solve()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if res.Status != inst.Want {
			t.Fatalf("%s: status = %v, want %v", inst.Name, res.Status, inst.Want)
		}
		if res.Status == core.StatusSat {
			if err := p.Check(*res.Model); err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
		}
	}
}

func TestDivOperatorUsesDivision(t *testing.T) {
	p, err := dimacs.ParseString(divOperator)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range p.Bindings {
		if !expr.IsLinear(a) && strings.Contains(a.String(), "/") {
			found = true
		}
	}
	if !found {
		t.Fatal("div_operator instance has no division atom")
	}
}

func TestRunTable2Smallest(t *testing.T) {
	tab, err := RunTable2(1, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	r := tab.Rows[0]
	if c := r.Cells[0]; c.Status != core.StatusSat && c.Note == "" {
		t.Fatalf("ABsolver cell: %+v", c)
	}
	out := tab.Format()
	if !strings.Contains(out, "FISCHER1") {
		t.Fatalf("format output missing instance name:\n%s", out)
	}
}

// TestTable1RejectsWrongVerdict sends one instance through Table 1's
// per-instance path twice: as declared, and with its expected verdict
// flipped, which must fail the run instead of printing a wrong row.
func TestTable1RejectsWrongVerdict(t *testing.T) {
	for _, inst := range Table1Instances() {
		if inst.Name != "nonlinear_unsat" {
			continue
		}
		if _, err := table1Row(inst, time.Minute); err != nil {
			t.Fatalf("declared verdict: %v", err)
		}
		inst.Want = core.StatusSat
		if _, err := table1Row(inst, time.Minute); err == nil {
			t.Fatal("flipped Want: no error")
		}
		return
	}
	t.Fatal("no nonlinear_unsat instance")
}

func TestCellFormatting(t *testing.T) {
	if got := (Cell{Note: "OOM"}).String(); got != "–*" {
		t.Fatalf("OOM cell = %q", got)
	}
	if got := (Cell{Note: "rejected"}).String(); got != "rejected" {
		t.Fatalf("rejected cell = %q", got)
	}
	c := Cell{Time: 58344 * time.Millisecond}
	if got := c.String(); got != "0m58.344s" {
		t.Fatalf("duration cell = %q", got)
	}
	c = Cell{Time: 84*time.Minute + 7385*time.Millisecond}
	if got := c.String(); got != "84m07.385s" {
		t.Fatalf("duration cell = %q", got)
	}
}
