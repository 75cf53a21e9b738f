package bench

import (
	"strings"
	"testing"
	"time"

	"absolver/internal/core"
)

// TestRunNLPSmoke runs the PolyAR ablation down to its first kept instance
// and checks the row is well-formed: the instance genuinely engaged the
// fallback (regions explored), both cells carry verdicts, and the
// formatting/JSON paths accept the rows.
func TestRunNLPSmoke(t *testing.T) {
	tab, err := NLP(1).Run(30 * time.Second)
	if err != nil {
		t.Fatalf("NLP run: %v", err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("NLP run kept %d rows, want 1", len(tab.Rows))
	}
	r := tab.Rows[0]
	without, with := r.Cells[0], r.Cells[1]
	if with.Counters["polyar_regions"] == 0 {
		t.Errorf("%s: fallback engaged but explored 0 regions", r.Instance)
	}
	if with.Status == core.StatusUnknown && without.Status != core.StatusUnknown {
		t.Errorf("%s: polyar unknown but no-polyar %v", r.Instance, without.Status)
	}

	text := tab.Format()
	if !strings.Contains(text, r.Instance) {
		t.Errorf("Format output missing instance %q:\n%s", r.Instance, text)
	}

	js := tab.JSON()
	if len(js) != 2 {
		t.Fatalf("JSON produced %d rows, want 2", len(js))
	}
	for _, jr := range js {
		if jr.Table != 10 {
			t.Errorf("JSON row table = %d, want 10", jr.Table)
		}
	}
	if js[0].Solver != "absolver-no-polyar" || js[1].Solver != "absolver-polyar" {
		t.Errorf("JSON solvers = %q, %q", js[0].Solver, js[1].Solver)
	}
	if js[1].Counters["polyar_regions"] != with.Counters["polyar_regions"] {
		t.Errorf("polyar JSON row counters = %v, want polyar_regions=%d", js[1].Counters, with.Counters["polyar_regions"])
	}
}
