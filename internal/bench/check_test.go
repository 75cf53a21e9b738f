package bench

import (
	"strings"
	"testing"
	"time"
)

func TestCheckInstancesBuild(t *testing.T) {
	for _, inst := range CheckInstances() {
		prog, err := inst.Build()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if prog.Main() == nil {
			t.Fatalf("%s: empty program", inst.Name)
		}
	}
}

func TestRunCheckSteering(t *testing.T) {
	// The full sweep is the bench binary's job; the smoke test runs only
	// the fast case-study instance and checks both modes end to end.
	var inst CheckInstance
	for _, c := range CheckInstances() {
		if c.Name == "steering" {
			inst = c
		}
	}
	if inst.Name == "" {
		t.Fatal("no steering instance")
	}
	tab, err := runCheck([]CheckInstance{inst}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	warm, cold := row.Cells[0], row.Cells[1]
	// The paper's query: the critical driving situation is reachable, so
	// the safety property falsifies immediately with a test vector.
	if warm.Verdict != "falsified" || row.Detail != "k=0" {
		t.Fatalf("row = %+v, want falsified at k=0", row)
	}
	if warm.Checks <= 0 || cold.Checks <= 0 {
		t.Fatalf("missing theory-check counts: %+v", row)
	}

	out := tab.Format()
	if !strings.Contains(out, "steering") || !strings.Contains(out, "falsified") {
		t.Fatalf("format: %q", out)
	}
	rows := tab.JSON()
	if len(rows) != 2 || rows[0].Table != 8 || rows[0].Solver != "absolver-warm" ||
		rows[1].Solver != "absolver-cold" || rows[0].Verdict != "falsified" {
		t.Fatalf("json rows: %+v", rows)
	}
}
