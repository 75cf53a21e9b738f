package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"absolver"
	"absolver/internal/core"
)

// satInput: (v1 ∨ v2) with v1 bound to x >= 1 — satisfiable.
const satInput = `p cnf 2 1
1 2 0
c def real 1 x >= 1
`

// unsatInput: v1 ∧ v2 with contradictory bindings — theory-unsat.
const unsatInput = `p cnf 2 2
1 0
2 0
c def real 1 x + y >= 5
c def real 2 x + y <= 4
`

func runCLI(t *testing.T, input string, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(input), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCLIVerdictsAndExitCodes(t *testing.T) {
	code, out, _ := runCLI(t, satInput)
	if code != exitSat || !strings.Contains(out, "s SATISFIABLE") {
		t.Fatalf("sat input: code=%d out=%q", code, out)
	}
	code, out, _ = runCLI(t, unsatInput)
	if code != exitUnsat || !strings.Contains(out, "s UNSATISFIABLE") {
		t.Fatalf("unsat input: code=%d out=%q", code, out)
	}
}

// TestCLIPortfolioRejectsAll pins the usage error: -all (model
// enumeration) cannot race, so the combination exits 2 with a diagnostic.
func TestCLIPortfolioRejectsAll(t *testing.T) {
	code, _, errOut := runCLI(t, satInput, "-portfolio", "2", "-all")
	if code != exitUsage {
		t.Fatalf("-portfolio -all: code=%d, want %d", code, exitUsage)
	}
	if !strings.Contains(errOut, "mutually exclusive") {
		t.Fatalf("-portfolio -all: stderr %q lacks a diagnostic", errOut)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, satInput, "-portfolio", "-1"); code != exitUsage {
		t.Fatalf("-portfolio -1: code=%d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, satInput, "-bogus-flag"); code != exitUsage {
		t.Fatalf("unknown flag: code=%d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "p cnf zzz", ""); code != exitUsage {
		t.Fatalf("parse error: code=%d, want %d", code, exitUsage)
	}
}

// TestCLIPortfolioRuns exercises the race end to end through the CLI,
// including the stats lines for the new exchange and cache counters.
func TestCLIPortfolioRuns(t *testing.T) {
	code, out, errOut := runCLI(t, unsatInput, "-portfolio", "3", "-stats")
	if code != exitUnsat {
		t.Fatalf("portfolio unsat: code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"s UNSATISFIABLE", "c portfolio winner:", "c lemmas: published=", "c theory-cache: hits="} {
		if !strings.Contains(out, want) {
			t.Fatalf("portfolio output missing %q:\n%s", want, out)
		}
	}

	// The ablation flags must be accepted alongside -portfolio (the old
	// binary silently mis-applied them; rejecting them would also fail here).
	code, _, errOut = runCLI(t, unsatInput, "-portfolio", "2", "-restart", "-no-iis", "-no-lemmas", "-no-cache", "-no-share")
	if code != exitUnsat {
		t.Fatalf("portfolio with ablation flags: code=%d stderr=%q", code, errOut)
	}
}

// TestComposeStrategiesOR is the regression test for the flag-composition
// bug: plain assignment of the -restart flag value used to CLOBBER the
// "restart" strategy's defining RestartBoolean=true when the flag was
// absent. Composition must be a logical OR per knob.
func TestComposeStrategiesOR(t *testing.T) {
	strategies := absolver.DefaultStrategies(6)
	var restartIdx, noIISIdx int = -1, -1
	for i, s := range strategies {
		if s.Name == "restart" {
			restartIdx = i
		}
		if s.Name == "no-iis" {
			noIISIdx = i
		}
	}
	if restartIdx < 0 || noIISIdx < 0 {
		t.Fatal("DefaultStrategies(6) lacks the restart/no-iis strategies (test premise broken)")
	}

	// No flags set: every strategy keeps its own configuration.
	for i := range strategies {
		strategies[i].Config = strategies[i].Config.WithKnobs(absolver.Config{}.KnobSet())
	}
	if !strategies[restartIdx].Config.RestartBoolean {
		t.Fatal("composition with zero base stripped the restart strategy's RestartBoolean")
	}
	if !strategies[noIISIdx].Config.NoIIS {
		t.Fatal("composition with zero base stripped the no-iis strategy's NoIIS")
	}

	// All flags set: every strategy gains every restriction, keeping its own.
	base := absolver.Config{
		RestartBoolean: true, NoIIS: true, NoGroundLemmas: true, NoTheoryCache: true,
	}
	for i := range strategies {
		strategies[i].Config = strategies[i].Config.WithKnobs(base.KnobSet())
	}
	for _, s := range strategies {
		if !s.Config.RestartBoolean || !s.Config.NoIIS || !s.Config.NoGroundLemmas || !s.Config.NoTheoryCache {
			t.Fatalf("strategy %q did not receive all composed knobs: %+v", s.Name, s.Config)
		}
	}

	// Each knob alone reaches every strategy, and no strategy loses its own.
	for _, kn := range core.Knobs {
		var base absolver.Config
		*kn.Field(&base) = true
		for _, s := range absolver.DefaultStrategies(6) {
			own := s.Config.KnobSet()
			s.Config = s.Config.WithKnobs(base.KnobSet())
			if !*kn.Field(&s.Config) {
				t.Errorf("knob %s did not reach strategy %q", kn.Name, s.Name)
			}
			if got := s.Config.KnobSet(); got&own != own {
				t.Errorf("knob %s stripped strategy %q of its own knobs: %b -> %b", kn.Name, s.Name, own, got)
			}
		}
	}
}

// TestCLIKnobFlags checks that every core.Knobs entry is a CLI flag that
// sets exactly its own Config switch, and that the two flags the table
// added, -no-inprocess and -check-models, run end to end: on a pigeonhole
// instance the probes the SAT core runs by default drop to zero.
func TestCLIKnobFlags(t *testing.T) {
	for i, kn := range core.Knobs {
		fs := flag.NewFlagSet("absolver", flag.ContinueOnError)
		cfg := knobFlags(fs)
		flagName := "-" + strings.ReplaceAll(kn.Name, "_", "-")
		if err := fs.Parse([]string{flagName}); err != nil {
			t.Fatalf("%s: %v", flagName, err)
		}
		if got := cfg.KnobSet(); got != 1<<i {
			t.Errorf("%s set knobs %b, want only %s", flagName, got, kn.Name)
		}
	}

	// PHP(6,5): six pigeons, five holes.
	var php strings.Builder
	v := func(p, h int) int { return p*5 + h + 1 }
	fmt.Fprintf(&php, "p cnf 30 81\n")
	for p := 0; p < 6; p++ {
		fmt.Fprintf(&php, "%d %d %d %d %d 0\n", v(p, 0), v(p, 1), v(p, 2), v(p, 3), v(p, 4))
	}
	for h := 0; h < 5; h++ {
		for p := 0; p < 6; p++ {
			for q := p + 1; q < 6; q++ {
				fmt.Fprintf(&php, "-%d -%d 0\n", v(p, h), v(q, h))
			}
		}
	}
	code, out, errOut := runCLI(t, php.String(), "-stats", "-q")
	if code != exitUnsat || strings.Contains(out, " probed_literals=0 ") {
		t.Fatalf("default run: code=%d, want %d with probes run:\n%s%s", code, exitUnsat, out, errOut)
	}
	code, out, errOut = runCLI(t, php.String(), "-stats", "-q", "-no-inprocess", "-check-models")
	if code != exitUnsat || !strings.Contains(out, " probed_literals=0 ") {
		t.Fatalf("-no-inprocess -check-models: code=%d, want %d with no probes:\n%s%s", code, exitUnsat, out, errOut)
	}
	if code, _, errOut := runCLI(t, satInput, "-no-inprocess", "-check-models"); code != exitSat {
		t.Fatalf("sat with -no-inprocess -check-models: code=%d stderr=%q", code, errOut)
	}
	if code, _, errOut := runCLI(t, unsatInput, "-portfolio", "2", "-no-inprocess", "-check-models"); code != exitUnsat {
		t.Fatalf("portfolio unsat with -no-inprocess -check-models: code=%d stderr=%q", code, errOut)
	}
}

// TestCLISingleEngineFlagsAndStats covers the non-portfolio path with every
// ablation knob plus -stats and -q.
func TestCLISingleEngineFlagsAndStats(t *testing.T) {
	code, out, _ := runCLI(t, unsatInput, "-restart", "-no-iis", "-no-lemmas", "-no-cache", "-stats", "-q")
	if code != exitUnsat {
		t.Fatalf("single engine ablations: code=%d", code)
	}
	if !strings.Contains(out, "c iterations=") {
		t.Fatalf("-stats output missing iteration counters:\n%s", out)
	}
	if strings.Contains(out, "c value ") {
		t.Fatalf("-q still printed witness values:\n%s", out)
	}
}

// TestCLIAllModels pins LSAT-mode enumeration and its exit code.
func TestCLIAllModels(t *testing.T) {
	code, out, _ := runCLI(t, satInput, "-all", "-q")
	if code != exitSat {
		t.Fatalf("-all: code=%d", code)
	}
	if !strings.Contains(out, "model(s); final status") {
		t.Fatalf("-all output missing the enumeration summary:\n%s", out)
	}
}

// TestCLIDashReadsStdin pins "-" as the conventional stdin spelling: the
// argument must select standard input, not a file named "-".
func TestCLIDashReadsStdin(t *testing.T) {
	code, out, _ := runCLI(t, satInput, "-q", "-")
	if code != exitSat || !strings.Contains(out, "s SATISFIABLE") {
		t.Fatalf("dash input: code=%d out=%q", code, out)
	}
	// Knobs still parse in front of the dash.
	code, out, _ = runCLI(t, unsatInput, "-stats", "-")
	if code != exitUnsat || !strings.Contains(out, "c iterations=") {
		t.Fatalf("dash with -stats: code=%d out=%q", code, out)
	}
	// A second path next to "-" is still a usage error.
	if code, _, _ := runCLI(t, satInput, "-", "extra.cnf"); code != exitUsage {
		t.Fatalf("dash plus file: code=%d, want %d", code, exitUsage)
	}
}

// TestCLIBatchRejectsMultiStrategyFlags pins the usage guard: -batch runs
// one warm session and is single-strategy, mirroring the -portfolio/-all
// exclusivity check.
func TestCLIBatchRejectsMultiStrategyFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-batch", "x.ndjson", "-portfolio", "2"},
		{"-batch", "x.ndjson", "-all"},
		{"-batch", "x.ndjson", "-restart"},
	} {
		code, _, errOut := runCLI(t, satInput, args...)
		if code != exitUsage {
			t.Fatalf("%v: code=%d, want %d", args, code, exitUsage)
		}
		if !strings.Contains(errOut, "mutually exclusive") {
			t.Fatalf("%v: stderr %q lacks a diagnostic", args, errOut)
		}
	}
	// A missing batch file is a usage error too (after the guards).
	if code, _, _ := runCLI(t, satInput, "-batch", "/nonexistent/file.ndjson"); code != exitUsage {
		t.Fatal("missing batch file accepted")
	}
}

func TestCLIBatchSolvesInstances(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.ndjson")
	lines := []string{
		`{"id": "plain"}`,
		`{"id": "contradicted", "clauses": [[-1], [-2]]}`,
		`# a comment line is skipped`,
		`{"id": "assumed", "assume": [1]}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, satInput, "-batch", path, "-stats")
	if code != exitSat {
		t.Fatalf("code=%d stderr=%q out=%q", code, errOut, out)
	}
	for _, want := range []string{
		"c instance plain", "c instance contradicted", "c instance assumed",
		"s SATISFIABLE", "s UNSATISFIABLE",
		"c batch: 3 instance(s), 3 solved, 0 unknown, 0 failed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	// A bad delta clause fails its instance but not the ones after it.
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte(`{"id": "broken", "clauses": [[0]]}`+"\n"+`{"id": "fine"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCLI(t, satInput, "-batch", bad)
	if code != exitInternal {
		t.Fatalf("bad clause batch: code=%d, want %d", code, exitInternal)
	}
	if !strings.Contains(errOut, "broken") || !strings.Contains(out, "1 solved, 0 unknown, 1 failed") {
		t.Fatalf("bad clause batch: out=%q stderr=%q", out, errOut)
	}
}
