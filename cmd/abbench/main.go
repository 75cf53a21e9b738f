// Command abbench regenerates the paper's evaluation tables (Sec. 5) and
// the ablations that measure this implementation's design choices:
//
//	abbench -table 1            # nonlinear problems (Table 1)
//	abbench -table 2 -maxn 11   # SMT-LIB / Fischer benchmarks (Table 2)
//	abbench -table 3            # Sudoku puzzles (Table 3)
//	abbench -table incr         # cold engines vs one warm session (table 6)
//	abbench -table sat          # knob variants: default vs no_inprocess (table 7)
//	abbench -table check        # model checking, warm vs cold per depth (table 8)
//	abbench -table cluster      # one engine vs a loopback cluster (table 9)
//	abbench -table nlp          # knob variants: no_polyar vs default (table 10)
//	abbench -table all
//	abbench -table all -json    # machine-readable rows (CI artifact)
//
// Every ablation prints in one layout: one line per instance, one column
// per mode or knob variant (verdict, time, theory checks), the recorded
// engine counters, and per-variant totals. The knob ablations (sat, nlp)
// are a suite solved under labelled core.KnobSet variants of the default
// engine; incr, check and cluster compare paths of other shapes (session,
// model checker, cluster) over the same kind of rows.
//
// With -json the selected tables are emitted as a single JSON array of
// per-solver rows (instance, verdict, wall time, theory checks) instead of
// the human-readable layout; table 2's progress lines move to stderr so
// stdout stays valid JSON. CI archives this output as BENCH_5.json.
//
// -baseline FILE loads a previously committed artifact (BENCH_7.json) and
// matches its "absolver-pre-arena" rows by instance name so the sat table
// prints an old-core column and re-emits the baseline rows in its JSON
// output. -incr-budget R turns the incremental ablation into a CI gate: if
// the session sweep needs more than R times the cold sweep's theory checks
// the run exits with status 3.
//
// Absolute times will differ from the 2006 publication (different hardware
// and reimplemented solvers); the shapes — who wins, who rejects, who runs
// out of memory — are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"absolver/internal/bench"
)

func main() {
	maxN := flag.Int("maxn", 11, "largest Fischer instance for tables 2 and sat")
	incrN := flag.Int("incr-n", 2, "Fischer process count for the incremental-session ablation")
	clusterN := flag.Int("cluster-n", 3, "Fischer process count for the cluster ablation")
	clusterPeers := flag.Int("cluster-peers", 2, "loopback worker servers for the cluster ablation")
	nlpRows := flag.Int("nlp-rows", 12, "instances kept for the PolyAR nonlinear ablation")
	timeout := flag.Duration("timeout", 120*time.Second, "per-solver timeout per instance")
	cvcMem := flag.Int64("cvc-mem", 32<<20, "CVCLiteLike proof-memory budget in bytes (table 3)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON rows instead of tables")
	baseline := flag.String("baseline", "", "prior -json artifact supplying old-core rows for the sat table")
	incrBudget := flag.Float64("incr-budget", 0, "fail (exit 3) if session theory checks exceed this ratio of cold checks (0 disables)")

	// tables is the registry: -table NAME runs one entry, -table all every
	// entry marked all, in this order. cluster and nlp stay outside "all":
	// the cluster boots live HTTP servers, the PolyAR ablation is archived
	// separately as BENCH_10.json, and BENCH_5.json's row set is frozen.
	var baseRows []bench.JSONRow
	tables := []struct {
		name string
		all  bool
		run  func() (bench.Table, error)
	}{
		{"1", true, func() (bench.Table, error) { return bench.RunTable1(*timeout) }},
		{"2", true, func() (bench.Table, error) {
			progress := os.Stdout
			if *jsonOut {
				progress = os.Stderr // stdout stays valid JSON
			}
			return bench.RunTable2(*maxN, *timeout, func(r bench.Row) {
				fmt.Fprintf(progress, "# %-24s", r.Instance)
				for _, c := range r.Cells {
					fmt.Fprintf(progress, " %s=%-16s", c.Solver, c)
				}
				fmt.Fprintln(progress)
			})
		}},
		{"3", true, func() (bench.Table, error) {
			return bench.RunTable3(bench.Table3Options{Timeout: *timeout, CVCMemory: *cvcMem})
		}},
		{"incr", true, func() (bench.Table, error) {
			t, err := bench.RunIncremental(*incrN, *timeout)
			if err == nil && *incrBudget > 0 {
				incrGate(t, *incrBudget)
			}
			return t, err
		}},
		{"sat", true, func() (bench.Table, error) {
			t, err := bench.SATCore(*maxN).Run(*timeout)
			t.AddBaseline(baseRows, bench.SATCoreSolverName)
			return t, err
		}},
		{"check", true, func() (bench.Table, error) { return bench.RunCheck(*timeout) }},
		{"cluster", false, func() (bench.Table, error) { return bench.RunCluster(*clusterN, *clusterPeers, *timeout) }},
		{"nlp", false, func() (bench.Table, error) { return bench.NLP(*nlpRows).Run(*timeout) }},
	}
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.name
	}
	choices := strings.Join(names, ", ") + " or all"
	table := flag.String("table", "all", "which table to regenerate: "+choices)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}

	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fail(err)
		}
		baseRows, err = bench.ReadJSON(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	var jsonRows []bench.JSONRow
	ran := false
	for _, t := range tables {
		if *table != t.name && !(*table == "all" && t.all) {
			continue
		}
		ran = true
		tab, err := t.run()
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			jsonRows = append(jsonRows, tab.JSON()...)
		} else {
			fmt.Println(tab.Format())
		}
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "abbench: -table must be "+choices)
		os.Exit(2)
	}

	if *jsonOut {
		if err := bench.WriteJSON(os.Stdout, jsonRows); err != nil {
			fail(err)
		}
	}
}

// incrGate exits with status 3 when the session sweep needs more than
// budget times the cold sweep's theory checks.
func incrGate(t bench.Table, budget float64) {
	cold, session := t.Checks("absolver-cold"), t.Checks("absolver-session")
	if float64(session) > budget*float64(cold) {
		fmt.Fprintf(os.Stderr, "abbench: incremental ablation regressed: session=%d cold=%d checks exceeds budget ratio %.2f\n",
			session, cold, budget)
		os.Exit(3)
	}
	fmt.Fprintf(os.Stderr, "# incr budget ok: session=%d cold=%d (ratio %.2f <= %.2f)\n",
		session, cold, float64(session)/float64(cold), budget)
}
