// Command absolver is the stand-alone solver executable: it reads an
// AB-satisfiability problem in the extended DIMACS format (Fig. 2 of the
// paper) from a file or standard input, decides it, and prints the verdict
// together with the Boolean model and the arithmetic witness. As in the
// paper, "the various constituents of our solver are customisable via
// command line parameters".
//
// Usage:
//
//	absolver [flags] [problem.cnf]
//	absolver check [flags] [model.lus]
//
// With no file argument — or with "-" as the argument, the conventional
// spelling in a pipeline — the problem is read from standard input.
//
// The check subcommand runs the model-checking front end instead: BMC +
// k-induction over a Lustre program or a Simulink model (-format
// simulink), with -k bounding the unrolling depth and -prop naming the
// property flow. Its exit codes are 0 proved, 10 falsified, 20 bound
// reached or timeout. See docs/model-checking.md.
//
// Flags:
//
//	-all            enumerate all models (LSAT mode) instead of one
//	-max N          stop enumeration after N models
//	-batch FILE     solve the NDJSON instance deltas in FILE incrementally
//	                over one warm session against the base problem; each
//	                line is {"id","clauses","assume"} (see docs/server.md)
//	-portfolio N    race N differently-configured engines; first
//	                definitive verdict wins (see docs/exit-codes.md for
//	                the nondeterminism caveats)
//	-no-share       disable cross-engine lemma sharing in a portfolio race
//	-timeout D      give up after duration D (e.g. 30s), exit 20
//	-restart, -no-iis, ...
//	                the engine's on/off knobs, one flag per core.Knobs
//	                entry (absolver -h lists them)
//	-stats          print engine statistics
//	-q              verdict only
//	-v              trace engine iterations to stderr
//
// The knob flags compose with -portfolio: each is applied on top of
// every racing strategy's own configuration. -all does not compose with -portfolio and is rejected.
// -batch runs a single warm session and is single-strategy by design:
// -portfolio, -all, and -restart are all rejected alongside it (a restart
// or a race would discard exactly the state the session exists to keep).
//
// Exit codes (stable, documented in docs/exit-codes.md): 0 satisfiable,
// 10 unsatisfiable, 20 unknown or timeout, 2 usage or input error,
// 1 internal error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"absolver"
	"absolver/internal/core"
	"absolver/internal/portfolio"
	"absolver/internal/server/api"
)

// Stable exit codes; keep in sync with docs/exit-codes.md.
const (
	exitSat      = 0
	exitInternal = 1
	exitUsage    = 2
	exitUnsat    = 10
	exitUnknown  = 20
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: flags and input in, exit
// code out, all output on the given writers.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], stdin, stdout, stderr)
	}
	fs := flag.NewFlagSet("absolver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "enumerate all models")
	max := fs.Int("max", 0, "bound the number of enumerated models (0 = unbounded)")
	batchFile := fs.String("batch", "", "solve NDJSON instance deltas from this file over one incremental session")
	nPortfolio := fs.Int("portfolio", 0, "race N engine configurations; first definitive verdict wins (0 = single engine)")
	noShare := fs.Bool("no-share", false, "disable cross-engine lemma sharing in a portfolio race")
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = none)")
	cfg := knobFlags(fs)
	stats := fs.Bool("stats", false, "print statistics")
	quiet := fs.Bool("q", false, "print the verdict only")
	verbose := fs.Bool("v", false, "trace engine iterations")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	in := stdin
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "absolver: at most one input file")
		return exitUsage
	}
	if *nPortfolio < 0 {
		fmt.Fprintln(stderr, "absolver: -portfolio must be >= 0")
		return exitUsage
	}
	if *nPortfolio > 0 && *all {
		fmt.Fprintln(stderr, "absolver: -portfolio and -all are mutually exclusive")
		return exitUsage
	}
	if *batchFile != "" {
		// A batch runs over one warm session and is single-strategy by
		// design; anything that races engines, restarts the Boolean solver,
		// or enumerates models would discard or fight the session state.
		switch {
		case *nPortfolio > 0:
			fmt.Fprintln(stderr, "absolver: -batch and -portfolio are mutually exclusive (sessions are single-strategy)")
			return exitUsage
		case *all:
			fmt.Fprintln(stderr, "absolver: -batch and -all are mutually exclusive")
			return exitUsage
		case cfg.RestartBoolean:
			fmt.Fprintln(stderr, "absolver: -batch and -restart are mutually exclusive (a restart discards the session state)")
			return exitUsage
		}
	}
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "absolver:", err)
			return exitUsage
		}
		defer f.Close()
		in = f
	}

	p, err := absolver.ParseDIMACS(in)
	if err != nil {
		fmt.Fprintln(stderr, "absolver:", err)
		return exitUsage
	}

	cfg.Timeout = *timeout
	if *verbose {
		cfg.Trace = absolver.WriterTrace(stderr)
	}

	if *nPortfolio > 0 {
		return runPortfolio(p, *cfg, *nPortfolio, *timeout, *noShare, *quiet, *stats, stdout, stderr)
	}
	if *batchFile != "" {
		return runBatchFile(p, *cfg, *batchFile, *quiet, *stats, stdout, stderr)
	}

	eng := absolver.NewEngine(p, *cfg)
	exit := exitUnknown
	if *all {
		n, status, err := eng.AllModels(nil, *max, func(m absolver.Model) error {
			printModel(stdout, m, *quiet)
			return nil
		})
		if err != nil && !errors.Is(err, absolver.ErrTimeout) {
			fmt.Fprintln(stderr, "absolver:", err)
			return exitInternal
		}
		fmt.Fprintf(stdout, "c %d model(s); final status %s\n", n, status)
		switch {
		case err != nil: // timeout mid-enumeration: the count is a lower bound
			fmt.Fprintln(stdout, "s UNKNOWN")
			exit = exitUnknown
		case n == 0:
			fmt.Fprintln(stdout, "s UNSATISFIABLE")
			exit = exitUnsat
		default:
			fmt.Fprintln(stdout, "s SATISFIABLE")
			exit = exitSat
		}
	} else {
		res, err := eng.Solve()
		if err != nil && !errors.Is(err, absolver.ErrTimeout) {
			fmt.Fprintln(stderr, "absolver:", err)
			return exitInternal
		}
		exit = printVerdict(stdout, res, *quiet)
	}
	if *stats {
		printStats(stdout, eng.Stats())
	}
	return exit
}

// knobFlags registers one flag per core.Knobs entry on fs ("no_iis"
// becomes -no-iis), each setting its switch in the returned Config.
func knobFlags(fs *flag.FlagSet) *absolver.Config {
	cfg := new(absolver.Config)
	for _, kn := range core.Knobs {
		fs.BoolVar(kn.Field(cfg), strings.ReplaceAll(kn.Name, "_", "-"), false, kn.Usage)
	}
	return cfg
}

// runBatchFile solves an NDJSON file of instance deltas incrementally over
// one warm session: per instance, push a frame, assert the delta clauses,
// solve under the instance's assumptions, pop. Learned clauses, theory
// verdicts and solver heuristics carry over between instances.
func runBatchFile(p *absolver.Problem, cfg absolver.Config, path string, quiet, stats bool, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "absolver:", err)
		return exitUsage
	}
	defer f.Close()

	sess, err := absolver.NewSession(p, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "absolver:", err)
		return exitInternal
	}

	ctx := context.Background()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	idx, solved, unknowns, failures := 0, 0, 0, 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var inst api.BatchInstance
		if err := json.Unmarshal([]byte(text), &inst); err != nil {
			fmt.Fprintf(stderr, "absolver: %s:%d: %v\n", path, line, err)
			return exitUsage
		}
		name := inst.ID
		if name == "" {
			name = fmt.Sprintf("#%d", idx)
		}
		fmt.Fprintf(stdout, "c instance %s\n", name)

		res, err := sess.SolveFrame(ctx, inst.Clauses, inst.Assume)
		if err != nil && !errors.Is(err, absolver.ErrTimeout) {
			fmt.Fprintf(stderr, "absolver: instance %s: %v\n", name, err)
			failures++
			idx++
			continue
		}
		switch printVerdict(stdout, res, quiet) {
		case exitSat, exitUnsat:
			solved++
		default:
			unknowns++
		}
		idx++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "absolver:", err)
		return exitInternal
	}
	fmt.Fprintf(stdout, "c batch: %d instance(s), %d solved, %d unknown, %d failed\n",
		idx, solved, unknowns, failures)
	if stats {
		printStats(stdout, sess.Stats())
	}
	switch {
	case failures > 0:
		return exitInternal
	case unknowns > 0:
		return exitUnknown
	default:
		return exitSat
	}
}

// runPortfolio races n default strategies and reports the adopted verdict.
func runPortfolio(p *absolver.Problem, base absolver.Config, n int, timeout time.Duration, noShare, quiet, stats bool, stdout, stderr io.Writer) int {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	strategies := absolver.DefaultStrategies(n)
	// The trace stays on the single-engine path (N interleaved engine
	// traces are not readable); every per-engine knob composes.
	for i := range strategies {
		strategies[i].Config = strategies[i].Config.WithKnobs(base.KnobSet())
	}
	out := absolver.PortfolioSolveWith(ctx, p, strategies, portfolio.Options{NoShare: noShare})
	if out.Err != nil && !errors.Is(out.Err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "absolver:", out.Err)
		return exitInternal
	}
	if out.Winner != "" {
		fmt.Fprintf(stdout, "c portfolio winner: %s (%d engines)\n", out.Winner, len(out.Engines))
	}
	exit := printVerdict(stdout, out.Result, quiet)
	if stats {
		printStats(stdout, out.Stats)
	}
	return exit
}

// printVerdict prints the solution line (and model when satisfiable) and
// returns the matching exit code.
func printVerdict(w io.Writer, res absolver.Result, quiet bool) int {
	switch res.Status {
	case absolver.StatusSat:
		fmt.Fprintln(w, "s SATISFIABLE")
		if res.Model != nil {
			printModel(w, *res.Model, quiet)
		}
		return exitSat
	case absolver.StatusUnsat:
		fmt.Fprintln(w, "s UNSATISFIABLE")
		return exitUnsat
	default:
		fmt.Fprintln(w, "s UNKNOWN")
		return exitUnknown
	}
}

// statsGroups are the counter-name prefixes -stats prints on a line of
// their own ("c lemmas: published=… imported=…"), after one line of every
// other counter and before the phases' "c time:" line.
var statsGroups = []string{"lemmas", "theory_cache", "nlp", "polyar"}

// printStats prints every core.StatCounters and core.StatPhases entry.
func printStats(w io.Writer, st core.Stats) {
	lines := map[string]string{}
	for _, c := range core.StatCounters {
		group, key := "", c.Name
		for _, g := range statsGroups {
			if rest, ok := strings.CutPrefix(c.Name, g+"_"); ok {
				group, key = g, rest
				break
			}
		}
		lines[group] += fmt.Sprintf(" %s=%d", key, *c.Field(&st))
	}
	fmt.Fprintf(w, "c%s\n", lines[""])
	for _, g := range statsGroups {
		fmt.Fprintf(w, "c %s:%s\n", strings.ReplaceAll(g, "_", "-"), lines[g])
	}
	fmt.Fprint(w, "c time:")
	for _, p := range core.StatPhases {
		fmt.Fprintf(w, " %s=%v", p.Name, *p.Field(&st))
	}
	fmt.Fprintln(w)
}

func printModel(w io.Writer, m absolver.Model, quiet bool) {
	if quiet {
		return
	}
	fmt.Fprint(w, "v")
	for i, b := range m.Bool {
		if b {
			fmt.Fprintf(w, " %d", i+1)
		} else {
			fmt.Fprintf(w, " %d", -(i + 1))
		}
	}
	fmt.Fprintln(w, " 0")
	if len(m.Real) > 0 {
		names := make([]string, 0, len(m.Real))
		for n := range m.Real {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "c value %s = %g\n", n, m.Real[n])
		}
	}
}
