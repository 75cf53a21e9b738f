// Package absolver's benchmarks regenerate every table and figure of the
// paper's evaluation (Sec. 5) plus the ablations called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Benchmarks are grouped by paper artifact:
//
//	BenchmarkTable1*   — nonlinear problems (Table 1)
//	BenchmarkTable2*   — SMT-LIB / Fischer benchmarks (Table 2)
//	BenchmarkTable3*   — Sudoku puzzles (Table 3)
//	BenchmarkFig1*     — the Fig. 1/2/3 example pipeline
//	BenchmarkAblation* — design-choice ablations (DESIGN.md Sec. 5)
//
// The abbench command prints the same measurements in the papers' table
// layouts; EXPERIMENTS.md records a full paper-vs-measured comparison.
package absolver_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"absolver"
	"absolver/internal/baseline"
	"absolver/internal/bench"
	"absolver/internal/core"
	"absolver/internal/fischer"
	"absolver/internal/mc"
	"absolver/internal/portfolio"
	"absolver/internal/simulink"
	"absolver/internal/smtlib"
	"absolver/internal/steering"
	"absolver/internal/sudoku"
)

// solveOnce runs the engine and fails the benchmark on a surprise verdict.
func solveOnce(b *testing.B, p *core.Problem, cfg core.Config, want core.Status) {
	b.Helper()
	res, err := core.NewEngine(p, cfg).Solve()
	if err != nil {
		b.Fatal(err)
	}
	if res.Status != want {
		b.Fatalf("status = %v, want %v", res.Status, want)
	}
}

// ---------------------------------------------------------------------------
// Table 1 — nonlinear problems.

func benchmarkTable1(b *testing.B, name string, want core.Status) {
	var inst *bench.Table1Instance
	for _, t1 := range bench.Table1Instances() {
		if t1.Name == name {
			t := t1
			inst = &t
			break
		}
	}
	if inst == nil {
		b.Fatalf("no instance %q", name)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := inst.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		solveOnce(b, p, core.Config{}, want)
	}
}

func BenchmarkTable1CarSteering(b *testing.B) {
	benchmarkTable1(b, "Car steering", core.StatusSat)
}

func BenchmarkTable1EsatN11M8(b *testing.B) {
	benchmarkTable1(b, "esat_n11_m8_nonlinear", core.StatusSat)
}

func BenchmarkTable1NonlinearUnsat(b *testing.B) {
	benchmarkTable1(b, "nonlinear_unsat", core.StatusUnsat)
}

func BenchmarkTable1DivOperator(b *testing.B) {
	benchmarkTable1(b, "div_operator", core.StatusSat)
}

// BenchmarkTable1Rejections measures the comparison solvers' rejection of
// nonlinear input (their Table 1 columns).
func BenchmarkTable1Rejections(b *testing.B) {
	p, err := bench.Table1Instances()[1].Build() // esat, cheap to build
	if err != nil {
		b.Fatal(err)
	}
	ms := &baseline.MathSATLike{}
	cv := &baseline.CVCLiteLike{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ms.Solve(p); err == nil {
			b.Fatal("MathSATLike accepted nonlinear input")
		}
		if _, err := cv.Solve(p); err == nil {
			b.Fatal("CVCLiteLike accepted nonlinear input")
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2 — SMT-LIB (Fischer) benchmarks. Sub-benchmarks per instance; the
// full 1..11 sweep (as printed by abbench) is expensive, so the default
// set stops at 5 — pass -bench Table2 -benchtime 1x -timeout 2h and edit
// maxN below, or use `go run ./cmd/abbench -table 2`, for the full sweep.

func benchmarkFischer(b *testing.B, n int, cfg core.Config) {
	in := fischer.Generate(fischer.Params{N: n})
	sm, err := smtlib.Parse(in.SMTLIB())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := sm.ToProblem()
		b.StartTimer()
		solveOnce(b, p, cfg, core.StatusSat)
	}
}

func restartCfg() core.Config {
	return core.Config{RestartBoolean: true, Bool: core.NewExternalCDCLSolver()}
}

func BenchmarkTable2Fischer1(b *testing.B) { benchmarkFischer(b, 1, restartCfg()) }
func BenchmarkTable2Fischer2(b *testing.B) { benchmarkFischer(b, 2, restartCfg()) }
func BenchmarkTable2Fischer3(b *testing.B) { benchmarkFischer(b, 3, restartCfg()) }
func BenchmarkTable2Fischer4(b *testing.B) { benchmarkFischer(b, 4, restartCfg()) }
func BenchmarkTable2Fischer5(b *testing.B) { benchmarkFischer(b, 5, restartCfg()) }

// BenchmarkTable2Baselines measures the comparison solvers on FISCHER3.
func BenchmarkTable2Baselines(b *testing.B) {
	in := fischer.Generate(fischer.Params{N: 3})
	sm, err := smtlib.Parse(in.SMTLIB())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mathsat-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := sm.ToProblem()
			ms := &baseline.MathSATLike{Timeout: 10 * time.Minute}
			b.StartTimer()
			r, err := ms.Solve(p)
			if err != nil || r.Status != core.StatusSat {
				b.Fatalf("%v %v", r.Status, err)
			}
		}
	})
	b.Run("cvclite-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := sm.ToProblem()
			cv := &baseline.CVCLiteLike{Timeout: 10 * time.Minute}
			b.StartTimer()
			r, err := cv.Solve(p)
			if err != nil || r.Status != core.StatusSat {
				b.Fatalf("%v %v", r.Status, err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Table 3 — Sudoku puzzles.

// BenchmarkTable3SudokuMixed measures ABsolver's near-constant solve time
// across the ten instances (the paper's ≈0.28 s column).
func BenchmarkTable3SudokuMixed(b *testing.B) {
	for _, inst := range sudoku.Puzzles() {
		inst := inst
		b.Run(inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := sudoku.EncodeMixed(&inst.Puzzle)
				b.StartTimer()
				res, err := core.NewEngine(p, core.Config{}).Solve()
				if err != nil || res.Status != core.StatusSat {
					b.Fatalf("%v %v", res.Status, err)
				}
				b.StopTimer()
				g, err := sudoku.DecodeMixed(res.Model)
				if err != nil {
					b.Fatal(err)
				}
				if err := sudoku.Verify(&inst.Puzzle, g); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkTable3BaselineFailures measures the comparison solvers'
// characteristic failures on the first puzzle: CVCLiteLike aborts out of
// memory (the paper's –∗), MathSATLike exceeds the timeout (the paper's
// 75-137 minute entries).
func BenchmarkTable3BaselineFailures(b *testing.B) {
	inst := sudoku.Puzzles()[0]
	b.Run("cvclite-like-oom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := sudoku.EncodeArithmetic(&inst.Puzzle)
			cv := &baseline.CVCLiteLike{MemoryBudget: 32 << 20, Timeout: 5 * time.Minute}
			b.StartTimer()
			_, err := cv.Solve(p)
			if err != baseline.ErrOutOfMemory {
				b.Fatalf("expected OOM, got %v", err)
			}
		}
	})
	b.Run("mathsat-like-timeout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := sudoku.EncodeArithmetic(&inst.Puzzle)
			ms := &baseline.MathSATLike{Timeout: 10 * time.Second}
			b.StartTimer()
			_, err := ms.Solve(p)
			if err != baseline.ErrTimeout {
				b.Fatalf("expected timeout, got %v", err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Figures — the Fig. 1 model through the Fig. 3 pipeline to the Fig. 2
// format and a verdict.

func BenchmarkFig1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := simulink.Fig1()
		p, err := absolver.ConvertSimulink(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []string{"a", "x", "i", "j"} {
			p.SetBounds(v, -10, 10)
		}
		p.SetBounds("y", -10, 3.9)
		if _, err := absolver.FormatProblem(p); err != nil {
			b.Fatal(err)
		}
		solveOnce(b, p, core.Config{}, core.StatusSat)
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Sec. 5).

// BenchmarkAblationRestart quantifies the paper's external-combination
// overhead: the same FISCHER instance with the incremental Boolean solver
// versus the restart-per-query external emulation.
func BenchmarkAblationRestart(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := fischer.Generate(fischer.Params{N: 3}).Problem
			b.StartTimer()
			solveOnce(b, p, core.Config{}, core.StatusSat)
		}
	})
	b.Run("external-restart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := fischer.Generate(fischer.Params{N: 3}).Problem
			b.StartTimer()
			solveOnce(b, p, restartCfg(), core.StatusSat)
		}
	})
}

// BenchmarkAblationIIS compares smallest-conflicting-subset refinement
// against full-assignment blocking on an unsatisfiable Boolean-linear
// instance with independent choice structure.
func BenchmarkAblationIIS(b *testing.B) {
	build := func() *core.Problem {
		p := core.NewProblem()
		p.AddClause(1)
		p.AddClause(2)
		for v := 3; v <= 14; v++ {
			p.AddClause(v, -v)
		}
		mustAtom := func(src string) absolver.Atom {
			a, err := absolver.ParseAtom(src, absolver.Real)
			if err != nil {
				b.Fatal(err)
			}
			return a
		}
		p.Bind(0, mustAtom("x + y >= 5"))
		p.Bind(1, mustAtom("x + y <= 4"))
		for v := 3; v <= 14; v++ {
			p.Bind(v-1, mustAtom("z"+string(rune('a'+v))+" >= 0"))
		}
		return p
	}
	b.Run("with-iis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := build()
			b.StartTimer()
			solveOnce(b, p, core.Config{NoGroundLemmas: true}, core.StatusUnsat)
		}
	})
	b.Run("without-iis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := build()
			b.StartTimer()
			solveOnce(b, p, core.Config{NoGroundLemmas: true, NoIIS: true}, core.StatusUnsat)
		}
	})
}

// BenchmarkAblationGroundLemmas compares static theory-lemma grounding
// against the bare lazy loop on FISCHER2.
func BenchmarkAblationGroundLemmas(b *testing.B) {
	b.Run("grounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := fischer.Generate(fischer.Params{N: 2}).Problem
			b.StartTimer()
			solveOnce(b, p, core.Config{}, core.StatusSat)
		}
	})
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := fischer.Generate(fischer.Params{N: 2}).Problem
			b.StartTimer()
			solveOnce(b, p, core.Config{NoGroundLemmas: true}, core.StatusSat)
		}
	})
}

// BenchmarkAblationSudokuEncoding compares the paper's natural mixed
// integer encoding against the pure CNF translation (Sec. 5.3's encoding
// claim) on the same puzzle.
func BenchmarkAblationSudokuEncoding(b *testing.B) {
	inst := sudoku.Puzzles()[0]
	b.Run("mixed-integer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := sudoku.EncodeMixed(&inst.Puzzle)
			b.StartTimer()
			solveOnce(b, p, core.Config{}, core.StatusSat)
		}
	})
	b.Run("pure-cnf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := sudoku.EncodeCNF(&inst.Puzzle)
			b.StartTimer()
			solveOnce(b, p, core.Config{}, core.StatusSat)
		}
	})
}

// BenchmarkAblationIncremental quantifies the incremental-session win on
// the workload sessions exist for: a sweep of near-identical reachability
// queries ("process 1 in its critical section at step t") over one Fischer
// unrolling. Cold solves every query with a fresh engine on a flattened
// problem; session answers the same sweep over one warm core.Session (one
// SolveFrame per query), so learned clauses and theory verdicts carry
// over. abbench -table incr prints the same sweep with per-query theory-
// check counts (archived as BENCH_6.json).
func BenchmarkAblationIncremental(b *testing.B) {
	in, queries, err := bench.CriticalSectionSweep(2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		checks := 0
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				b.StopTimer()
				p := in.Problem.Clone()
				p.AddClause(q.Lit)
				b.StartTimer()
				res, err := core.NewEngine(p, core.Config{}).Solve()
				if err != nil {
					b.Fatal(err)
				}
				checks += res.Stats.LinearChecks + res.Stats.NonlinearChecks
			}
		}
		b.ReportMetric(float64(checks)/float64(b.N), "theory-checks/sweep")
	})
	b.Run("session", func(b *testing.B) {
		checks := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess, err := core.NewSession(in.Problem, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, q := range queries {
				res, err := sess.SolveFrame(context.Background(), [][]int{{q.Lit}}, nil)
				if err != nil {
					b.Fatal(err)
				}
				checks += res.Stats.LinearChecks + res.Stats.NonlinearChecks
			}
		}
		b.ReportMetric(float64(checks)/float64(b.N), "theory-checks/sweep")
	})
}

// BenchmarkAblationCheckSession quantifies the model checker's warm-
// session unrolling against the cold per-depth baseline on the steering
// case study (the paper's critical-scenario search posed as falsifying
// "G ok"). abbench -table check prints the full sweep including the
// Fischer protocol variants (archived as BENCH_8.json).
func BenchmarkAblationCheckSession(b *testing.B) {
	run := func(b *testing.B, cold bool) {
		var checks float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var inst bench.CheckInstance
			for _, c := range bench.CheckInstances() {
				if c.Name == "steering" {
					inst = c
				}
			}
			prog, err := inst.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := mc.Check(context.Background(), prog, mc.Options{
				Property: "ok", MaxDepth: 1, Cold: cold,
				InputBounds: steering.SensorBounds(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != mc.Falsified || res.K != 0 || !res.Certified {
				b.Fatalf("result = %+v, want certified falsification at 0", res)
			}
			checks += float64(res.Stats.LinearChecks + res.Stats.NonlinearChecks)
		}
		b.ReportMetric(checks/float64(b.N), "theory-checks/op")
	}
	b.Run("warm", func(b *testing.B) { run(b, false) })
	b.Run("cold", func(b *testing.B) { run(b, true) })
}

// BenchmarkPortfolio races the default strategy portfolio against each of
// its member configurations alone, over a small mixed SAT/UNSAT suite.
// Compare the sub-benchmarks: the portfolio's wall time should track the
// best single configuration (first definitive verdict wins and the losers
// are cancelled) and beat the worst, at the cost of running several
// engines' worth of total work. Single configurations run under a 10 s
// cap because some are hopeless on parts of the suite (no-iis blocks
// full assignments on Fischer and never terminates in reasonable time) —
// exactly the failure mode the portfolio erases, since a hopeless engine
// is cancelled as soon as a sibling finishes.
func BenchmarkPortfolio(b *testing.B) {
	type instance struct {
		name  string
		build func() *core.Problem
		want  core.Status
	}
	suite := []instance{
		{"fischer2-sat", func() *core.Problem {
			return fischer.Generate(fischer.Params{N: 2}).Problem
		}, core.StatusSat},
		{"linear-unsat", func() *core.Problem {
			p := core.NewProblem()
			p.AddClause(1)
			p.AddClause(2)
			a1, _ := absolver.ParseAtom("x + y >= 5", absolver.Real)
			a2, _ := absolver.ParseAtom("x + y <= 4", absolver.Real)
			p.Bind(0, a1)
			p.Bind(1, a2)
			return p
		}, core.StatusUnsat},
		{"nonlinear-sat", func() *core.Problem {
			p, err := bench.Table1Instances()[3].Build() // div_operator
			if err != nil {
				b.Fatal(err)
			}
			return p
		}, core.StatusSat},
	}
	const width = 4
	names := make([]string, width)
	for i, s := range portfolio.DefaultStrategies(width) {
		names[i] = s.Name
	}
	for idx, name := range names {
		idx := idx
		b.Run("single/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, inst := range suite {
					b.StopTimer()
					p := inst.build()
					cfg := portfolio.DefaultStrategies(width)[idx].Config
					cfg.Timeout = 10 * time.Second
					b.StartTimer()
					res, err := core.NewEngine(p, cfg).Solve()
					if err == core.ErrTimeout {
						continue // capped: this config is hopeless here
					}
					if err != nil {
						b.Fatal(err)
					}
					if res.Status != inst.want {
						b.Fatalf("%s: status = %v, want %v", inst.name, res.Status, inst.want)
					}
				}
			}
		})
	}
	b.Run("portfolio-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, inst := range suite {
				b.StopTimer()
				p := inst.build()
				b.StartTimer()
				out := portfolio.Solve(context.Background(), p, portfolio.DefaultStrategies(width))
				if out.Err != nil {
					b.Fatal(out.Err)
				}
				if out.Result.Status != inst.want {
					b.Fatalf("%s: status = %v, want %v", inst.name, out.Result.Status, inst.want)
				}
			}
		}
	})
}

// BenchmarkAblationLemmaSharing quantifies cross-engine lemma exchange on
// two conflict-rich UNSAT workloads:
//
//   - pairs: n variables each pin x to a different value while the
//     skeleton forces at least two of them true, so the race must refute
//     every pair — C(n,2) distinct theory conflicts;
//   - fischer6-shallow: FISCHER6 unrolled one step short of the depth at
//     which the critical section is reachable, so the race must refute
//     every timed path.
//
// Grounding is off so each conflict costs a simplex call. Compare
// theory-checks/op between the shared/no-share sub-benchmarks: with
// sharing, a conflict any member finds is imported by the others instead
// of being rediscovered, so the total simplex work across the portfolio
// drops (lemmas-imported/op shows the traffic); with -no-share every
// member pays for the full refutation alone.
func BenchmarkAblationLemmaSharing(b *testing.B) {
	// The comparison needs the members to actually interleave: with a
	// single P the first goroutine can sprint through a short refutation
	// before its siblings run, and both variants degenerate to one
	// engine's work. Pin GOMAXPROCS to at least the portfolio width.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	buildPairs := func() *core.Problem {
		const n = 16
		p := core.NewProblem()
		p.NumVars = n
		// At-least-two-true: for each i, the clause over all vars but i.
		for i := 1; i <= n; i++ {
			var cl []int
			for j := 1; j <= n; j++ {
				if j != i {
					cl = append(cl, j)
				}
			}
			p.AddClause(cl...)
		}
		for i := 1; i <= n; i++ {
			a, err := absolver.ParseAtom(fmt.Sprintf("x = %d", i), absolver.Real)
			if err != nil {
				b.Fatal(err)
			}
			p.Bind(i-1, a)
		}
		return p
	}
	buildFischer := func() *core.Problem {
		return fischer.Generate(fischer.Params{N: 6, Steps: 3}).Problem
	}
	strategies := func() []portfolio.Strategy {
		ss := portfolio.DefaultStrategies(4)
		for i := range ss {
			ss[i].Config.NoGroundLemmas = true
			ss[i].Config.NoIIS = false // full-assignment blocking never terminates here
		}
		return ss
	}
	run := func(b *testing.B, build func() *core.Problem, opts portfolio.Options) {
		var checks, imported float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := build()
			ss := strategies()
			b.StartTimer()
			out := portfolio.SolveWith(context.Background(), p, ss, opts)
			if out.Err != nil {
				b.Fatal(out.Err)
			}
			if out.Result.Status != core.StatusUnsat {
				b.Fatalf("status = %v, want %v", out.Result.Status, core.StatusUnsat)
			}
			checks += float64(out.Stats.LinearChecks)
			imported += float64(out.Stats.LemmasImported)
		}
		b.ReportMetric(checks/float64(b.N), "theory-checks/op")
		b.ReportMetric(imported/float64(b.N), "lemmas-imported/op")
	}
	for _, w := range []struct {
		name  string
		build func() *core.Problem
	}{
		{"pairs", buildPairs},
		{"fischer6-shallow", buildFischer},
	} {
		w := w
		b.Run(w.name+"/shared", func(b *testing.B) { run(b, w.build, portfolio.Options{}) })
		b.Run(w.name+"/no-share", func(b *testing.B) { run(b, w.build, portfolio.Options{NoShare: true}) })
	}
}

// BenchmarkAblationTheoryCache measures the theory-verdict cache during
// all-models enumeration: models differing only on unbound Boolean
// variables project onto the same asserted-atom set, so all but the first
// theory check per projection are served from the cache. Compare
// linear-checks/op between the sub-benchmarks.
func BenchmarkAblationTheoryCache(b *testing.B) {
	run := func(b *testing.B, cfg core.Config) {
		var checks float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := core.NewProblem()
			p.AddClause(1)
			p.NumVars = 10 // v1 forced, 9 free vars: 512 models, 1 projection
			a, err := absolver.ParseAtom("x >= 1", absolver.Real)
			if err != nil {
				b.Fatal(err)
			}
			p.Bind(0, a)
			e := core.NewEngine(p, cfg)
			b.StartTimer()
			n, _, err := e.AllModels(nil, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			if n != 512 {
				b.Fatalf("models = %d, want 512", n)
			}
			checks += float64(e.Stats().LinearChecks)
		}
		b.ReportMetric(checks/float64(b.N), "linear-checks/op")
	}
	b.Run("cached", func(b *testing.B) { run(b, core.Config{}) })
	b.Run("uncached", func(b *testing.B) { run(b, core.Config{NoTheoryCache: true}) })
}

// BenchmarkAllModelsEnumeration measures the LSAT-style all-solutions mode
// (Sec. 4) on a combinatorial instance with many models.
func BenchmarkAllModelsEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := core.NewProblem()
		// 2^8 models over 8 free variables constrained by one clause.
		p.AddClause(1, 2, 3, 4, 5, 6, 7, 8)
		p.NumVars = 8
		e := core.NewEngine(p, core.Config{})
		b.StartTimer()
		n, _, err := e.AllModels(nil, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if n != 255 {
			b.Fatalf("models = %d, want 255", n)
		}
	}
}
