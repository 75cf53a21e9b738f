package main

import (
	"context"
	"fmt"
	"time"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/sat"
)

// layers accumulates the engine's per-layer work for traced runs: the
// decorators below time every call the engine makes into its Boolean,
// linear and nonlinear solvers, and add folds in the engine's own Stats.
type layers struct {
	satCalls     int
	satBusy      time.Duration // Reset, Solve and SolveAssuming
	satBlockBusy time.Duration // AddBlocking
	lpCalls      int
	lpInfeasible int
	lpIISRows    int
	lpBusy       time.Duration
	nlpCalls     int
	nlpBusy      time.Duration
	stats        core.Stats // merged engine Stats
	solves       int
}

// config returns an engine configuration whose solvers are the defaults
// wrapped in timing decorators that report into l.
func (l *layers) config() core.Config {
	return core.Config{
		Bool:      &timedBool{CDCLSolver: core.NewCDCLSolver(), l: l},
		Linear:    &timedLinear{inner: core.NewSimplexSolver(), l: l},
		Nonlinear: &timedNonlinear{inner: core.NewPenaltySolver(), l: l},
	}
}

func (l *layers) merge(o *layers) {
	l.satCalls += o.satCalls
	l.satBusy += o.satBusy
	l.satBlockBusy += o.satBlockBusy
	l.lpCalls += o.lpCalls
	l.lpInfeasible += o.lpInfeasible
	l.lpIISRows += o.lpIISRows
	l.lpBusy += o.lpBusy
	l.nlpCalls += o.nlpCalls
	l.nlpBusy += o.nlpBusy
	l.stats.Merge(o.stats)
	l.solves += o.solves
}

// timedBool times the default CDCL solver. Embedding forwards every
// optional interface the engine type-asserts on Config.Bool; the engine
// silently skips one that is missing, which changes its search (without
// SetPolarity, Car steering ran ten times slower), so the assertion
// below keeps the whole set.
type timedBool struct {
	*core.CDCLSolver
	l *layers
}

var _ interface {
	core.AssumingBoolSolver
	SetInprocess(on bool)
	Stats() sat.Stats
	FreezeVar(v int)
	SetPolarity(v int, neg bool)
} = (*timedBool)(nil)

func (b *timedBool) Reset(numVars int, clauses [][]int) error {
	defer b.record(time.Now(), &b.l.satBusy)
	return b.CDCLSolver.Reset(numVars, clauses)
}

func (b *timedBool) Solve(ctx context.Context) ([]bool, bool, error) {
	defer b.record(time.Now(), &b.l.satBusy)
	return b.CDCLSolver.Solve(ctx)
}

func (b *timedBool) SolveAssuming(ctx context.Context, assumptions []int) ([]bool, bool, []int, error) {
	defer b.record(time.Now(), &b.l.satBusy)
	return b.CDCLSolver.SolveAssuming(ctx, assumptions)
}

func (b *timedBool) AddBlocking(clause []int) error {
	defer b.record(time.Now(), &b.l.satBlockBusy)
	return b.CDCLSolver.AddBlocking(clause)
}

func (b *timedBool) record(start time.Time, busy *time.Duration) {
	*busy += time.Since(start)
	b.l.satCalls++
}

type timedLinear struct {
	inner core.LinearSolver
	l     *layers
}

func (t *timedLinear) Name() string { return t.inner.Name() }

func (t *timedLinear) Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) core.LinearVerdict {
	start := time.Now()
	v := t.inner.Check(ctx, rows, lower, upper, ints)
	t.l.lpBusy += time.Since(start)
	t.l.lpCalls++
	if v.Status == lp.Infeasible {
		t.l.lpInfeasible++
		t.l.lpIISRows += len(v.IIS)
	}
	return v
}

type timedNonlinear struct {
	inner core.NonlinearSolver
	l     *layers
}

func (t *timedNonlinear) Name() string { return t.inner.Name() }

func (t *timedNonlinear) Check(ctx context.Context, atoms []expr.Atom, box expr.Box, hint expr.Env) core.NonlinearVerdict {
	start := time.Now()
	v := t.inner.Check(ctx, atoms, box, hint)
	t.l.nlpBusy += time.Since(start)
	t.l.nlpCalls++
	return v
}

// engineDeck is a workload answered by the engine in-process: one fresh
// engine per instance, as a one-shot solve.
type engineDeck struct {
	names []string
	probs []*core.Problem
	// check compares a result with a reference the engine did not
	// produce; SAT models are certified before it is called.
	check func(i int, r core.Result) error
	// The cycled deck is a head of the first head entries followed by
	// rounds of roundLen entries that share one instance mix. A deck with
	// a head is driven by one client, so the head ends before round one.
	head, roundLen int
	// clients overrides defaultClients when non-zero.
	clients int
}

func (d *engineDeck) nclients() int {
	if d.clients > 0 {
		return d.clients
	}
	return defaultClients
}

func (d *engineDeck) size() int { return len(d.probs) }

func (d *engineDeck) run(ctx context.Context, i int, traced bool) outcome {
	var cfg core.Config
	var l *layers
	if traced {
		l = &layers{}
		cfg = l.config()
	}
	res, _ := core.NewEngine(d.probs[i], cfg).SolveContext(ctx)
	if l != nil {
		l.stats, l.solves = res.Stats, 1
	}
	return outcome{res: res, layers: l}
}

func (d *engineDeck) verify(o *outcome) error {
	r := o.res
	if r.Status == core.StatusSat {
		if r.Model == nil {
			return fmt.Errorf("%s: sat without a model", d.names[o.item])
		}
		if err := core.CertifyModel(d.probs[o.item], *r.Model); err != nil {
			return fmt.Errorf("%s: %w", d.names[o.item], err)
		}
	}
	if d.check == nil {
		return nil
	}
	if err := d.check(o.item, r); err != nil {
		return fmt.Errorf("%s: %w", d.names[o.item], err)
	}
	return nil
}
