// Package nlp implements the nonlinear constraint solving substrate
// standing in for IPOPT in the paper: deciding feasibility of conjunctions
// of (possibly) nonlinear arithmetic atoms over box domains.
//
// Two complementary engines are combined:
//
//   - An HC4-style interval constraint propagator contracts the variable
//     box through the expression trees (forward evaluation, backward
//     projection). If the box becomes empty the conjunction is proved
//     infeasible — a refutation IPOPT itself cannot produce, needed for the
//     paper's nonlinear_unsat benchmark.
//   - A multi-start penalty method with symbolic gradients, compiled once
//     per check to slot-indexed tapes, and Armijo line search searches for
//     a feasible witness, playing IPOPT's role of finding points
//     satisfying smooth nonlinear systems.
//
// Like the IPOPT-based original, the combination is incomplete: when
// neither a witness nor a refutation is found within budget, the verdict is
// Unknown (the paper's "?"), and the engine escalates (e.g. blocks the
// candidate Boolean assignment).
package nlp

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"sort"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

// Status is the outcome of a nonlinear feasibility query.
type Status int

// Outcomes. Unknown corresponds to the paper's "?" value.
const (
	Unknown Status = iota
	Feasible
	Infeasible
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// Problem is a conjunction of atoms over box-constrained variables.
type Problem struct {
	Atoms []expr.Atom
	// Box gives per-variable domains; variables missing from the box are
	// unbounded (but sampling clamps them to ±DefaultRange).
	Box expr.Box
}

// Vars returns the sorted variable set of the problem.
func (p *Problem) Vars() []string {
	set := map[string]struct{}{}
	for _, a := range p.Atoms {
		for _, v := range a.Vars() {
			set[v] = struct{}{}
		}
	}
	for v := range p.Box {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Options tune the solver.
type Options struct {
	// Starts is the number of multi-start descent attempts (default 24).
	Starts int
	// MaxIters bounds gradient iterations per start (default 300).
	MaxIters int
	// Seed makes runs deterministic (default 1).
	Seed int64
}

// The solver's fixed tolerances and budgets. They are typed so that
// products such as Tol*Tol round exactly as they do at run time.
const (
	// propagationRounds bounds HC4 sweeps.
	propagationRounds = 60
	// StrictMargin is the slack required of strict inequalities and
	// disequalities, matching lp.Epsilon.
	StrictMargin float64 = 1e-6
	// interiorMargin biases the search towards points strictly inside weak
	// inequalities: the descent treats x ≤ b as x ≤ b−m, so witnesses are
	// robust to exact re-evaluation (e.g. by simulation), while acceptance
	// still uses the true semantics — boundary witnesses are returned when
	// nothing better exists.
	interiorMargin float64 = 1e-4
	// Tol is the witness acceptance tolerance on non-strict constraints.
	Tol float64 = 1e-8
	// DefaultRange clamps unbounded variables for sampling.
	DefaultRange float64 = 100
)

func (o Options) withDefaults() Options {
	if o.Starts == 0 {
		o.Starts = 24
	}
	if o.MaxIters == 0 {
		o.MaxIters = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result carries the verdict and, when Feasible, a witness point.
type Result struct {
	Status Status
	X      expr.Env
	// ContractedBox is the box after propagation (diagnostics; empty box
	// iff Status == Infeasible by propagation).
	ContractedBox expr.Box
	// Evals counts penalty-function evaluations (work measure).
	Evals int
}

// Solve decides feasibility of p.
func Solve(p *Problem, opt Options) Result {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext is Solve with cooperative cancellation: the context is
// polled between propagation sweeps, between multi-start attempts, and
// inside every descent/polish iteration, so a cancelled solve stops within
// one poll interval. Cancellation yields Status Unknown (the partial
// search proves nothing).
func SolveContext(ctx context.Context, p *Problem, opt Options) Result {
	opt = opt.withDefaults()
	vars := p.Vars()
	box := searchBox(p.Box, vars)

	// Phase 1: interval propagation for refutation and search-space
	// contraction.
	empty, canceled := contract(ctx, p.Atoms, box, propagationRounds)
	if empty {
		return Result{Status: Infeasible, ContractedBox: box}
	}
	if canceled {
		return Result{Status: Unknown, ContractedBox: box}
	}

	// Phase 2: multi-start penalty descent over slot-indexed points; the
	// slot table is vars, and clamp holds each slot's interval.
	pen := newPenalty(p.Atoms, vars)
	clamp := make([]interval.Interval, len(vars))
	for i, v := range vars {
		if clamp[i] = box[v]; clamp[i].IsEmpty() {
			clamp[i] = interval.Whole()
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	x := make([]float64, len(vars))
	env := make(expr.Env, len(vars))
	witness := func() bool {
		for i, v := range vars {
			env[v] = x[i]
		}
		return verify(p.Atoms, env)
	}
	evals := 0

	for start := 0; start < opt.Starts; start++ {
		if ctx.Err() != nil {
			return Result{Status: Unknown, ContractedBox: box, Evals: evals}
		}
		samplePoint(x, vars, box, rng, start)
		ok, e := descend(ctx, pen, x, clamp, opt)
		evals += e
		if !ok {
			continue
		}
		if witness() {
			return Result{Status: Feasible, X: maps.Clone(env), ContractedBox: box, Evals: evals}
		}
		// Gradient descent gets close; Levenberg-Marquardt finishes the job
		// on tight (near-)equalities.
		evals += polish(ctx, pen, x, clamp)
		if witness() {
			return Result{Status: Feasible, X: maps.Clone(env), ContractedBox: box, Evals: evals}
		}
	}
	return Result{Status: Unknown, ContractedBox: box, Evals: evals}
}

// Refutes reports whether interval propagation alone, at the default
// round budget, proves the atoms infeasible over box: the refutation
// SolveContext reports as Infeasible, without the witness search.
// Cancellation reports false.
func Refutes(ctx context.Context, atoms []expr.Atom, box expr.Box) bool {
	p := &Problem{Atoms: atoms, Box: box}
	empty, _ := contract(ctx, atoms, searchBox(box, p.Vars()), propagationRounds)
	return empty
}

// searchBox clones box and makes every variable of vars missing from it
// unbounded.
func searchBox(box expr.Box, vars []string) expr.Box {
	out := box.Clone()
	for _, v := range vars {
		if _, ok := out[v]; !ok {
			out[v] = interval.Whole()
		}
	}
	return out
}

// samplePoint draws a start point into x, slot i being vars[i]. The first
// start uses box midpoints (a good deterministic guess); later starts are
// uniform in the box clamped to ±DefaultRange.
func samplePoint(x []float64, vars []string, box expr.Box, rng *rand.Rand, start int) {
	for i, v := range vars {
		iv := box[v]
		lo, hi := iv.Lo, iv.Hi
		if math.IsInf(lo, -1) {
			lo = -DefaultRange
		}
		if math.IsInf(hi, 1) {
			hi = DefaultRange
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if start == 0 {
			x[i] = lo + (hi-lo)/2
		} else {
			x[i] = lo + rng.Float64()*(hi-lo)
		}
	}
}

// verify checks a candidate witness against every atom: non-strict atoms
// within Tol, strict atoms and disequalities with a real margin.
func verify(atoms []expr.Atom, x expr.Env) bool {
	for _, a := range atoms {
		switch a.Op {
		case expr.CmpLT, expr.CmpGT:
			// Negative tolerance demands a real margin below/above the bound.
			ok, err := a.HoldsTol(x, -StrictMargin/2)
			if err != nil || !ok {
				return false
			}
		case expr.CmpNE:
			// Positive tolerance on ≠ demands |l−r| beyond the margin.
			ok, err := a.HoldsTol(x, StrictMargin/2)
			if err != nil || !ok {
				return false
			}
		default:
			ok, err := a.HoldsTol(x, Tol)
			if err != nil || !ok {
				return false
			}
		}
	}
	return true
}
