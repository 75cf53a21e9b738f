package core

import (
	"context"
	"fmt"
	"math"

	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/nlp"
	"absolver/internal/sat"
)

// BoolSolver is the plug-in interface for propositional solvers — the role
// zChaff and LSAT play in the paper. Reset loads a fresh instance; Solve
// produces one model; AddBlocking refines the instance between Solve calls.
// An implementation may be used either incrementally (one Reset, many
// AddBlocking+Solve) or in restart mode (Reset before every Solve), which
// is the engine's knob for reproducing the paper's "expense of ...
// restarting the entire solving process externally".
//
// Solve must honour ctx: on cancellation it returns promptly with ctx.Err()
// (satisfiable=false), polling at worst every few hundred search steps.
type BoolSolver interface {
	Name() string
	Reset(numVars int, clauses [][]int) error
	Solve(ctx context.Context) (model []bool, satisfiable bool, err error)
	AddBlocking(clause []int) error
}

// AssumingBoolSolver is the optional extension a Boolean solver implements
// to support solving under assumptions — the mechanism behind Session:
// assumption literals steer one query without ever entering the clause
// database, so a retracted assertion costs nothing to undo, while the
// learned-clause database, variable activities and saved phases persist
// across queries. On an unsatisfiable answer, failed reports the subset of
// the assumptions the refutation actually used (the assumption-failure
// core) in DIMACS convention.
type AssumingBoolSolver interface {
	BoolSolver
	SolveAssuming(ctx context.Context, assumptions []int) (model []bool, satisfiable bool, failed []int, err error)
}

// LinearSolver is the plug-in interface for linear solvers — COIN's role.
// Check decides the conjunction of rows under bounds; on infeasibility it
// reports the indices of an irreducible conflicting subset. A cancelled
// ctx makes Check return promptly with Status lp.Canceled.
type LinearSolver interface {
	Name() string
	Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) LinearVerdict
}

// LinearVerdict is a linear solver's answer.
type LinearVerdict struct {
	Status lp.Status
	X      map[string]float64
	// IIS indexes rows forming a smallest conflicting subset (only when
	// Status == Infeasible; may be nil when the solver cannot minimise).
	IIS []int
}

// NonlinearSolver is the plug-in interface for nonlinear solvers — IPOPT's
// role, extended with refutation ability. A cancelled ctx makes Check
// return promptly with Status nlp.Unknown; the engine distinguishes
// cancellation from a genuine "?" by inspecting ctx.Err() afterwards.
type NonlinearSolver interface {
	Name() string
	Check(ctx context.Context, atoms []expr.Atom, box expr.Box, hint expr.Env) NonlinearVerdict
}

// NonlinearVerdict is a nonlinear solver's answer; Unknown is the paper's
// "?" and triggers escalation in the engine.
type NonlinearVerdict struct {
	Status nlp.Status
	X      expr.Env
}

// ---------------------------------------------------------------------------
// Default Boolean solver: CDCL (zChaff stand-in).

// CDCLSolver adapts the internal CDCL solver to the BoolSolver interface.
type CDCLSolver struct {
	s       *sat.Solver
	clauses [][]int
	nv      int
	// frozen lists 0-based variables exempt from inprocessing; replayed
	// into every fresh sat.Solver on Reset (sessions freeze their frame
	// selectors so inprocessing can never strengthen a guard away).
	frozen []int
	// noInprocess disables the solver's inprocessing passes (ablations,
	// differential testing). Applied on Reset and to the live instance.
	noInprocess bool
	// Stats of the underlying solver accumulated across Resets.
	Accum sat.Stats
}

// NewCDCLSolver returns the default Boolean solver (the zChaff stand-in).
func NewCDCLSolver() *CDCLSolver { return &CDCLSolver{} }

// Name implements BoolSolver.
func (c *CDCLSolver) Name() string { return "cdcl" }

// Reset implements BoolSolver.
func (c *CDCLSolver) Reset(numVars int, clauses [][]int) error {
	if c.s != nil {
		c.accumulate()
	}
	c.s = sat.New()
	c.s.Inprocess = !c.noInprocess
	c.s.EnsureVars(numVars)
	for _, v := range c.frozen {
		c.s.Freeze(v)
	}
	c.nv = numVars
	c.clauses = c.clauses[:0]
	for _, cl := range clauses {
		if err := c.AddBlocking(cl); err != nil {
			return err
		}
	}
	return nil
}

func (c *CDCLSolver) accumulate() {
	st := c.s.Stats
	c.Accum.Decisions += st.Decisions
	c.Accum.Propagations += st.Propagations
	c.Accum.Conflicts += st.Conflicts
	c.Accum.Restarts += st.Restarts
	c.Accum.Learnt += st.Learnt
	c.Accum.DeletedLearnt += st.DeletedLearnt
	c.Accum.SolveCalls += st.SolveCalls
	c.Accum.ClausesSubsumed += st.ClausesSubsumed
	c.Accum.ProbedLiterals += st.ProbedLiterals
	c.Accum.FailedLiterals += st.FailedLiterals
	c.Accum.ArenaCompactions += st.ArenaCompactions
}

// Solve implements BoolSolver.
func (c *CDCLSolver) Solve(ctx context.Context) ([]bool, bool, error) {
	if c.s == nil {
		return nil, false, fmt.Errorf("core: Solve before Reset")
	}
	model, res, err := c.s.SolveModelContext(ctx)
	if err != nil {
		return nil, false, err
	}
	if res != sat.LTrue {
		return nil, false, nil
	}
	if len(model) < c.nv {
		grown := make([]bool, c.nv)
		copy(grown, model)
		model = grown
	}
	return model, true, nil
}

// SolveAssuming implements AssumingBoolSolver: one incremental query under
// the given assumption literals. The underlying solver keeps its learnt
// clauses, activities and phases between calls, so a sequence of related
// queries shares all search effort.
func (c *CDCLSolver) SolveAssuming(ctx context.Context, assumptions []int) ([]bool, bool, []int, error) {
	if c.s == nil {
		return nil, false, nil, fmt.Errorf("core: SolveAssuming before Reset")
	}
	lits := make([]sat.Lit, len(assumptions))
	for i, n := range assumptions {
		if n == 0 {
			return nil, false, nil, fmt.Errorf("core: zero assumption literal")
		}
		lits[i] = sat.FromDIMACS(n)
		if v := lits[i].Var() + 1; v > c.nv {
			c.s.EnsureVars(v)
			c.nv = v
		}
	}
	model, res, err := c.s.SolveModelContext(ctx, lits...)
	if err != nil {
		return nil, false, nil, err
	}
	if res != sat.LTrue {
		conflict := c.s.ConflictAssumptions()
		failed := make([]int, len(conflict))
		for i, l := range conflict {
			failed[i] = l.DIMACS()
		}
		return nil, false, failed, nil
	}
	if len(model) < c.nv {
		grown := make([]bool, c.nv)
		copy(grown, model)
		model = grown
	}
	return model, true, nil, nil
}

// AddBlocking implements BoolSolver.
func (c *CDCLSolver) AddBlocking(clause []int) error {
	lits := make([]sat.Lit, len(clause))
	for i, n := range clause {
		if n == 0 {
			return fmt.Errorf("core: zero literal in clause")
		}
		lits[i] = sat.FromDIMACS(n)
	}
	c.s.AddClause(lits...)
	c.clauses = append(c.clauses, clause)
	return nil
}

// SetPolarity sets the preferred decision polarity of a 0-based variable
// (neg = assign false first). The engine uses this to bias equality-bound
// atoms towards assertion, avoiding avalanches of don't-care disequalities
// in the theory checks.
func (c *CDCLSolver) SetPolarity(v int, neg bool) {
	if c.s != nil {
		c.s.SetPolarity(v, neg)
	}
}

// FreezeVar exempts a 0-based variable from inprocessing, across Resets.
// Sessions freeze their frame-selector variables: a selector-guarded
// clause must keep its guard literal so the frame's Pop unit silences
// exactly the clauses pushed with it.
func (c *CDCLSolver) FreezeVar(v int) {
	c.frozen = append(c.frozen, v)
	if c.s != nil {
		c.s.Freeze(v)
	}
}

// SetInprocess toggles the underlying solver's inprocessing passes; used
// by ablations and the differential test suites.
func (c *CDCLSolver) SetInprocess(on bool) {
	c.noInprocess = !on
	if c.s != nil {
		c.s.Inprocess = on
	}
}

// Stats returns accumulated SAT statistics including the live instance.
func (c *CDCLSolver) Stats() sat.Stats {
	st := c.Accum
	if c.s != nil {
		live := c.s.Stats
		st.Decisions += live.Decisions
		st.Propagations += live.Propagations
		st.Conflicts += live.Conflicts
		st.Restarts += live.Restarts
		st.Learnt += live.Learnt
		st.DeletedLearnt += live.DeletedLearnt
		st.SolveCalls += live.SolveCalls
		st.ClausesSubsumed += live.ClausesSubsumed
		st.ProbedLiterals += live.ProbedLiterals
		st.FailedLiterals += live.FailedLiterals
		st.ArenaCompactions += live.ArenaCompactions
	}
	return st
}

// ---------------------------------------------------------------------------
// Default linear solver: simplex + branch-and-bound (COIN stand-in).

// SimplexSolver adapts package lp to the LinearSolver interface.
type SimplexSolver struct {
	// Pivots accumulates simplex pivots across calls (work measure).
	Pivots int
	Calls  int
}

// NewSimplexSolver returns the default linear solver (the COIN stand-in).
func NewSimplexSolver() *SimplexSolver { return &SimplexSolver{} }

// Name implements LinearSolver.
func (s *SimplexSolver) Name() string { return "simplex" }

// Check implements LinearSolver.
func (s *SimplexSolver) Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) LinearVerdict {
	s.Calls++
	// CheckContext only reads the bound maps, so they go straight through.
	p := &lp.Problem{Constraints: rows, Lower: lower, Upper: upper, Integer: map[string]bool{}}
	for v, b := range ints {
		if b {
			p.MarkInteger(v)
		}
	}
	// Cheap refutation first: bound propagation proves most conjunction
	// conflicts (equality chains) without a simplex run, and the
	// propagation-only deletion filter minimises them without one either.
	res, iis := p.CheckContext(ctx, 0)
	s.Pivots += res.Pivots
	v := LinearVerdict{Status: res.Status, X: res.X, IIS: iis}
	if res.Status == lp.Infeasible {
		if len(p.Integer) > 0 && v.IIS == nil {
			// Integrality-driven infeasibility: the relaxation is feasible,
			// so the deletion filter over the relaxation finds nothing.
			// Fall back to the full row set as the conflict.
			v.IIS = allIndices(len(rows))
		}
	}
	return v
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ---------------------------------------------------------------------------
// Default nonlinear solver (IPOPT stand-in).

// PenaltySolver adapts package nlp to the NonlinearSolver interface.
type PenaltySolver struct {
	Options nlp.Options
	Calls   int
	Evals   int
}

// NewPenaltySolver returns the default nonlinear solver (the IPOPT
// stand-in).
func NewPenaltySolver() *PenaltySolver { return &PenaltySolver{} }

// Name implements NonlinearSolver.
func (n *PenaltySolver) Name() string { return "penalty+hc4" }

// Check implements NonlinearSolver.
func (n *PenaltySolver) Check(ctx context.Context, atoms []expr.Atom, box expr.Box, hint expr.Env) NonlinearVerdict {
	n.Calls++
	p := &nlp.Problem{Atoms: atoms, Box: box}
	opt := n.Options
	res := nlp.SolveContext(ctx, p, opt)
	n.Evals += res.Evals
	if res.Status == nlp.Unknown && hint != nil && ctx.Err() == nil {
		// Second chance: descend from the linear solver's point.
		res2 := nlp.SolveContext(ctx, p, withHintSeed(opt))
		n.Evals += res2.Evals
		if res2.Status != nlp.Unknown {
			res = res2
		}
	}
	return NonlinearVerdict{Status: res.Status, X: res.X}
}

func withHintSeed(o nlp.Options) nlp.Options {
	o.Seed = 12345
	if o.Starts == 0 {
		o.Starts = 48
	} else {
		o.Starts *= 2
	}
	return o
}

// boundsMaps converts a Box into the lower/upper maps the linear interface
// takes.
func boundsMaps(box expr.Box) (lower, upper map[string]float64) {
	lower = map[string]float64{}
	upper = map[string]float64{}
	for v, iv := range box {
		if !math.IsInf(iv.Lo, -1) {
			lower[v] = iv.Lo
		}
		if !math.IsInf(iv.Hi, 1) {
			upper[v] = iv.Hi
		}
	}
	return
}
