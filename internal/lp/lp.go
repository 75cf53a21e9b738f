// Package lp implements the linear-constraint solving substrate standing in
// for COIN in the paper. It decides feasibility only: whether a system of
// linear (in)equalities has a solution, by bound propagation and phase-1
// primal simplex, with a witness point when it has; an irreducible
// infeasible subset when it has not (the paper's "smallest conflicting
// subset ... returned as a hint for further queries to the SAT-solver");
// and branch-and-bound to the first integral point for problems with
// integer variables (the Sudoku encoding's "more involved integer
// programming sub-problems"), each node solved over the compiled rows
// under its own copy of their bounds.
//
// It has two doors, one per kind of caller. Problem.CheckContext is the
// lazy engine's linear check: it compiles a Problem's maps into Rows once
// and runs every stage over them. Simplex.Solve decides Rows a caller
// fills itself (PolyAR's region LPs), reusing one tableau across solves.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Rel is the relation of a linear constraint. Strict inequalities are not
// represented here: callers relax l < r to l ≤ r − ε (see Epsilon).
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ aᵢxᵢ ≤ b
	GE            // Σ aᵢxᵢ ≥ b
	EQ            // Σ aᵢxᵢ = b
)

// String returns the relation's source form.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Epsilon is the default relaxation used when converting strict
// inequalities to weak ones (l < r becomes l ≤ r − Epsilon for real
// variables). It is exported so that the engine and its tests agree on the
// tolerance.
const Epsilon = 1e-6

// FeasTol is the feasibility tolerance of the simplex and of solution
// verification.
const FeasTol = 1e-7

// Status is the outcome of a solve.
type Status int

// Solve outcomes. IterLimit is reported when the pivot or node budget runs
// out, or when phase 1 breaks down numerically. Canceled is reported when
// the context passed to CheckContext or Simplex.Solve is cancelled before
// a verdict: the partial search proves nothing, so callers must treat it
// like an indeterminate result and surface ctx.Err().
const (
	Feasible Status = iota
	Infeasible
	IterLimit
	Canceled
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case IterLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Constraint is one linear row Σ Coeffs[v]·v Rel RHS. The Tag is free for
// callers (ABsolver stores the Boolean literal the row came from, so the
// IIS maps straight back to a conflict clause).
type Constraint struct {
	Coeffs map[string]float64
	Rel    Rel
	RHS    float64
	Tag    int
}

// String renders the row.
func (c Constraint) String() string {
	vars := make([]string, 0, len(c.Coeffs))
	for v := range c.Coeffs {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	s := ""
	for i, v := range vars {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%g*%s", c.Coeffs[v], v)
	}
	if s == "" {
		s = "0"
	}
	return fmt.Sprintf("%s %s %g", s, c.Rel, c.RHS)
}

// Eval computes the row's left-hand side under x (absent variables count 0).
// Terms are summed in sorted variable order so borderline tolerance checks
// (Satisfied, Verify) cannot flip with map iteration order.
func (c Constraint) Eval(x map[string]float64) float64 {
	vars := make([]string, 0, len(c.Coeffs))
	for v := range c.Coeffs {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	s := 0.0
	for _, v := range vars {
		s += c.Coeffs[v] * x[v]
	}
	return s
}

// Satisfied reports whether x satisfies the row within FeasTol.
func (c Constraint) Satisfied(x map[string]float64) bool {
	lhs := c.Eval(x)
	switch c.Rel {
	case LE:
		return lhs <= c.RHS+FeasTol
	case GE:
		return lhs >= c.RHS-FeasTol
	case EQ:
		return math.Abs(lhs-c.RHS) <= FeasTol
	}
	return false
}

// Problem is a linear feasibility problem. Variables are identified by
// name; all variables are free (−∞, +∞) unless bounds are set.
type Problem struct {
	Constraints []Constraint
	// Integer marks variables that must take integer values; they are
	// handled by branch-and-bound in CheckContext.
	Integer map[string]bool
	// lower/upper variable bounds (absent = unbounded on that side).
	Lower map[string]float64
	Upper map[string]float64
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{
		Integer: make(map[string]bool),
		Lower:   make(map[string]float64),
		Upper:   make(map[string]float64),
	}
}

// SetBounds sets lo ≤ v ≤ hi. Use math.Inf for one-sided bounds.
func (p *Problem) SetBounds(v string, lo, hi float64) {
	if !math.IsInf(lo, -1) {
		p.Lower[v] = lo
	} else {
		delete(p.Lower, v)
	}
	if !math.IsInf(hi, 1) {
		p.Upper[v] = hi
	} else {
		delete(p.Upper, v)
	}
}

// MarkInteger declares v integer-valued.
func (p *Problem) MarkInteger(v string) { p.Integer[v] = true }

// Vars returns the sorted set of variables mentioned anywhere in the
// problem.
func (p *Problem) Vars() []string {
	set := map[string]struct{}{}
	for _, c := range p.Constraints {
		for v := range c.Coeffs {
			set[v] = struct{}{}
		}
	}
	for v := range p.Lower {
		set[v] = struct{}{}
	}
	for v := range p.Upper {
		set[v] = struct{}{}
	}
	for v := range p.Integer {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Result carries a solve outcome.
type Result struct {
	Status Status
	// X is a satisfying point when Status == Feasible.
	X map[string]float64
	// Pivots is the total number of simplex pivots performed.
	Pivots int
}

// Verify reports whether x satisfies every constraint and bound of p
// (within FeasTol) and, when strict integrality is requested, integrality.
func (p *Problem) Verify(x map[string]float64, checkIntegral bool) error {
	for i, c := range p.Constraints {
		if !c.Satisfied(x) {
			return fmt.Errorf("lp: constraint %d violated: %s at lhs=%g", i, c.String(), c.Eval(x))
		}
	}
	for v, lo := range p.Lower {
		if x[v] < lo-FeasTol {
			return fmt.Errorf("lp: lower bound violated: %s = %g < %g", v, x[v], lo)
		}
	}
	for v, hi := range p.Upper {
		if x[v] > hi+FeasTol {
			return fmt.Errorf("lp: upper bound violated: %s = %g > %g", v, x[v], hi)
		}
	}
	if checkIntegral {
		for v := range p.Integer {
			if math.Abs(x[v]-math.Round(x[v])) > 1e-6 {
				return fmt.Errorf("lp: integrality violated: %s = %g", v, x[v])
			}
		}
	}
	return nil
}
