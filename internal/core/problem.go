// Package core implements the ABsolver engine: the solver-interface layer
// and control loop of Fig. 4. A Problem couples a propositional skeleton
// (CNF clauses) with bindings from Boolean variables to arithmetic atoms
// (the extended-DIMACS "c def" lines) and background variable bounds. The
// Engine iterates a Boolean solver, a linear solver and a nonlinear solver
// — each behind a plug-in interface, as in the paper's extensible design —
// until a consistent model is found or the Boolean abstraction is
// exhausted, refining conflicts via smallest-conflicting-subset extraction.
package core

import (
	"fmt"
	"math"
	"sort"

	"absolver/internal/circuit"
	"absolver/internal/expr"
	"absolver/internal/interval"
)

// Problem is an AB-satisfiability problem (Sec. 2).
type Problem struct {
	// NumVars is the number of Boolean variables (0-based internally,
	// 1-based in DIMACS renderings).
	NumVars int
	// Clauses hold the propositional skeleton in DIMACS convention:
	// ±(v+1) literals.
	Clauses [][]int
	// Bindings associates Boolean variables (0-based) with arithmetic
	// atoms: α(v_a) ⇔ δ(a).
	Bindings map[int]expr.Atom
	// Bounds are background domains of arithmetic variables (e.g. sensor
	// ranges of the case study); they participate in every theory check
	// and are never part of a conflict.
	Bounds expr.Box
	// Comments preserves free-text comment lines from parsed input.
	Comments []string
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{Bindings: map[int]expr.Atom{}, Bounds: expr.Box{}}
}

// AddClause appends a clause given in DIMACS convention and grows NumVars
// as needed.
func (p *Problem) AddClause(lits ...int) {
	cl := make([]int, len(lits))
	copy(cl, lits)
	for _, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		if v > p.NumVars {
			p.NumVars = v
		}
	}
	p.Clauses = append(p.Clauses, cl)
}

// Bind associates 0-based Boolean variable v with atom a.
func (p *Problem) Bind(v int, a expr.Atom) {
	if v+1 > p.NumVars {
		p.NumVars = v + 1
	}
	p.Bindings[v] = a
}

// SetBounds records lo ≤ name ≤ hi as background theory.
func (p *Problem) SetBounds(name string, lo, hi float64) {
	p.Bounds[name] = interval.New(lo, hi)
}

// Clone returns a deep copy of the problem that shares no mutable state
// with the original: clauses, bindings, bounds and comments are copied
// (atoms themselves are immutable and shared). Engines mutate their
// problem — block can grow NumVars — so a portfolio run gives each engine
// its own clone.
func (p *Problem) Clone() *Problem {
	q := &Problem{NumVars: p.NumVars}
	if p.Clauses != nil {
		q.Clauses = make([][]int, len(p.Clauses))
		for i, cl := range p.Clauses {
			q.Clauses[i] = append([]int(nil), cl...)
		}
	}
	q.Bindings = make(map[int]expr.Atom, len(p.Bindings))
	for v, a := range p.Bindings {
		q.Bindings[v] = a
	}
	q.Bounds = p.Bounds.Clone()
	if q.Bounds == nil {
		q.Bounds = expr.Box{}
	}
	q.Comments = append([]string(nil), p.Comments...)
	return q
}

// IntVars returns the arithmetic variables that must take integer values:
// every variable occurring in an atom whose Domain is Int.
func (p *Problem) IntVars() map[string]bool {
	out := map[string]bool{}
	for _, a := range p.Bindings {
		if a.Domain == expr.Int {
			for _, v := range a.Vars() {
				out[v] = true
			}
		}
	}
	return out
}

// ArithVars returns the sorted arithmetic variable names of the problem.
func (p *Problem) ArithVars() []string {
	set := map[string]struct{}{}
	for _, a := range p.Bindings {
		for _, v := range a.Vars() {
			set[v] = struct{}{}
		}
	}
	for v := range p.Bounds {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Counts reports the problem dimensions the paper's Table 1 lists: Boolean
// clauses, Boolean variables, and linear / nonlinear sub-problems.
func (p *Problem) Counts() (clauses, boolVars, linear, nonlinear int) {
	clauses = len(p.Clauses)
	boolVars = p.NumVars
	for _, a := range p.Bindings {
		if expr.IsLinear(a) {
			linear++
		} else {
			nonlinear++
		}
	}
	return
}

// FromCircuit converts a circuit formula into an AB problem via Tseitin
// transformation, preserving atom bindings. Background bounds must be added
// by the caller.
func FromCircuit(c *circuit.Circuit) *Problem {
	cnf := c.ToCNF()
	p := NewProblem()
	p.NumVars = cnf.NumVars
	p.Clauses = cnf.Clauses
	for v, a := range cnf.AtomOf {
		if a != nil {
			p.Bindings[v] = *a
		}
	}
	return p
}

// Validate performs structural checks: clause literals within range,
// bindings within range, bounds non-empty.
func (p *Problem) Validate() error {
	for i, cl := range p.Clauses {
		if len(cl) == 0 {
			return fmt.Errorf("core: clause %d is empty", i)
		}
		for _, l := range cl {
			if l == 0 {
				return fmt.Errorf("core: clause %d contains literal 0", i)
			}
			v := l
			if v < 0 {
				v = -v
			}
			if v > p.NumVars {
				return fmt.Errorf("core: clause %d references variable %d > NumVars %d", i, v, p.NumVars)
			}
		}
	}
	for v := range p.Bindings {
		if v < 0 || v >= p.NumVars {
			return fmt.Errorf("core: binding for out-of-range variable %d", v)
		}
	}
	for name, iv := range p.Bounds {
		if iv.IsEmpty() {
			return fmt.Errorf("core: empty bounds for %s", name)
		}
	}
	return nil
}

// Model is a satisfying valuation of an AB problem: the Boolean assignment
// plus the arithmetic witness (when arithmetic atoms are present).
type Model struct {
	Bool []bool
	Real expr.Env
}

// Check verifies the model against the problem: every clause satisfied,
// every binding consistent (α(v_a) ⇔ δ(a)) within tolerance, every bound
// respected.
func (p *Problem) Check(m Model) error {
	if len(m.Bool) < p.NumVars {
		return fmt.Errorf("core: model covers %d of %d variables", len(m.Bool), p.NumVars)
	}
	for i, cl := range p.Clauses {
		ok := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if m.Bool[v-1] == (l > 0) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: clause %d unsatisfied: %v", i, cl)
		}
	}
	for v, a := range p.Bindings {
		want := m.Bool[v]
		var holds bool
		var err error
		if want {
			holds, err = holdsForCheck(a, m.Real)
		} else {
			holds, err = holdsForCheck(a.Negate(), m.Real)
		}
		if err != nil {
			return fmt.Errorf("core: binding %d (%s): %v", v+1, a, err)
		}
		if !holds {
			return fmt.Errorf("core: binding %d inconsistent: var=%v but atom %s does not match at %v", v+1, want, a, m.Real)
		}
	}
	if name, ok := outOfBounds(p.Bounds, m.Real); ok {
		return fmt.Errorf("core: %s = %g outside bounds %v", name, m.Real[name], p.Bounds[name])
	}
	for name := range p.IntVars() {
		x, ok := m.Real[name]
		if !ok {
			continue
		}
		if d := x - math.Round(x); d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("core: integer variable %s = %g is not integral", name, x)
		}
	}
	return nil
}

// outOfBounds returns a variable whose value in env lies outside its
// bounds by more than 1e-6; variables env does not assign are skipped.
func outOfBounds(bounds expr.Box, env expr.Env) (string, bool) {
	for name, iv := range bounds {
		x, ok := env[name]
		if !ok {
			continue
		}
		if x < iv.Lo-1e-6 || x > iv.Hi+1e-6 {
			return name, true
		}
	}
	return "", false
}

// holdsForCheck applies the acceptance tolerances used across the engine:
// weak comparisons get +1e-6 slack, strict ones must hold outright.
func holdsForCheck(a expr.Atom, env expr.Env) (bool, error) {
	switch a.Op {
	case expr.CmpLT, expr.CmpGT, expr.CmpNE:
		return a.Holds(env)
	default:
		return a.HoldsTol(env, 1e-6)
	}
}
