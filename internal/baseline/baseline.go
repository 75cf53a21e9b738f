// Package baseline implements the two comparison solvers of the paper's
// evaluation (Sec. 5): a MathSAT-3-style tightly-integrated Boolean+linear
// lazy SMT solver, and a CVC-Lite-style solver with eager lemma grounding
// and proof-object bookkeeping. Both are *linear-only*: handed a problem
// with nonlinear atoms they fail with ErrNonlinear, reproducing Table 1's
// "both CVC Lite and MathSAT rejected the problems due to the nonlinear
// arithmetic inequalities contained".
//
// Substitution notes (see DESIGN.md): the originals are closed/unavailable;
// these reimplementations model the architectural properties the paper's
// comparison rests on —
//
//   - MathSATLike: tight integration — one incremental Boolean solver (no
//     external restarts), conflict-set minimisation, and an eager
//     mutual-exclusion preprocessing pass — makes it competitive on easy
//     Boolean-linear problems (Table 2). Its theory layer has no native
//     integer support: integrality and disequalities are enforced by
//     splitting-on-demand lemmas, one SAT+LP round per split — the
//     mechanism that grinds on the integer-programming-flavoured Sudoku
//     instances (Table 3, 75-137 minutes in the paper).
//   - CVCLiteLike: the same lazy skeleton with a deeper eager pass
//     (implication lemmas as well as exclusions, making small instances
//     nearly propositional — fastest on Table 2), plus proof-object
//     retention (CVC Lite builds proofs by default), which charges memory
//     on every theory check; on Sudoku-scale instances the accountant
//     exceeds its budget and the solver aborts with ErrOutOfMemory —
//     Table 3's "–∗ ... out-of-memory aborts".
package baseline

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/sat"
)

// ErrNonlinear is returned when the problem contains nonlinear atoms.
var ErrNonlinear = errors.New("baseline: nonlinear arithmetic rejected")

// ErrOutOfMemory is returned by CVCLiteLike when its memory accountant
// exceeds the configured budget (the paper's –∗ entries).
var ErrOutOfMemory = errors.New("baseline: out of memory")

// ErrTimeout is returned when Timeout elapses before a verdict.
var ErrTimeout = errors.New("baseline: timeout")

// Stats counts baseline solver work.
type Stats struct {
	Iterations   int
	TheoryChecks int
	Splits       int
	Lemmas       int
	// ProofBytes is CVCLiteLike's accounted proof-object memory.
	ProofBytes int64
}

// Result is a baseline verdict.
type Result struct {
	Status core.Status
	Model  *core.Model
	Stats  Stats
}

// MathSATLike is the tightly-integrated Boolean+linear lazy SMT baseline.
type MathSATLike struct {
	// Timeout bounds the wall-clock solve time (0 = none).
	Timeout time.Duration
}

// Name returns the solver's display name.
func (m *MathSATLike) Name() string { return "mathsat-like" }

// Solve decides the problem. Nonlinear atoms yield ErrNonlinear.
func (m *MathSATLike) Solve(p *core.Problem) (Result, error) {
	return lazySolve(p, lazyConfig{
		timeout: m.Timeout,
		ground:  groundExclusions,
	})
}

// CVCLiteLike is the eager-grounding, proof-logging baseline.
type CVCLiteLike struct {
	// MemoryBudget bounds accounted proof memory in bytes
	// (0 = 256 MiB).
	MemoryBudget int64
	// Timeout bounds the wall-clock solve time (0 = none).
	Timeout time.Duration
}

// Name returns the solver's display name.
func (c *CVCLiteLike) Name() string { return "cvclite-like" }

// Solve decides the problem. Nonlinear atoms yield ErrNonlinear; exceeding
// the memory budget yields ErrOutOfMemory.
func (c *CVCLiteLike) Solve(p *core.Problem) (Result, error) {
	budget := c.MemoryBudget
	if budget == 0 {
		budget = 256 << 20
	}
	return lazySolve(p, lazyConfig{
		timeout:     c.Timeout,
		ground:      groundFull,
		proofBudget: budget,
	})
}

// groundLevel selects the eager preprocessing depth: MathSATLike derives
// mutual exclusions between atoms during preprocessing; CVCLiteLike's eager
// approach additionally grounds implications.
type groundLevel int

const (
	groundNone groundLevel = iota
	groundExclusions
	groundFull
)

type lazyConfig struct {
	timeout     time.Duration
	ground      groundLevel
	proofBudget int64 // 0 = no proof logging
}

// maxIterations bounds the SAT↔theory rounds of one solve.
const maxIterations = 10_000_000

// lazySolve is the shared lazy DPLL(T) skeleton of both baselines.
func lazySolve(p *core.Problem, cfg lazyConfig) (Result, error) {
	var st Stats
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	for _, a := range p.Bindings {
		if !expr.IsLinear(a) {
			return Result{}, fmt.Errorf("%w: %s", ErrNonlinear, a.String())
		}
	}
	// One deadline bounds every round, and the SAT search and the LP check
	// inside each round.
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	s := sat.New()
	s.EnsureVars(p.NumVars)
	for _, cl := range p.Clauses {
		lits := make([]sat.Lit, len(cl))
		for i, n := range cl {
			lits[i] = sat.FromDIMACS(n)
		}
		s.AddClause(lits...)
	}

	// bindings grows as splitting-on-demand introduces fresh atoms.
	bindings := map[int]expr.Atom{}
	for v, a := range p.Bindings {
		bindings[v] = a
	}
	numVars := p.NumVars
	lower, upper := boundsMaps(p)
	intVars := p.IntVars()
	// splitDone guards against re-splitting the same disequality or the
	// same integer branch point (which would loop forever); a repeat falls
	// back to blocking the assignment.
	splitDone := map[string]bool{}

	if cfg.ground != groundNone {
		st.Lemmas = groundLemmas(s, bindings, cfg.ground == groundExclusions)
	}
	// Tight integration: bias the Boolean search towards asserting
	// equalities (one cheap row) rather than disequalities (a case split).
	for _, v := range sortedKeys(bindings) {
		switch bindings[v].Op {
		case expr.CmpEQ:
			s.SetPolarity(v, false)
		case expr.CmpNE:
			s.SetPolarity(v, true)
		}
	}

	for iter := 0; iter < maxIterations; iter++ {
		st.Iterations++
		if ctx.Err() != nil {
			return Result{Status: core.StatusUnknown, Stats: st}, ErrTimeout
		}
		model, res, err := s.SolveModelContext(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return Result{Status: core.StatusUnknown, Stats: st}, ErrTimeout
			}
			return Result{Stats: st}, err
		}
		if res != sat.LTrue {
			return Result{Status: core.StatusUnsat, Stats: st}, nil
		}
		for len(model) < numVars {
			model = append(model, false)
		}

		// Assemble asserted atoms in variable order, which fixes the LP row
		// order and with it the IIS and the blocking clauses.
		var asserted []struct {
			lit  int
			atom expr.Atom
		}
		for _, v := range sortedKeys(bindings) {
			aa := bindings[v]
			lit := v + 1
			if !model[v] {
				aa = aa.Negate()
				lit = -lit
			}
			asserted = append(asserted, struct {
				lit  int
				atom expr.Atom
			}{lit, aa})
		}

		st.TheoryChecks++
		if cfg.proofBudget > 0 {
			// Proof-object accounting: every theory check retains the full
			// constraint system it dispatched (CVC Lite keeps derivations
			// for proof production). ~96 bytes per retained atom record.
			st.ProofBytes += int64(len(asserted)+len(p.Clauses)/4) * 96
			if st.ProofBytes > cfg.proofBudget {
				return Result{Status: core.StatusUnknown, Stats: st}, ErrOutOfMemory
			}
		}

		// Integer-blind theory check: real-relaxation rows with ε-strict
		// inequalities; disequalities checked at the witness.
		rows := make([]lp.Constraint, 0, len(asserted))
		var neqs []struct {
			lit  int
			atom expr.Atom
		}
		for _, aa := range asserted {
			if aa.atom.Op == expr.CmpNE {
				neqs = append(neqs, aa)
				continue
			}
			la, _ := expr.LinearizeAtom(aa.atom)
			row := relaxRow(la)
			row.Tag = aa.lit
			rows = append(rows, row)
		}
		// CheckContext only reads the bound maps, so they go straight
		// through.
		prob := &lp.Problem{Constraints: rows, Lower: lower, Upper: upper}
		// Tight integration: an infeasible check is minimised to an
		// irreducible subset before it goes back to the Boolean layer.
		lr, iis := prob.CheckContext(ctx)
		switch lr.Status {
		case lp.Canceled:
			return Result{Status: core.StatusUnknown, Stats: st}, ErrTimeout
		case lp.Infeasible:
			if iis != nil {
				blockRows(s, rows, iis)
			} else {
				blockAssignment(s, asserted)
			}
			continue
		case lp.Feasible:
			// Check disequalities at the witness.
			var violated *struct {
				lit  int
				atom expr.Atom
			}
			for i := range neqs {
				la, _ := expr.LinearizeAtom(neqs[i].atom)
				// Summed in sorted variable order, so the tolerance
				// test cannot flip with map iteration order.
				lhs := 0.0
				for _, v := range la.Form.Vars() {
					lhs += la.Form.Coeffs[v] * lr.X[v]
				}
				d := lhs - la.Bound
				if d < 1e-9 && d > -1e-9 {
					violated = &neqs[i]
					break
				}
			}
			if violated == nil {
				// Integer discipline by splitting-on-demand: a fractional
				// value of an integer variable spawns the branch lemma
				// (x ≤ ⌊v⌋ ∨ x ≥ ⌈v⌉) over fresh atoms. This is the
				// era-accurate (and costly) way all-in-one lazy solvers
				// handled the "more involved integer programming
				// sub-problems" of Sec. 5.3.
				if name, v, frac := firstFractional(intVars, lr.X, 1e-6); frac {
					key := fmt.Sprintf("int|%s|%g", name, floorOf(v))
					if splitDone[key] {
						blockAssignment(s, asserted)
						continue
					}
					splitDone[key] = true
					st.Splits++
					leAtom, _ := expr.ParseAtom(fmt.Sprintf("%s <= %g", name, floorOf(v)), expr.Int)
					geAtom, _ := expr.ParseAtom(fmt.Sprintf("%s >= %g", name, floorOf(v)+1), expr.Int)
					leVar, geVar := numVars, numVars+1
					numVars += 2
					s.EnsureVars(numVars)
					bindings[leVar] = leAtom
					bindings[geVar] = geAtom
					s.AddClause(sat.MkLit(leVar, false), sat.MkLit(geVar, false))
					s.AddClause(sat.MkLit(leVar, true), sat.MkLit(geVar, true))
					continue
				}
				env := expr.Env{}
				for k, v := range lr.X {
					env[k] = v
				}
				for _, name := range p.ArithVars() {
					if _, ok := env[name]; !ok {
						if iv, okB := p.Bounds[name]; okB {
							env[name] = iv.Mid()
						} else {
							env[name] = 0
						}
					}
				}
				for name := range intVars {
					if x, ok := env[name]; ok {
						env[name] = roundOf(x)
					}
				}
				if checkModelAtoms(asserted, env) {
					mdl := &core.Model{Bool: model[:numVars:numVars], Real: env}
					return Result{Status: core.StatusSat, Model: mdl, Stats: st}, nil
				}
				// The completed environment violates something. An
				// ε-relaxed strict row can leave an integer variable just
				// off an excluded point (k+1e-6 rounds back onto k):
				// re-examine fractionality at a tighter tolerance and
				// branch on it before giving up.
				if name, v, frac := firstFractional(intVars, lr.X, 1e-9); frac {
					key := fmt.Sprintf("int|%s|%g", name, floorOf(v))
					if !splitDone[key] {
						splitDone[key] = true
						st.Splits++
						leAtom, _ := expr.ParseAtom(fmt.Sprintf("%s <= %g", name, floorOf(v)), expr.Int)
						geAtom, _ := expr.ParseAtom(fmt.Sprintf("%s >= %g", name, floorOf(v)+1), expr.Int)
						leVar, geVar := numVars, numVars+1
						numVars += 2
						s.EnsureVars(numVars)
						bindings[leVar] = leAtom
						bindings[geVar] = geAtom
						s.AddClause(sat.MkLit(leVar, false), sat.MkLit(geVar, false))
						s.AddClause(sat.MkLit(leVar, true), sat.MkLit(geVar, true))
						continue
					}
				}
				// Fall through to splitting on the first failing
				// disequality.
				for i := range neqs {
					if ok, err := neqs[i].atom.Holds(env); err == nil && !ok {
						violated = &neqs[i]
						break
					}
				}
				if violated == nil {
					// No repairable cause: block the assignment.
					blockAssignment(s, asserted)
					continue
				}
			}
			// Splitting-on-demand: introduce x < c and x > c as fresh
			// atoms and the lemma (¬lit ∨ lt ∨ gt); the Boolean search
			// must now pick a side.
			key := violated.atom.String()
			if splitDone[key] {
				blockAssignment(s, asserted)
				continue
			}
			splitDone[key] = true
			st.Splits++
			la, _ := expr.LinearizeAtom(violated.atom)
			ltAtom := violated.atom
			ltAtom.Op = expr.CmpLT
			gtAtom := violated.atom
			gtAtom.Op = expr.CmpGT
			if la.Op != expr.CmpNE {
				// Should not happen: violated is always a disequality.
				blockAssignment(s, asserted)
				continue
			}
			ltVar := numVars
			gtVar := numVars + 1
			numVars += 2
			s.EnsureVars(numVars)
			bindings[ltVar] = ltAtom
			bindings[gtVar] = gtAtom
			lemma := []sat.Lit{sat.MkLit(ltVar, false), sat.MkLit(gtVar, false)}
			if violated.lit > 0 {
				lemma = append(lemma, sat.MkLit(violated.lit-1, true))
			} else {
				lemma = append(lemma, sat.MkLit(-violated.lit-1, false))
			}
			s.AddClause(lemma...)
			// Sides are mutually exclusive with each other and with the
			// equality they split.
			s.AddClause(sat.MkLit(ltVar, true), sat.MkLit(gtVar, true))
			continue
		default:
			return Result{Status: core.StatusUnknown, Stats: st}, fmt.Errorf("baseline: linear solver returned %v", lr.Status)
		}
	}
	return Result{Status: core.StatusUnknown, Stats: st}, fmt.Errorf("baseline: iteration limit")
}

// blockRows adds the negation of the literals tagged on the given rows.
func blockRows(s *sat.Solver, rows []lp.Constraint, iis []int) {
	cl := make([]sat.Lit, 0, len(iis))
	for _, i := range iis {
		lit := rows[i].Tag
		if lit > 0 {
			cl = append(cl, sat.MkLit(lit-1, true))
		} else {
			cl = append(cl, sat.MkLit(-lit-1, false))
		}
	}
	s.AddClause(cl...)
}

// blockAssignment adds the negation of the current atom assignment.
func blockAssignment(s *sat.Solver, asserted []struct {
	lit  int
	atom expr.Atom
}) {
	cl := make([]sat.Lit, len(asserted))
	for i, aa := range asserted {
		if aa.lit > 0 {
			cl[i] = sat.MkLit(aa.lit-1, true)
		} else {
			cl[i] = sat.MkLit(-aa.lit-1, false)
		}
	}
	s.AddClause(cl...)
}

// checkModelAtoms verifies all asserted atoms at env.
func checkModelAtoms(asserted []struct {
	lit  int
	atom expr.Atom
}, env expr.Env) bool {
	for _, aa := range asserted {
		var ok bool
		var err error
		switch aa.atom.Op {
		case expr.CmpLT, expr.CmpGT, expr.CmpNE:
			ok, err = aa.atom.Holds(env)
		default:
			ok, err = aa.atom.HoldsTol(env, 1e-6)
		}
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// relaxRow converts a linear atom to an ε-relaxed weak row (integer-blind:
// no unit tightening).
func relaxRow(la expr.LinearAtom) lp.Constraint {
	row := lp.Constraint{Coeffs: la.Form.Coeffs, RHS: la.Bound}
	switch la.Op {
	case expr.CmpLT:
		row.Rel, row.RHS = lp.LE, la.Bound-lp.Epsilon
	case expr.CmpLE:
		row.Rel = lp.LE
	case expr.CmpGT:
		row.Rel, row.RHS = lp.GE, la.Bound+lp.Epsilon
	case expr.CmpGE:
		row.Rel = lp.GE
	default:
		row.Rel = lp.EQ
	}
	return row
}

// groundLemmas performs the eager pass: for every pair of atoms over the
// same single variable, derive implication/exclusion lemmas by bound
// reasoning and add them as clauses. exclusionsOnly limits the pass to
// mutual exclusions (MathSATLike's preprocessing depth). Returns the
// number of lemmas.
func groundLemmas(s *sat.Solver, bindings map[int]expr.Atom, exclusionsOnly bool) int {
	type uni struct {
		v     int // Boolean variable
		op    expr.CmpOp
		bound float64
		coeff float64
	}
	byVar := map[string][]uni{}
	for _, v := range sortedKeys(bindings) {
		la, ok := expr.LinearizeAtom(bindings[v])
		if !ok || len(la.Form.Coeffs) != 1 {
			continue
		}
		for name, c := range la.Form.Coeffs {
			if c == 0 {
				continue
			}
			byVar[name] = append(byVar[name], uni{v: v, op: la.Op, bound: la.Bound / c, coeff: c})
		}
	}
	lemmas := 0
	for _, name := range sortedKeys(byVar) {
		atoms := byVar[name]
		for i := 0; i < len(atoms); i++ {
			for j := i + 1; j < len(atoms); j++ {
				a, b := atoms[i], atoms[j]
				// Normalise to x ? bound (flip op when coeff < 0).
				opA, opB := normOp(a.op, a.coeff), normOp(b.op, b.coeff)
				switch core.PairRelation(opA, a.bound, opB, b.bound) {
				case core.RelExclusive:
					s.AddClause(sat.MkLit(a.v, true), sat.MkLit(b.v, true))
					lemmas++
				case core.RelAImpliesB:
					if !exclusionsOnly {
						s.AddClause(sat.MkLit(a.v, true), sat.MkLit(b.v, false))
						lemmas++
					}
				case core.RelBImpliesA:
					if !exclusionsOnly {
						s.AddClause(sat.MkLit(b.v, true), sat.MkLit(a.v, false))
						lemmas++
					}
				}
			}
		}
	}
	return lemmas
}

// sortedKeys returns m's keys in ascending order. Iterating a map through
// it keeps the search, and so every counter, the same from run to run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func normOp(op expr.CmpOp, coeff float64) expr.CmpOp {
	if coeff > 0 {
		return op
	}
	switch op {
	case expr.CmpLT:
		return expr.CmpGT
	case expr.CmpGT:
		return expr.CmpLT
	case expr.CmpLE:
		return expr.CmpGE
	case expr.CmpGE:
		return expr.CmpLE
	}
	return op
}

func boundsMaps(p *core.Problem) (lower, upper map[string]float64) {
	lower = map[string]float64{}
	upper = map[string]float64{}
	for v, iv := range p.Bounds {
		if !isInfNeg(iv.Lo) {
			lower[v] = iv.Lo
		}
		if !isInfPos(iv.Hi) {
			upper[v] = iv.Hi
		}
	}
	return
}

func isInfNeg(x float64) bool { return x < -1e308 }
func isInfPos(x float64) bool { return x > 1e308 }

func floorOf(x float64) float64 { return math.Floor(x) }
func roundOf(x float64) float64 { return math.Round(x) }

// firstFractional returns an integer variable whose witness value is more
// than intTol away from an integer.
func firstFractional(intVars map[string]bool, x map[string]float64, intTol float64) (string, float64, bool) {
	for _, v := range sortedKeys(intVars) {
		val, ok := x[v]
		if !ok {
			continue
		}
		if math.Abs(val-math.Round(val)) > intTol {
			return v, val, true
		}
	}
	return "", 0, false
}
