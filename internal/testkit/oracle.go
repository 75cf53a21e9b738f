package testkit

import (
	"fmt"
	"math"
	"sort"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/interval"
)

// Verdict is the oracle's three-valued answer. Unlike the engine, the
// oracle never degrades silently: it answers Sat or Unsat only when it
// holds a proof (an exact satisfying point, or an exhaustive refutation of
// every propositional model), and Inconclusive otherwise. Differential
// tests therefore only compare definitive-vs-definitive.
type Verdict int

// Oracle verdicts.
const (
	// Inconclusive means the oracle's budget (bisection depth, grid size)
	// could not decide the instance either way.
	Inconclusive Verdict = iota
	// Sat means an exact satisfying point was found and re-checked by
	// point evaluation.
	Sat
	// Unsat means every propositional model's induced arithmetic
	// conjunction was refuted by interval arithmetic.
	Unsat
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "inconclusive"
}

// Oracle is a brute-force reference decision procedure for small AB
// problems. It shares no verdict-producing code with the engine: the
// propositional skeleton is enumerated exhaustively (no SAT solver), and
// each induced arithmetic conjunction is decided by integer-grid
// enumeration plus branch-and-prune interval bisection (no LP, no descent).
//
// Soundness of both answers:
//
//   - Sat is certified by an exact point: every atom re-evaluated with
//     Atom.Holds (zero tolerance) at a concrete assignment inside bounds.
//   - Unsat is certified by interval refutation, which over-approximates
//     ranges (internal/interval widens endpoints), so an empty/false result
//     is a proof even without directed rounding.
//
// Anything in between — a conjunction neither witnessed nor refuted within
// budget — makes the overall verdict Inconclusive, never a guess.
//
// The zero value is ready to use with defaults sized for Generate output.
type Oracle struct {
	// MaxBoolVars caps exhaustive skeleton enumeration (default 16).
	MaxBoolVars int
	// MaxDepth bounds interval bisection per conjunction (default 10).
	MaxDepth int
	// MaxGrid caps the integer-grid size per conjunction (default 4096).
	MaxGrid int
	// DefaultRange substitutes missing variable bounds (default 8). When a
	// variable had to be clipped this way the oracle refuses to answer
	// Unsat (the clipped box may have excluded a witness).
	DefaultRange float64
}

func (o *Oracle) norm() Oracle {
	cfg := Oracle{MaxBoolVars: 16, MaxDepth: 10, MaxGrid: 4096, DefaultRange: 8}
	if o != nil {
		if o.MaxBoolVars > 0 {
			cfg.MaxBoolVars = o.MaxBoolVars
		}
		if o.MaxDepth > 0 {
			cfg.MaxDepth = o.MaxDepth
		}
		if o.MaxGrid > 0 {
			cfg.MaxGrid = o.MaxGrid
		}
		if o.DefaultRange > 0 {
			cfg.DefaultRange = o.DefaultRange
		}
	}
	return cfg
}

// Decide computes ground truth for p by exhaustive enumeration: every
// Boolean assignment satisfying the skeleton induces a conjunction of
// (possibly negated) bound atoms, whose feasibility under the problem's
// bounds is decided by conjFeasible. Distinct assignments agreeing on the
// bound variables share one feasibility check.
func (o *Oracle) Decide(p *core.Problem) (Verdict, error) {
	cfg := o.norm()
	if err := p.Validate(); err != nil {
		return Inconclusive, err
	}
	if p.NumVars > cfg.MaxBoolVars {
		return Inconclusive, fmt.Errorf("testkit: %d Boolean variables exceed the oracle's limit of %d", p.NumVars, cfg.MaxBoolVars)
	}
	box, clipped := oracleBox(p, cfg.DefaultRange)
	ints := p.IntVars()
	bvars := make([]int, 0, len(p.Bindings))
	for v := range p.Bindings {
		bvars = append(bvars, v)
	}
	sort.Ints(bvars)

	memo := map[uint64]expr.Truth{}
	sawUnknown := false
	for mask := uint64(0); mask < uint64(1)<<uint(p.NumVars); mask++ {
		if !cnfSat(p.Clauses, mask) {
			continue
		}
		key := uint64(0)
		for i, v := range bvars {
			key |= (mask >> uint(v) & 1) << uint(i)
		}
		t, ok := memo[key]
		if !ok {
			atoms := make([]expr.Atom, 0, len(bvars))
			for i, v := range bvars {
				a := p.Bindings[v]
				if key>>uint(i)&1 == 0 {
					a = a.Negate()
				}
				atoms = append(atoms, a)
			}
			t = cfg.conjFeasible(atoms, box, ints)
			memo[key] = t
		}
		switch t {
		case expr.True:
			return Sat, nil
		case expr.Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown || clipped {
		return Inconclusive, nil
	}
	return Unsat, nil
}

// AuditLemmas replays the soundness obligation of every recorded conflict,
// ground, and exchange-imported lemma against the oracle: a learned clause
// ¬l₁ ∨ … ∨ ¬lₙ is
// only sound if the conjunction of the atoms asserted by l₁ … lₙ is
// infeasible under the problem's bounds. A lemma whose blocked conjunction
// the oracle can exhibit as feasible is an engine soundness bug — the audit
// reports it. Lossy and model-block lemmas carry no such obligation and
// are skipped.
func (o *Oracle) AuditLemmas(p *core.Problem, lemmas []core.Lemma) error {
	cfg := o.norm()
	box, _ := oracleBox(p, cfg.DefaultRange)
	ints := p.IntVars()
	for i, l := range lemmas {
		if l.Kind != core.LemmaConflict && l.Kind != core.LemmaGround && l.Kind != core.LemmaImported {
			continue
		}
		if len(l.Clause) == 0 {
			continue
		}
		atoms := make([]expr.Atom, 0, len(l.Clause))
		interpretable := true
		for _, lit := range l.Clause {
			v := lit
			if v < 0 {
				v = -v
			}
			a, bound := p.Bindings[v-1]
			if !bound {
				// A clause literal over an unbound variable carries no theory
				// obligation the oracle could replay.
				interpretable = false
				break
			}
			// The clause blocks the assignment that asserted the negation of
			// each clause literal.
			if lit > 0 {
				a = a.Negate()
			}
			atoms = append(atoms, a)
		}
		if !interpretable {
			continue
		}
		if cfg.conjFeasible(atoms, box, ints) == expr.True {
			return fmt.Errorf("testkit: unsound %v lemma %d: clause %v blocks a feasible conjunction", l.Kind, i, l.Clause)
		}
	}
	return nil
}

// oracleBox assembles the background box over the problem's arithmetic
// variables, substituting ±DefaultRange for missing or infinite bounds.
// The clipped flag reports whether any substitution happened — restriction
// can hide witnesses, so a clipped Unsat is downgraded to Inconclusive
// (clipping never fabricates a witness, so Sat stays sound).
func oracleBox(p *core.Problem, r float64) (expr.Box, bool) {
	box := expr.Box{}
	clipped := false
	for _, v := range p.ArithVars() {
		iv, ok := p.Bounds[v]
		if !ok {
			iv = interval.New(-r, r)
			clipped = true
		}
		if math.IsInf(iv.Lo, -1) {
			iv.Lo, clipped = -r, true
		}
		if math.IsInf(iv.Hi, 1) {
			iv.Hi, clipped = r, true
		}
		box[v] = iv
	}
	return box, clipped
}

// cnfSat reports whether the assignment (bit v-1 of mask = variable v)
// satisfies every clause.
func cnfSat(clauses [][]int, mask uint64) bool {
	for _, cl := range clauses {
		sat := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if (mask>>uint(v-1)&1 == 1) == (l > 0) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// conjFeasible restricts the box to the conjunction's variables, enumerates
// integer variables over their grid, and decides the continuous remainder
// by feasBox.
func (cfg Oracle) conjFeasible(atoms []expr.Atom, box expr.Box, ints map[string]bool) expr.Truth {
	vars := conjVars(atoms)
	b := make(expr.Box, len(vars))
	for _, v := range vars {
		iv, ok := box[v]
		if !ok {
			iv = interval.New(-cfg.DefaultRange, cfg.DefaultRange)
		}
		if iv.IsEmpty() {
			return expr.False
		}
		b[v] = iv
	}
	var ivars []string
	grid := 1
	for _, v := range vars {
		if !ints[v] {
			continue
		}
		lo, hi := math.Ceil(b[v].Lo), math.Floor(b[v].Hi)
		if lo > hi {
			return expr.False
		}
		n := int(hi-lo) + 1
		if n <= 0 || grid > cfg.MaxGrid/n {
			return expr.Unknown
		}
		grid *= n
		ivars = append(ivars, v)
	}
	return cfg.enumInts(atoms, b, ivars, 0)
}

// enumInts pins each integer variable to every grid point in turn (exact
// point intervals), recursing to feasBox once all are pinned. False only
// when every grid point is refuted; True as soon as one is witnessed.
func (cfg Oracle) enumInts(atoms []expr.Atom, b expr.Box, ivars []string, i int) expr.Truth {
	if i == len(ivars) {
		return cfg.feasBox(atoms, b, cfg.MaxDepth)
	}
	v := ivars[i]
	iv := b[v]
	defer func() { b[v] = iv }()
	out := expr.False
	for k := math.Ceil(iv.Lo); k <= math.Floor(iv.Hi); k++ {
		b[v] = interval.Point(k)
		switch cfg.enumInts(atoms, b, ivars, i+1) {
		case expr.True:
			return expr.True
		case expr.Unknown:
			out = expr.Unknown
		}
	}
	return out
}

// feasBox decides the conjunction over a continuous box by branch-and-prune:
// interval evaluation refutes or verifies whole boxes, exact evaluation at
// sampled points (corners and midpoints) finds witnesses, and the widest
// variable is bisected until depth runs out. An all-point box is decided
// exactly, which in particular makes all-integer conjunctions (equalities
// and disequalities included) exact despite interval widening.
func (cfg Oracle) feasBox(atoms []expr.Atom, b expr.Box, depth int) expr.Truth {
	if len(atoms) == 0 {
		return expr.True
	}
	vars := conjVars(atoms)
	allPoint := true
	for _, v := range vars {
		if !b[v].IsPoint() {
			allPoint = false
			break
		}
	}
	if allPoint {
		env := make(expr.Env, len(vars))
		for _, v := range vars {
			env[v] = b[v].Lo
		}
		return evalConjExact(atoms, env)
	}
	out := expr.True
	for _, a := range atoms {
		switch a.IntervalHolds(b) {
		case expr.False:
			return expr.False
		case expr.Unknown:
			out = expr.Unknown
		}
	}
	if out == expr.True {
		return expr.True
	}
	if cfg.pointWitness(atoms, b, vars) {
		return expr.True
	}
	if depth <= 0 {
		return expr.Unknown
	}
	wv, ww := "", -1.0
	for _, v := range vars {
		if w := b[v].Width(); w > ww {
			wv, ww = v, w
		}
	}
	if ww <= 1e-9 {
		return expr.Unknown
	}
	iv := b[wv]
	defer func() { b[wv] = iv }()
	mid := iv.Mid()
	b[wv] = interval.New(iv.Lo, mid)
	lt := cfg.feasBox(atoms, b, depth-1)
	if lt == expr.True {
		return expr.True
	}
	b[wv] = interval.New(mid, iv.Hi)
	rt := cfg.feasBox(atoms, b, depth-1)
	if rt == expr.True {
		return expr.True
	}
	if lt == expr.False && rt == expr.False {
		return expr.False
	}
	return expr.Unknown
}

// pointWitness samples the box's corner/midpoint grid, evaluating the
// conjunction exactly at each point; true means a zero-tolerance witness
// was found.
func (cfg Oracle) pointWitness(atoms []expr.Atom, b expr.Box, vars []string) bool {
	samples := make([][]float64, len(vars))
	for i, v := range vars {
		iv := b[v]
		pts := []float64{iv.Lo}
		if m := iv.Mid(); m != iv.Lo {
			pts = append(pts, m)
		}
		if iv.Hi != pts[len(pts)-1] {
			pts = append(pts, iv.Hi)
		}
		samples[i] = pts
	}
	env := make(expr.Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return evalConjExact(atoms, env) == expr.True
		}
		for _, x := range samples[i] {
			env[vars[i]] = x
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// evalConjExact evaluates the conjunction at a point with zero tolerance.
func evalConjExact(atoms []expr.Atom, env expr.Env) expr.Truth {
	for _, a := range atoms {
		ok, err := a.Holds(env)
		if err != nil {
			return expr.Unknown
		}
		if !ok {
			return expr.False
		}
	}
	return expr.True
}

// conjVars returns the sorted union of the atoms' variables.
func conjVars(atoms []expr.Atom) []string {
	set := map[string]struct{}{}
	for _, a := range atoms {
		for _, v := range a.Vars() {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
