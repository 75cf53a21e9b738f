package lp

import (
	"context"
	"math"
	"sync"
)

// cancelPollEvery is the pivot cadence of cooperative cancellation checks:
// ctx.Err() takes a lock, so it is consulted only every few pivots.
const cancelPollEvery = 32

// pivotTol is the minimum magnitude of an eligible pivot element.
const pivotTol = 1e-9

// costTol is the reduced-cost tolerance of phase 1's optimality test.
const costTol = 1e-9

// colKind describes how a tableau column maps back to a problem variable.
type colKind int

const (
	colShifted colKind = iota // x = col + shift        (lower-bounded var)
	colNegated                // x = shift − col        (upper-bounded-only var)
	colPlus                   // positive part of free var
	colMinus                  // negative part of free var
	colSlack                  // slack/surplus, no problem variable
	colArtificial
)

type column struct {
	kind  colKind
	v     int     // variable index (colShifted/colNegated/colPlus/colMinus)
	shift float64 // see kind
}

// Simplex is a reusable dense phase-1 primal simplex: it decides
// feasibility and finds a point, optimising nothing. Its buffers (the
// dense slab, the right-hand side, the basis, the phase-1 cost row and the
// pivot scratch) grow to the largest problem solved and are reused by the
// next Solve, so a caller solving many LPs of similar size (a PolyAR
// worker, one region after another) allocates nothing per LP. A Simplex is
// not safe for concurrent use.
type Simplex struct{ t tableau }

// Solve decides r after the presolve that folds unit rows into bounds.
// maxIter bounds pivots; 0 means a default scaled to the problem. The
// context is polled between pivots.
func (s *Simplex) Solve(ctx context.Context, r *Rows, maxIter int) Status {
	return s.t.solve(ctx, r, nil, maxIter)
}

// Pivots is the number of pivots the last Solve performed.
func (s *Simplex) Pivots() int { return s.t.pivots }

// Value returns variable j's value after a Feasible Solve, and whether the
// variable had a column (a variable with no bound and no live row has
// none).
func (s *Simplex) Value(j int) (float64, bool) { return s.t.x[j], s.t.has[j] }

// tableaus recycles the tableaus of CheckContext's solves across calls.
var tableaus = sync.Pool{New: func() any { return new(tableau) }}

// solveRows solves the rows of r with a pooled tableau and the default
// pivot budget, and maps the outcome back to names.
func solveRows(ctx context.Context, r *Rows) Result {
	t := tableaus.Get().(*tableau)
	defer tableaus.Put(t)
	res := Result{Status: t.solve(ctx, r, nil, 0), Pivots: t.pivots}
	if res.Status != Feasible {
		return res
	}
	res.X = make(map[string]float64, len(t.cols))
	for j, v := range r.names {
		if t.has[j] {
			res.X[v] = t.x[j]
		}
	}
	return res
}

// tableau is a dense phase-1 primal simplex tableau over one Rows.
type tableau struct {
	r *Rows

	// Presolve output: tightened bounds and the residual row indexes.
	lo, hi       []float64
	hasLo, hasHi []bool
	live         []int

	has   []bool // variable has a column
	colOf []int  // variable → its column; a free variable's negative part is the next
	cols  []column

	std     []stdRow
	stdTerm []stdTerm

	dense []float64 // m × width coefficient matrix, row-major
	width int
	rhs   []float64 // length m, kept ≥ 0 by construction
	basis []int     // basic column per row

	wcost []float64 // phase-1 reduced costs (sum of the artificials)

	support []int     // nonzero columns of the pivot row, other than the pivot column
	pivRow  []float64 // the pivot row's entries at support
	val     []float64 // column values at extraction
	x       []float64 // variable values after a Feasible solve

	pivots  int
	maxIter int

	nArtificial int

	// ctx, when non-nil, is polled every cancelPollEvery pivots; once it
	// is done the run aborts with Status Canceled.
	ctx context.Context
}

// stdRow is a standard-form row before the width of the tableau is known:
// its entries are stdTerm[start:end] and b is its shifted RHS.
type stdRow struct {
	start, end int
	rel        Rel
	b          float64
	slack, art int  // column index or -1
	neg        bool // the row was negated to make b ≥ 0
}

type stdTerm struct {
	col int
	a   float64
}

// solve presolves the active rows of r (all when active is nil), builds
// the tableau and runs phase 1.
func (t *tableau) solve(ctx context.Context, r *Rows, active []bool, maxIter int) Status {
	t.r, t.ctx, t.pivots = r, ctx, 0
	t.has = resize(t.has, len(r.lo0))
	t.x = resize(t.x, len(r.lo0))
	if !t.presolve(r, active) {
		clear(t.has)
		return Infeasible
	}
	t.build(maxIter)
	return t.run()
}

// build converts the presolved rows to standard form. The layout is
// fixed: variable columns in variable order (a lower-bounded variable
// shifted, an upper-bounded-only one negated, a free one split), the live
// rows in order, then one row per doubly-bounded variable's upper bound,
// then the slack and artificial columns row by row.
func (t *tableau) build(maxIter int) {
	r := t.r
	n := len(r.lo0)
	for j := 0; j < n; j++ {
		t.has[j] = t.hasLo[j] || t.hasHi[j] || (r.keep != nil && r.keep[j])
	}
	for _, i := range t.live {
		for _, e := range r.rows[i].Terms {
			t.has[e.Var] = true
		}
		for _, j := range r.rows[i].zeros {
			t.has[j] = true
		}
	}
	nVars := 0
	t.colOf = resize(t.colOf, n)
	t.cols = t.cols[:0]
	for j := 0; j < n; j++ {
		if !t.has[j] {
			continue
		}
		nVars++
		t.colOf[j] = len(t.cols)
		if t.hasLo[j] {
			// An upper bound too becomes a row below.
			t.cols = append(t.cols, column{kind: colShifted, v: j, shift: t.lo[j]})
		} else if t.hasHi[j] {
			t.cols = append(t.cols, column{kind: colNegated, v: j, shift: t.hi[j]})
		} else {
			t.cols = append(t.cols, column{kind: colPlus, v: j}, column{kind: colMinus, v: j})
		}
	}
	nVarCols := len(t.cols)
	t.maxIter = maxIter
	if t.maxIter == 0 {
		t.maxIter = 20000 + 200*(len(t.live)+nVars)
	}

	// addTerm appends c·x[j] to the row being built and returns its RHS b
	// moved across by the column's shift.
	t.stdTerm = t.stdTerm[:0]
	addTerm := func(j int, c, b float64) float64 {
		k := t.colOf[j]
		col := t.cols[k]
		switch col.kind {
		case colShifted:
			t.stdTerm = append(t.stdTerm, stdTerm{k, c})
			b -= c * col.shift
		case colNegated:
			t.stdTerm = append(t.stdTerm, stdTerm{k, -c})
			b -= c * col.shift
		case colPlus:
			t.stdTerm = append(t.stdTerm, stdTerm{k, c}, stdTerm{k + 1, -c})
		}
		return b
	}
	t.std = t.std[:0]
	for _, i := range t.live {
		c := &r.rows[i]
		// Terms are in variable order: the b -= c*shift accumulation is a
		// floating-point sum, so its order fixes the tableau RHS (hence
		// pivots and the witness).
		s := stdRow{start: len(t.stdTerm), rel: c.Rel, b: c.RHS}
		for _, e := range c.Terms {
			s.b = addTerm(e.Var, e.Coeff, s.b)
		}
		s.end = len(t.stdTerm)
		t.std = append(t.std, s)
	}
	// Upper bounds of doubly-bounded variables become rows.
	for j := 0; j < n; j++ {
		if t.has[j] && t.hasLo[j] && t.hasHi[j] {
			s := stdRow{start: len(t.stdTerm), rel: LE}
			s.b = addTerm(j, 1, t.hi[j])
			s.end = len(t.stdTerm)
			t.std = append(t.std, s)
		}
	}

	// Normalise to b ≥ 0 and append slack/artificial columns.
	m := len(t.std)
	t.nArtificial = 0
	for i := range t.std {
		s := &t.std[i]
		s.slack, s.art, s.neg = -1, -1, false
		if s.b < 0 {
			s.neg = true
			s.b = -s.b
			switch s.rel {
			case LE:
				s.rel = GE
			case GE:
				s.rel = LE
			}
		}
		switch s.rel {
		case LE:
			s.slack = t.appendCol(column{kind: colSlack})
		case GE:
			s.slack = t.appendCol(column{kind: colSlack}) // surplus, coefficient −1
			s.art = t.appendCol(column{kind: colArtificial})
		case EQ:
			s.art = t.appendCol(column{kind: colArtificial})
		}
	}
	nc := len(t.cols)
	t.dense = resize(t.dense, m*nc)
	clear(t.dense)
	t.width = nc
	t.rhs = resize(t.rhs, m)
	t.basis = resize(t.basis, m)
	t.wcost = resize(t.wcost, nc)
	for j, col := range t.cols {
		t.wcost[j] = 0
		if col.kind == colArtificial {
			t.wcost[j] = 1
		}
	}
	for i := range t.std {
		s := &t.std[i]
		row := t.dense[i*nc : (i+1)*nc : (i+1)*nc]
		for _, e := range t.stdTerm[s.start:s.end] {
			row[e.col] = e.a
		}
		if s.neg {
			for j := 0; j < nVarCols; j++ {
				row[j] = -row[j]
			}
		}
		t.rhs[i] = s.b
		switch s.rel {
		case LE:
			row[s.slack] = 1
			t.basis[i] = s.slack
		case GE:
			row[s.slack] = -1
			row[s.art] = 1
			t.basis[i] = s.art
			t.nArtificial++
		case EQ:
			row[s.art] = 1
			t.basis[i] = s.art
			t.nArtificial++
		}
	}

	// Phase-1 cost row: sum of artificials, priced out over the initial
	// basis (each artificial is basic, so subtract its row). A row's
	// nonzeros are its terms, its slack and its artificial; subtracting
	// only those leaves every other entry as the dense sweep would.
	for i := range t.std {
		s := &t.std[i]
		if s.art < 0 {
			continue
		}
		row := t.row(i)
		for _, e := range t.stdTerm[s.start:s.end] {
			t.wcost[e.col] -= row[e.col]
		}
		if s.slack >= 0 {
			t.wcost[s.slack] -= row[s.slack]
		}
		t.wcost[s.art] -= row[s.art]
	}
}

// row returns row i of the matrix.
func (t *tableau) row(i int) []float64 {
	return t.dense[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

func (t *tableau) appendCol(c column) int {
	t.cols = append(t.cols, c)
	return len(t.cols) - 1
}

// pivot performs a pivot on (row, col). Only the pivot row's nonzero
// columns change in the other rows and the cost row: every entry they
// update gets the arithmetic of a dense sweep, and every other entry
// would have had zero subtracted from it.
func (t *tableau) pivot(row, col int) {
	t.pivots++
	r := t.row(row)
	inv := 1 / r[col]
	sup, rv := t.support[:0], t.pivRow[:0]
	for j, a := range r {
		if a != 0 {
			r[j] = a * inv
			if j != col {
				sup = append(sup, j)
				rv = append(rv, r[j])
			}
		}
	}
	t.support, t.pivRow = sup, rv
	t.rhs[row] *= inv
	r[col] = 1 // exact

	w := t.width
	for i, k := 0, col; i < len(t.rhs); i, k = i+1, k+w {
		f := t.dense[k]
		if f == 0 || i == row {
			continue
		}
		ri := t.row(i)
		for n, j := range sup {
			ri[j] -= f * rv[n]
		}
		ri[col] = 0
		t.rhs[i] -= f * t.rhs[row]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	if f := t.wcost[col]; f != 0 {
		for n, j := range sup {
			t.wcost[j] -= f * rv[n]
		}
		t.wcost[col] = 0
	}
	t.basis[row] = col
}

// phase runs phase 1: simplex to optimality over the artificials' cost
// row. The phase-1 objective is bounded below by 0, so a column with no
// leaving row signals a numerical breakdown and ends the run as IterLimit.
func (t *tableau) phase() Status {
	for {
		if t.pivots > t.maxIter {
			return IterLimit
		}
		if t.ctx != nil && t.pivots%cancelPollEvery == 0 && t.ctx.Err() != nil {
			return Canceled
		}
		// Bland's rule: smallest-index column with negative reduced cost.
		enter := -1
		for j, c := range t.wcost {
			if c < -costTol {
				enter = j
				break
			}
		}
		if enter == -1 {
			return Feasible // optimal
		}
		// Ratio test, Bland tie-break on basis variable index.
		leave := -1
		best := math.Inf(1)
		for i, k := 0, enter; i < len(t.rhs); i, k = i+1, k+t.width {
			a := t.dense[k]
			if a <= pivotTol {
				continue
			}
			ratio := t.rhs[i] / a
			if ratio < best-1e-12 || (math.Abs(ratio-best) <= 1e-12 && (leave == -1 || t.basis[i] < t.basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave == -1 {
			return IterLimit
		}
		t.pivot(leave, enter)
	}
}

// phase1Value returns the current phase-1 infeasibility (sum of artificial
// basic values).
func (t *tableau) phase1Value() float64 {
	s := 0.0
	for i, bj := range t.basis {
		if t.cols[bj].kind == colArtificial {
			s += t.rhs[i]
		}
	}
	return s
}

// run executes phase 1 and, when Feasible, leaves the point in t.x.
func (t *tableau) run() Status {
	if t.nArtificial > 0 {
		if st := t.phase(); st != Feasible {
			return st
		}
		if t.phase1Value() > 1e-6 {
			return Infeasible
		}
		// Drive remaining artificial basics (at zero) out where possible.
		for i, bj := range t.basis {
			if t.cols[bj].kind != colArtificial {
				continue
			}
			for j := range t.cols {
				if t.cols[j].kind == colArtificial {
					continue
				}
				if math.Abs(t.dense[i*t.width+j]) > pivotTol {
					t.pivot(i, j)
					break
				}
			}
		}
	}

	// Extract variable values.
	t.val = resize(t.val, len(t.cols))
	clear(t.val)
	for i, bj := range t.basis {
		t.val[bj] = t.rhs[i]
	}
	for j, col := range t.cols {
		switch col.kind {
		case colShifted:
			t.x[col.v] = t.val[j] + col.shift
		case colNegated:
			t.x[col.v] = col.shift - t.val[j]
		case colPlus:
			t.x[col.v] = 0
			t.x[col.v] += t.val[j]
		case colMinus:
			t.x[col.v] -= t.val[j]
		}
	}
	return Feasible
}
