package lp

import (
	"math"
	"sort"
)

// Rows is a linear system compiled once into integer-indexed form. It is
// the one input of the simplex tableau and of bound propagation: Problem's
// maps are compiled into it, and callers that own their variable layout
// (internal/polyar) fill it directly.
//
// Variable j is the j-th name in sorted order, so term order, column order
// and every floating-point sum over a row follow variable-name order and
// never depend on map iteration. A deletion test flips one entry of an
// active mask and re-propagates or re-solves over the same compiled rows.
type Rows struct {
	names []string // variable index → name; nil when filled directly
	rows  []Row
	terms []Term // backing store of the rows' Terms
	// lo0/hi0 are the variables' bounds, ±Inf where absent; hasLo/hasHi
	// record presence, since a bound given as ±Inf still shapes its
	// column.
	lo0, hi0     []float64
	hasLo, hasHi []bool
	// keep marks variables that get a column even when unbounded and in
	// no row: the integer-marked ones.
	keep []bool
	// lo/hi, varAt and rowAt are propagation scratch.
	lo, hi       []float64
	varAt, rowAt []int32
}

// Row is Σ Coeff·x[Var] Rel RHS over the row's nonzero terms in variable
// order. Tag is the caller's (see Constraint.Tag).
type Row struct {
	Terms []Term
	Rel   Rel
	RHS   float64
	Tag   int
	// zeros lists variables the row names with a zero coefficient: they
	// take no part in the arithmetic but still get a column.
	zeros []int
}

// Term is one coefficient of a Row.
type Term struct {
	Var   int
	Coeff float64
}

// Reset empties r to n free variables and no rows, keeping its buffers.
func (r *Rows) Reset(n int) {
	r.names = nil
	r.rows = r.rows[:0]
	r.terms = r.terms[:0]
	r.lo0 = resize(r.lo0, n)
	r.hi0 = resize(r.hi0, n)
	r.hasLo = resize(r.hasLo, n)
	r.hasHi = resize(r.hasHi, n)
	for j := 0; j < n; j++ {
		r.lo0[j], r.hi0[j] = math.Inf(-1), math.Inf(1)
		r.hasLo[j], r.hasHi[j] = false, false
	}
	r.keep = nil
}

// SetBounds sets lo ≤ x[j] ≤ hi, as Problem.SetBounds does for a name:
// an infinite side is absent.
func (r *Rows) SetBounds(j int, lo, hi float64) {
	r.lo0[j], r.hi0[j] = lo, hi
	r.hasLo[j], r.hasHi[j] = !math.IsInf(lo, -1), !math.IsInf(hi, 1)
}

// Bounds returns variable j's bounds, ±Inf where absent.
func (r *Rows) Bounds(j int) (lo, hi float64) { return r.lo0[j], r.hi0[j] }

// AddRow appends Σ terms Rel rhs. The terms must be nonzero and in
// increasing Var order; they are copied.
func (r *Rows) AddRow(terms []Term, rel Rel, rhs float64, tag int) {
	start := len(r.terms)
	r.terms = append(r.terms, terms...)
	r.rows = append(r.rows, Row{Terms: r.terms[start:len(r.terms):len(r.terms)], Rel: rel, RHS: rhs, Tag: tag})
}

// boundsFrom sets every variable's bounds from lower and upper, as compile
// sets them from a Problem's; the maps must name only r's variables.
func (r *Rows) boundsFrom(lower, upper map[string]float64) {
	for j := range r.lo0 {
		r.lo0[j], r.hi0[j] = math.Inf(-1), math.Inf(1)
		r.hasLo[j], r.hasHi[j] = false, false
	}
	for v, b := range lower {
		j := sort.SearchStrings(r.names, v)
		r.lo0[j], r.hasLo[j] = b, true
	}
	for v, b := range upper {
		j := sort.SearchStrings(r.names, v)
		r.hi0[j], r.hasHi[j] = b, true
	}
}

// NumRows is the number of rows.
func (r *Rows) NumRows() int { return len(r.rows) }

// Row returns row i; its Terms alias r's storage.
func (r *Rows) Row(i int) Row { return r.rows[i] }

// compile builds p's Rows: every variable p.Vars names, its bounds, and
// each constraint's terms in name order.
func (p *Problem) compile() *Rows {
	vars := p.Vars()
	n := len(vars)
	index := make(map[string]int, n)
	for j, v := range vars {
		index[v] = j
	}
	r := &Rows{}
	r.Reset(n)
	r.names = vars
	r.rows = make([]Row, len(p.Constraints))
	nt := 0
	for _, c := range p.Constraints {
		nt += len(c.Coeffs)
	}
	r.terms = make([]Term, 0, nt)
	var names []string
	for i, c := range p.Constraints {
		names = names[:0]
		for v := range c.Coeffs {
			names = append(names, v)
		}
		sort.Strings(names)
		start := len(r.terms)
		var zeros []int
		for _, v := range names {
			if a := c.Coeffs[v]; a != 0 {
				r.terms = append(r.terms, Term{Var: index[v], Coeff: a})
			} else {
				zeros = append(zeros, index[v])
			}
		}
		r.rows[i] = Row{Terms: r.terms[start:len(r.terms):len(r.terms)], Rel: c.Rel, RHS: c.RHS, Tag: c.Tag, zeros: zeros}
	}
	for v, b := range p.Lower {
		j := index[v]
		r.lo0[j], r.hasLo[j] = b, true
	}
	for v, b := range p.Upper {
		j := index[v]
		r.hi0[j], r.hasHi[j] = b, true
	}
	if len(p.Integer) > 0 {
		r.keep = make([]bool, n)
	}
	for v := range p.Integer {
		r.keep[index[v]] = true
	}
	return r
}

// resize returns s with length n, reusing its array when it is large
// enough and otherwise growing it by at least half, so that a run of
// slightly larger problems does not reallocate each time.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, cap(s)+cap(s)/2))
	}
	return s[:n]
}
