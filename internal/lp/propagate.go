package lp

import (
	"math"
	"sort"
)

// propagationRounds bounds the sweeps of one bound propagation.
const propagationRounds = 50

// rowSet is one check's rows compiled once into integer-indexed form, so
// that bound propagation and the deletion filters built on it never hash a
// variable name or sort a row again: a deletion test flips one entry of an
// active mask and re-propagates over the same compiled rows.
type rowSet struct {
	vars []string // variable index → name, for the variables in the rows
	rows []compiledRow
	// lo0/hi0 are the variables' initial bounds (±Inf where absent);
	// lo/hi are the propagation scratch copies.
	lo0, hi0 []float64
	lo, hi   []float64
}

// compiledRow is Σ a·x Rel RHS over the row's nonzero terms in
// variable-name order: the tightening sequence and the floating-point
// sums of propagation must not depend on map iteration order, or its
// results vary run to run on borderline systems.
type compiledRow struct {
	terms []term
	rel   Rel
	rhs   float64
}

type term struct {
	v int // index into rowSet.vars
	a float64
}

// compileRows builds the rowSet of rows under the given bounds. Bounds of
// variables that occur in no row cannot take part in propagation and are
// dropped.
func compileRows(rows []Constraint, lower, upper map[string]float64) *rowSet {
	s := &rowSet{rows: make([]compiledRow, len(rows))}
	index := map[string]int{}
	n := 0
	for _, r := range rows {
		n += len(r.Coeffs)
	}
	terms := make([]term, 0, n)
	var names []string
	for i, r := range rows {
		names = names[:0]
		for v, a := range r.Coeffs {
			if a != 0 {
				names = append(names, v)
			}
		}
		sort.Strings(names)
		start := len(terms)
		for _, v := range names {
			j, ok := index[v]
			if !ok {
				j = len(s.vars)
				index[v] = j
				s.vars = append(s.vars, v)
			}
			terms = append(terms, term{v: j, a: r.Coeffs[v]})
		}
		s.rows[i] = compiledRow{terms: terms[start:len(terms):len(terms)], rel: r.Rel, rhs: r.RHS}
	}
	nv := len(s.vars)
	bounds := make([]float64, 4*nv)
	s.lo0, s.hi0, s.lo, s.hi = bounds[:nv:nv], bounds[nv:2*nv:2*nv], bounds[2*nv:3*nv:3*nv], bounds[3*nv:]
	for j, v := range s.vars {
		s.lo0[j], s.hi0[j] = math.Inf(-1), math.Inf(1)
		if b, ok := lower[v]; ok {
			s.lo0[j] = b
		}
		if b, ok := upper[v]; ok {
			s.hi0[j] = b
		}
	}
	return s
}

// propagate performs iterated bound propagation over the active rows (all
// rows when active is nil): for every row Σ aᵢxᵢ ? b and every variable xⱼ
// in it, the bounds of the remaining variables imply a bound on xⱼ, which
// tightens its domain. Returns false when some domain becomes empty — a
// *proof* of infeasibility. Returning true is inconclusive (propagation is
// not a decision procedure); callers fall back to simplex.
//
// This is the cheap oracle that makes the deletion-filter IIS extraction
// affordable on conjunction-heavy instances (equality chains, as in the
// Fischer benchmarks): most subset tests are refuted by propagation alone,
// and only the residual cases pay for a full simplex run.
func (s *rowSet) propagate(active []bool) bool {
	lo, hi := s.lo, s.hi
	copy(lo, s.lo0)
	copy(hi, s.hi0)
	const tol = 1e-9
	for round := 0; round < propagationRounds; round++ {
		changed := false
		for ri := range s.rows {
			if active != nil && !active[ri] {
				continue
			}
			r := &s.rows[ri]
			// Row as Σ aᵢxᵢ ≤ bU and/or Σ aᵢxᵢ ≥ bL.
			var bU, bL float64
			var hasU, hasL bool
			switch r.rel {
			case LE:
				bU, hasU = r.rhs, true
			case GE:
				bL, hasL = r.rhs, true
			case EQ:
				bU, bL, hasU, hasL = r.rhs, r.rhs, true, true
			}
			for k, t := range r.terms {
				v, a := t.v, t.a
				// Bounds on Σ_{w≠v} a_w x_w, summed in row order.
				restLo, restHi := 0.0, 0.0
				for m, w := range r.terms {
					if m == k {
						continue
					}
					if w.a > 0 {
						restLo += w.a * lo[w.v]
						restHi += w.a * hi[w.v]
					} else {
						restLo += w.a * hi[w.v]
						restHi += w.a * lo[w.v]
					}
				}
				// a·x ≤ bU − restLo  and  a·x ≥ bL − restHi.
				if hasU && !math.IsInf(restLo, 0) {
					nb := (bU - restLo) / a
					if a > 0 {
						if nb < hi[v]-tol {
							hi[v] = nb
							changed = true
						}
					} else if nb > lo[v]+tol {
						lo[v] = nb
						changed = true
					}
				}
				if hasL && !math.IsInf(restHi, 0) {
					nb := (bL - restHi) / a
					if a > 0 {
						if nb > lo[v]+tol {
							lo[v] = nb
							changed = true
						}
					} else if nb < hi[v]-tol {
						hi[v] = nb
						changed = true
					}
				}
				if lo[v] > hi[v]+FeasTol {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

// RefutedByPropagation reports whether bound propagation alone proves the
// problem's rows infeasible under its variable bounds.
func (p *Problem) RefutedByPropagation() bool {
	return !compileRows(p.Constraints, p.Lower, p.Upper).propagate(nil)
}
