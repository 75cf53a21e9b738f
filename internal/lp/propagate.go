package lp

import "math"

// propagationRounds bounds the sweeps of one bound propagation.
const propagationRounds = 50

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
func (s *Rows) propagate(active []bool) bool {
	s.lo = resize(s.lo, len(s.lo0))
	s.hi = resize(s.hi, len(s.hi0))
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
			switch r.Rel {
			case LE:
				bU, hasU = r.RHS, true
			case GE:
				bL, hasL = r.RHS, true
			case EQ:
				bU, bL, hasU, hasL = r.RHS, r.RHS, true, true
			}
			for k, t := range r.Terms {
				v, a := t.Var, t.Coeff
				// Bounds on Σ_{w≠v} a_w x_w, summed in row order.
				restLo, restHi := 0.0, 0.0
				for m, w := range r.Terms {
					if m == k {
						continue
					}
					if w.Coeff > 0 {
						restLo += w.Coeff * lo[w.Var]
						restHi += w.Coeff * hi[w.Var]
					} else {
						restLo += w.Coeff * hi[w.Var]
						restHi += w.Coeff * lo[w.Var]
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
	return !p.compile().propagate(nil)
}
