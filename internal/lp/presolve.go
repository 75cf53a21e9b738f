package lp

import "math"

// presolve absorbs the active single-variable rows of r into variable
// bounds. On the conjunction-heavy systems the SMT engine produces, most
// rows are unit (x ≤ A, x = 0, lock = i, …); folding them into bounds
// shrinks the simplex tableau by an order of magnitude. Bound crossings
// are detected immediately as infeasibility. Constant rows (no variables)
// are decided in place.
//
// It leaves the tightened bounds in t.lo/t.hi (presence in t.hasLo/
// t.hasHi) and the indexes of the residual multi-variable rows in t.live,
// and reports false when the rows are infeasible.
func (t *tableau) presolve(r *Rows, active []bool) bool {
	n := len(r.lo0)
	t.lo = append(t.lo[:0], r.lo0...)
	t.hi = append(t.hi[:0], r.hi0...)
	t.hasLo = append(t.hasLo[:0], r.hasLo...)
	t.hasHi = append(t.hasHi[:0], r.hasHi...)
	t.live = t.live[:0]
	for i := range r.rows {
		if active != nil && !active[i] {
			continue
		}
		c := &r.rows[i]
		switch len(c.Terms) {
		case 0:
			ok := true
			switch c.Rel {
			case LE:
				ok = 0 <= c.RHS+FeasTol
			case GE:
				ok = 0 >= c.RHS-FeasTol
			case EQ:
				ok = math.Abs(c.RHS) <= FeasTol
			}
			if !ok {
				return false
			}
		case 1:
			j, coeff := c.Terms[0].Var, c.Terms[0].Coeff
			b := c.RHS / coeff
			rel := c.Rel
			if coeff < 0 {
				switch rel {
				case LE:
					rel = GE
				case GE:
					rel = LE
				}
			}
			if rel != LE && (!t.hasLo[j] || b > t.lo[j]) {
				t.lo[j], t.hasLo[j] = b, true
			}
			if rel != GE && (!t.hasHi[j] || b < t.hi[j]) {
				t.hi[j], t.hasHi[j] = b, true
			}
		default:
			t.live = append(t.live, i)
		}
	}
	for j := 0; j < n; j++ {
		if t.hasLo[j] && t.hasHi[j] && t.lo[j] > t.hi[j]+FeasTol {
			return false
		}
	}
	return true
}
