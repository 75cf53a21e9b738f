package lp

import (
	"math"
	"sync"
)

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
func (s *Rows) propagate(active []bool) bool { return s.propagateTrail(active, nil) }

// propagateTrail is propagate that, when tr is non-nil, also records in
// tr which row made each bound change and which earlier changes it read,
// and, on a refutation, where the domain emptied. The arithmetic is the
// same with and without tr.
func (s *Rows) propagateTrail(active []bool, tr *trail) bool {
	s.lo = resize(s.lo, len(s.lo0))
	s.hi = resize(s.hi, len(s.hi0))
	lo, hi := s.lo, s.hi
	copy(lo, s.lo0)
	copy(hi, s.hi0)
	if tr != nil {
		tr.reset(lo, hi)
	}
	// A row's visit is skipped when no bound of its variables changed
	// since its last visit began: that visit read the same bounds and
	// changed nothing (a change it made itself would be newer), so the
	// skip changes no bound, sweep count or verdict. stamp counts bound
	// changes; varAt and rowAt hold the count at a variable's last change
	// and at the start of a row's last visit (0: never).
	s.varAt = resize(s.varAt, len(s.lo0))
	clear(s.varAt)
	s.rowAt = resize(s.rowAt, len(s.rows))
	clear(s.rowAt)
	stamp := int32(1)
	const tol = 1e-9
	for round := 0; round < propagationRounds; round++ {
		changed := false
		for ri := range s.rows {
			if active != nil && !active[ri] || !s.stale(ri) {
				continue
			}
			s.rowAt[ri] = stamp
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
				if hasU {
					if !math.IsInf(restLo, 0) {
						nb := (bU - restLo) / a
						if a > 0 {
							if nb < hi[v]-tol {
								hi[v] = nb
								changed = true
								stamp++
								s.varAt[v] = stamp
								if tr != nil {
									tr.setHi[v] = tr.note(ri, r.Terms, k, true)
								}
							} else if tr != nil && !(nb >= hi[v]) {
								tr.exact = false
							}
						} else if nb > lo[v]+tol {
							lo[v] = nb
							changed = true
							stamp++
							s.varAt[v] = stamp
							if tr != nil {
								tr.setLo[v] = tr.note(ri, r.Terms, k, true)
							}
						} else if tr != nil && !(nb <= lo[v]) {
							tr.exact = false
						}
					} else if tr != nil && restLo > 0 {
						tr.exact = false
					}
				}
				if hasL {
					if !math.IsInf(restHi, 0) {
						nb := (bL - restHi) / a
						if a > 0 {
							if nb > lo[v]+tol {
								lo[v] = nb
								changed = true
								stamp++
								s.varAt[v] = stamp
								if tr != nil {
									tr.setLo[v] = tr.note(ri, r.Terms, k, false)
								}
							} else if tr != nil && !(nb <= lo[v]) {
								tr.exact = false
							}
						} else if nb < hi[v]-tol {
							hi[v] = nb
							changed = true
							stamp++
							s.varAt[v] = stamp
							if tr != nil {
								tr.setHi[v] = tr.note(ri, r.Terms, k, false)
							}
						} else if tr != nil && !(nb >= hi[v]) {
							tr.exact = false
						}
					} else if tr != nil && restHi < 0 {
						tr.exact = false
					}
				}
				if lo[v] > hi[v]+FeasTol {
					if tr != nil {
						tr.conflict = [3]int32{int32(ri), tr.setLo[v], tr.setHi[v]}
					}
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

// stale reports whether row ri was never visited or a bound of one of
// its variables changed since its last visit began.
func (s *Rows) stale(ri int) bool {
	at := s.rowAt[ri]
	if at == 0 {
		return true
	}
	for _, t := range s.rows[ri].Terms {
		if s.varAt[t.Var] > at {
			return true
		}
	}
	return false
}

// trail is bound propagation's reason trail. Each bound change is an
// event: the row that made it, and the events that set the bounds the row
// read to derive it (the initial bounds are no event). On a refutation,
// cone marks the rows whose events the emptied domain traces back to.
//
// The cone is exact when the run was exact: every update it skipped was
// at least as loose as the bound it met (not merely within the 1e-9
// tolerance of it), and it never skipped an update for an infinite rest
// sum that would have made a tight bound. Then dropping rows outside the
// cone cannot tighten any bound at any step of the run, so the cone's
// events replay unchanged and propagation over any active set between the
// cone and the refuted set refutes at the same step or earlier.
type trail struct {
	setLo, setHi []int32 // variable → the event that set its current bound, or -1
	row          []int32 // event → row
	start        []int32 // event → its first entry in reads
	reads        []int32 // the events each event read
	// conflict is the refuting row and the events that set the emptied
	// domain's lower and upper bound.
	conflict [3]int32
	exact    bool
	inCone   []bool // row → in the cone of the last refutation
	seen     []bool // event → reached by cone
	stack    []int32
}

// trails recycles reason trails across filters.
var trails = sync.Pool{New: func() any { return new(trail) }}

// reset empties tr for a run over the initial bounds lo/hi. A run whose
// initial bounds include a lower bound of +Inf, an upper bound of −Inf or
// a NaN is not exact: infinite rest sums then break the monotonicity the
// cone relies on.
func (tr *trail) reset(lo, hi []float64) {
	tr.setLo = resize(tr.setLo, len(lo))
	tr.setHi = resize(tr.setHi, len(hi))
	tr.exact = true
	for j := range tr.setLo {
		tr.setLo[j], tr.setHi[j] = -1, -1
		if !(lo[j] < math.Inf(1)) || !(hi[j] > math.Inf(-1)) {
			tr.exact = false
		}
	}
	tr.row, tr.start, tr.reads = tr.row[:0], tr.start[:0], tr.reads[:0]
}

// note records a bound change by term k of row ri, derived from the rest
// sum's lower end (fromU: the row's upper side) or its upper end, and
// returns the new event.
func (tr *trail) note(ri int, terms []Term, k int, fromU bool) int32 {
	e := int32(len(tr.row))
	tr.row = append(tr.row, int32(ri))
	tr.start = append(tr.start, int32(len(tr.reads)))
	for m, w := range terms {
		if m == k {
			continue
		}
		set := tr.setHi
		if (w.Coeff > 0) == fromU {
			set = tr.setLo
		}
		if src := set[w.Var]; src >= 0 {
			tr.reads = append(tr.reads, src)
		}
	}
	return e
}

// cone marks in tr.inCone (one entry per of n rows) the refuting row and
// every row whose events the last refutation read, directly or through
// earlier events, and reports whether the run was exact.
func (tr *trail) cone(n int) bool {
	tr.inCone = resize(tr.inCone, n)
	clear(tr.inCone)
	tr.seen = resize(tr.seen, len(tr.row))
	clear(tr.seen)
	tr.inCone[tr.conflict[0]] = true
	stack := tr.stack[:0]
	for _, e := range tr.conflict[1:] {
		if e >= 0 && !tr.seen[e] {
			tr.seen[e] = true
			stack = append(stack, e)
		}
	}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tr.inCone[tr.row[e]] = true
		end := int32(len(tr.reads))
		if int(e)+1 < len(tr.start) {
			end = tr.start[e+1]
		}
		for _, src := range tr.reads[tr.start[e]:end] {
			if !tr.seen[src] {
				tr.seen[src] = true
				stack = append(stack, src)
			}
		}
	}
	tr.stack = stack
	return tr.exact
}

// RefutedByPropagation reports whether bound propagation alone proves the
// problem's rows infeasible under its variable bounds.
func (p *Problem) RefutedByPropagation() bool {
	return !p.compile().propagate(nil)
}
