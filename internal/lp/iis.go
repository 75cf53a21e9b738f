package lp

import "context"

// deletionFilter computes an irreducible infeasible subset of the rows of
// an infeasible s, which the caller has already proved, by the deletion
// filter: every row is tentatively removed, and kept out when the
// remainder is still infeasible. The result is the paper's "smallest
// conflicting subset ... computed and returned as a hint for further
// queries to the SAT-solver" — irreducible (no proper subset of the
// returned rows is infeasible together with the variable bounds), though
// not necessarily of globally minimum cardinality. Variable bounds are
// treated as background theory and are never removed.
//
// A subset is solved over the bounds alone: no column for an
// integer-marked variable that no remaining row or bound names. The filter
// checks ctx between removal tests and returns nil once it is cancelled
// (callers treat a nil IIS as "could not minimise").
func (s *Rows) deletionFilter(ctx context.Context) []int {
	sub := *s
	sub.keep = nil
	t := tableaus.Get().(*tableau)
	defer tableaus.Put(t)
	active := allActive(len(s.rows))
	for i := range s.rows {
		if ctx.Err() != nil {
			return nil
		}
		active[i] = false
		// Row i goes when simplex or propagation refutes the rest, so the
		// order of the two tests does not change the result. Simplex runs
		// first: CheckContext reaches this filter only after propagation
		// failed on the full set, and on such systems propagation rarely
		// refutes a subset.
		if t.solve(ctx, &sub, active, 0) != Infeasible && s.propagate(active) {
			active[i] = true // i is needed for infeasibility
		}
	}
	return activeIndices(active)
}

// iisByPropagation computes an infeasible subset using only the bound
// propagation oracle: rows are removed while propagation still refutes
// the remainder. The result is sound (a genuinely conflicting subset) and
// cheap to obtain, though possibly reducible — deletions that leave
// propagation inconclusive are kept even if a simplex run could discard
// them. It returns nil when propagation cannot refute the full set.
//
// It runs the propagation filter with reason-cone skipping, then confirms
// with one more propagation that the rows it kept still refute; if they
// did not, it would rerun the filter testing every row.
func (s *Rows) iisByPropagation() []int {
	tr := trails.Get().(*trail)
	defer trails.Put(tr)
	if s.propagateTrail(nil, tr) {
		return nil
	}
	active := s.propagationFilter(tr)
	if s.propagate(active) {
		active = s.propagationFilter(nil)
	}
	return activeIndices(active)
}

// propagationFilter is the deletion filter over an s that propagation
// refutes: row i is dropped iff propagation still refutes the rows left
// without it, in row order. With tr, holding the trail of the refuting
// run over all rows, a row outside the reason cone of the last refutation
// is dropped without a test when that run was exact (see trail): the
// active rows stay between the cone and the refuted set, so propagation
// would refute without the row. Only rows inside the cone are tested.
func (s *Rows) propagationFilter(tr *trail) []bool {
	active := allActive(len(s.rows))
	exact := tr != nil && tr.cone(len(s.rows))
	for i := range active {
		active[i] = false
		if exact && !tr.inCone[i] {
			continue
		}
		if s.propagateTrail(active, tr) {
			active[i] = true
		} else if tr != nil {
			exact = tr.cone(len(s.rows))
		}
	}
	return active
}

// CheckContext decides the problem the way a lazy SMT engine's linear
// layer needs it, compiling the rows once for every stage:
//   - bound propagation first: when it refutes the rows, the
//     propagation-only deletion filter minimises the conflict and no
//     simplex runs at all (Result carries no pivots);
//   - otherwise simplex, or branch-and-bound over the same rows when
//     integer variables are marked (maxNodes nodes at most);
//   - on Infeasible, the deletion filter, without proving the
//     infeasibility a second time: the simplex run, or branch-and-bound's
//     root node, has already solved the relaxation.
//
// The returned subset is nil unless the Result is Infeasible. It is also
// nil when ctx is cancelled during the filter and when the infeasibility is
// integrality-driven (the relaxation is feasible, so no row subset of the
// relaxation conflicts). Status Canceled means ctx was cancelled before a
// verdict.
//
// CheckContext only reads p: its constraints and its Lower, Upper and
// Integer maps may be the caller's own, passed through without a copy.
func (p *Problem) CheckContext(ctx context.Context) (Result, []int) {
	s := p.compile()
	if iis := s.iisByPropagation(); iis != nil {
		return Result{Status: Infeasible}, iis
	}
	var res Result
	if len(p.Integer) > 0 {
		var root Status
		if res, root = p.solveMIP(ctx, s); res.Status != Infeasible || root != Infeasible {
			return res, nil
		}
	} else if res = solveRows(ctx, s); res.Status != Infeasible {
		return res, nil
	}
	return res, s.deletionFilter(ctx)
}

func allActive(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

func activeIndices(active []bool) []int {
	var out []int
	for i, a := range active {
		if a {
			out = append(out, i)
		}
	}
	return out
}
