package lp

import "context"

// IIS computes an irreducible infeasible subset of the problem's
// constraints by the deletion filter: every constraint is tentatively
// removed, and kept out when the remainder is still infeasible. The result
// is the paper's "smallest conflicting subset ... computed and returned as
// a hint for further queries to the SAT-solver" — irreducible (no proper
// subset of the returned rows is infeasible together with the variable
// bounds), though not necessarily of globally minimum cardinality.
//
// The problem must be infeasible; if it is not, IIS returns nil. Variable
// bounds are treated as background theory and are never removed.
func (p *Problem) IIS() []int {
	return p.IISContext(context.Background())
}

// IISContext is IIS with cooperative cancellation: the deletion filter
// checks ctx between removal tests and returns nil once it is cancelled
// (callers treat a nil IIS as "could not minimise").
func (p *Problem) IISContext(ctx context.Context) []int {
	s := p.compile()
	if s.propagate(nil) && solveRows(ctx, s, nil, p.MaxIter).Status != Infeasible {
		return nil
	}
	return p.deletionFilter(ctx, s)
}

// deletionFilter is IISContext's deletion filter over the compiled rows s
// of an infeasible p; the caller has already proved the infeasibility.
// A subset is solved over the bounds alone: no objective, and no column
// for an integer-marked variable that no remaining row or bound names.
func (p *Problem) deletionFilter(ctx context.Context, s *Rows) []int {
	sub := *s
	sub.keep, sub.obj, sub.minimise = nil, nil, false
	t := tableaus.Get().(*tableau)
	defer tableaus.Put(t)
	active := allActive(len(p.Constraints))
	for i := range p.Constraints {
		if ctx.Err() != nil {
			return nil
		}
		active[i] = false
		// Bound propagation is a cheap sound oracle; only subsets it
		// cannot refute pay for a simplex run.
		if s.propagate(active) && t.solve(ctx, &sub, active, p.MaxIter) != Infeasible {
			active[i] = true // i is needed for infeasibility
		}
	}
	return activeIndices(active)
}

// IISByPropagation computes an infeasible subset using only the bound
// propagation oracle: constraints are removed while propagation still
// refutes the remainder. The result is sound (a genuinely conflicting
// subset) and cheap to obtain, though possibly reducible — deletions that
// leave propagation inconclusive are kept even if a simplex run could
// discard them. Returns nil when propagation cannot refute the full set.
func (p *Problem) IISByPropagation() []int {
	return p.compile().iisByPropagation()
}

func (s *Rows) iisByPropagation() []int {
	if s.propagate(nil) {
		return nil
	}
	active := allActive(len(s.rows))
	for i := range active {
		active[i] = false
		if s.propagate(active) {
			active[i] = true
		}
	}
	return activeIndices(active)
}

// CheckContext decides the problem the way a lazy SMT engine's linear
// layer needs it, compiling the rows once for every stage:
//   - bound propagation first: when it refutes the rows, the
//     propagation-only deletion filter minimises the conflict and no
//     simplex runs at all (Result carries no pivots);
//   - otherwise simplex, or branch-and-bound with maxNodes when integer
//     variables are marked;
//   - on Infeasible, the deletion filter of IISContext, without proving
//     the infeasibility a second time.
//
// The returned subset is nil unless the Result is Infeasible. It is also
// nil when ctx is cancelled during the filter and when the infeasibility is
// integrality-driven (the relaxation is feasible, so no row subset of the
// relaxation conflicts).
func (p *Problem) CheckContext(ctx context.Context, maxNodes int) (Result, []int) {
	s := p.compile()
	if iis := s.iisByPropagation(); iis != nil {
		return Result{Status: Infeasible}, iis
	}
	var res Result
	if len(p.Integer) > 0 {
		res = p.SolveMIPContext(ctx, maxNodes).Result
	} else {
		res = solveRows(ctx, s, nil, p.MaxIter)
	}
	if res.Status != Infeasible {
		return res, nil
	}
	// Propagation is known inconclusive here; without integer variables
	// the simplex run above is exactly IISContext's proof. With them,
	// the relaxation still has to be shown infeasible.
	if len(p.Integer) > 0 && solveRows(ctx, s, nil, p.MaxIter).Status != Infeasible {
		return res, nil
	}
	return res, p.deletionFilter(ctx, s)
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
