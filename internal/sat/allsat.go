package sat

import (
	"context"
	"errors"
	"fmt"
)

// ErrStopEnumeration can be returned by an AllSAT callback to end the
// enumeration early without reporting an error to the caller.
var ErrStopEnumeration = errors.New("sat: enumeration stopped by callback")

// AllSAT enumerates satisfying assignments, standing in for the LSAT solver
// of the paper. For every model found, report is invoked with the full
// assignment; the enumeration then continues with a blocking clause over
// the projection variables. If important is nil, all variables present at
// the time of the call are projected (every total model is distinct);
// otherwise models are enumerated modulo the projection: two models that
// agree on the important variables are reported once.
//
// AllSAT mutates the solver by adding blocking clauses; afterwards the
// solver is unsatisfiable with respect to the projection (all models have
// been blocked). Callers that need the solver afterwards should enumerate
// on a copy.
//
// The number of models reported is returned. Enumeration can be bounded by
// maxModels (0 = unbounded) or stopped by the callback returning
// ErrStopEnumeration (not treated as an error) or any other error
// (propagated).
func (s *Solver) AllSAT(important []Var, maxModels int, report func(model []bool) error) (int, error) {
	return s.AllSATContext(context.Background(), important, maxModels, report)
}

// AllSATContext is AllSAT with cooperative cancellation: the context is
// polled inside every model search and between models, so a cancelled
// enumeration stops promptly, returning the models found so far together
// with ctx.Err().
//
// The projection is validated up front: a variable outside [0, NumVars)
// returns an error before any model is enumerated (the solver is left
// untouched), and duplicate entries are collapsed to one — a duplicated
// variable would otherwise contribute the same literal twice to every
// blocking clause.
func (s *Solver) AllSATContext(ctx context.Context, important []Var, maxModels int, report func(model []bool) error) (int, error) {
	proj := important
	if proj == nil {
		proj = make([]Var, s.NumVars())
		for v := range proj {
			proj[v] = v
		}
	} else {
		seen := make(map[Var]bool, len(proj))
		clean := make([]Var, 0, len(proj))
		for _, v := range proj {
			if v < 0 || int(v) >= s.NumVars() {
				return 0, fmt.Errorf("sat: projection variable %d out of range [0,%d)", v, s.NumVars())
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			clean = append(clean, v)
		}
		proj = clean
	}
	count := 0
	for {
		if maxModels > 0 && count >= maxModels {
			return count, nil
		}
		if err := ctx.Err(); err != nil {
			return count, err
		}
		model, res, err := s.SolveModelContext(ctx)
		if err != nil {
			return count, err
		}
		if res != LTrue {
			return count, nil
		}
		count++
		if report != nil {
			if err := report(model); err != nil {
				if errors.Is(err, ErrStopEnumeration) {
					return count, nil
				}
				return count, err
			}
		}
		// Block this model on the projection variables.
		block := make([]Lit, 0, len(proj))
		for _, v := range proj {
			block = append(block, MkLit(v, model[v]))
		}
		if !s.AddClause(block...) {
			return count, nil // blocked everything: enumeration complete
		}
	}
}
