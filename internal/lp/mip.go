package lp

import (
	"context"
	"math"
	"slices"
)

// intTol is the integrality tolerance of branch-and-bound.
const intTol = 1e-6

// maxNodes bounds the branch-and-bound search; exhausting it yields
// Status IterLimit.
const maxNodes = 200000

// bounds is one branch-and-bound node: the four bound slices of Rows.
type bounds struct {
	lo, hi       []float64
	hasLo, hasHi []bool
}

func (b bounds) clone() bounds {
	return bounds{slices.Clone(b.lo), slices.Clone(b.hi), slices.Clone(b.hasLo), slices.Clone(b.hasHi)}
}

// solveMIP is LP-based branch-and-bound (depth-first, most-fractional
// branching) over a p with integer marks, whose compiled rows are s. It
// returns the first integral point it finds. The context is polled at
// every node and inside every LP relaxation; once cancelled the search
// aborts with Status Canceled. It also returns the status of the root
// node's LP, the relaxation of p; it is IterLimit when the search stopped
// before solving the root.
func (p *Problem) solveMIP(ctx context.Context, s *Rows) (Result, Status) {
	// Every node solves s under its own bounds. The candidates are the
	// integer-marked variables in index order, which is sorted-name
	// order, so ties break the same way on every run.
	at := *s
	var ints []int
	for j, k := range s.keep {
		if k {
			ints = append(ints, j)
		}
	}
	set := func(b bounds) { at.lo0, at.hi0, at.hasLo, at.hasHi = b.lo, b.hi, b.hasLo, b.hasHi }

	stack := []bounds{bounds{s.lo0, s.hi0, s.hasLo, s.hasHi}.clone()}
	nodes := 0
	root := IterLimit
	hitLimit := false

	for len(stack) > 0 {
		if nodes >= maxNodes {
			hitLimit = true
			break
		}
		if ctx.Err() != nil {
			return Result{Status: Canceled}, root
		}
		nodes++
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		set(nd)
		r := solveRows(ctx, &at)
		if nodes == 1 {
			root = r.Status
		}
		switch r.Status {
		case Infeasible:
			continue
		case IterLimit:
			hitLimit = true
			continue
		case Canceled:
			return Result{Status: Canceled}, root
		}

		// Find the most fractional integer variable.
		branch := -1
		worst := intTol
		for _, j := range ints {
			f := r.X[s.names[j]]
			frac := math.Abs(f - math.Round(f))
			if frac > worst {
				worst = frac
				branch = j
			}
		}
		if branch < 0 {
			// Integral solution (within intTol). Snap values exactly and
			// verify.
			snapped := make(map[string]float64, len(r.X))
			for k, v := range r.X {
				snapped[k] = v
			}
			for _, j := range ints {
				snapped[s.names[j]] = math.Round(snapped[s.names[j]])
			}
			if err := p.Verify(snapped, true); err == nil {
				r.X = snapped
				return r, root
			}
			// Snapping perturbed a tight constraint. Branch on any integer
			// variable that is not exactly integral: an ε-strict row can
			// leave one at k+1e-6, within intTol yet genuinely
			// fractional, and floor and ceil still partition the node's
			// integer points however small the fraction.
			for _, j := range ints {
				f := r.X[s.names[j]]
				frac := math.Abs(f - math.Round(f))
				if frac > 0 && (branch < 0 || frac > worst) {
					worst = frac
					branch = j
				}
			}
			if branch < 0 {
				// Exactly integral yet infeasible after snapping:
				// re-solve the continuous variables with the integers
				// fixed to their values; if even that fails the node is
				// abandoned (a numerical fluke).
				fixed := nd.clone()
				for _, j := range ints {
					v := snapped[s.names[j]]
					fixed.lo[j], fixed.hi[j] = v, v
					fixed.hasLo[j], fixed.hasHi[j] = true, true
				}
				set(fixed)
				fr := solveRows(ctx, &at)
				if fr.Status != Feasible {
					continue
				}
				r.X = fr.X
				for _, j := range ints {
					r.X[s.names[j]] = math.Round(r.X[s.names[j]])
				}
				if err := p.Verify(r.X, true); err != nil {
					continue
				}
				return r, root
			}
		}

		f := r.X[s.names[branch]]
		// Up branch: x ≥ ceil(f); down branch, in the node's own slices:
		// x ≤ floor(f).
		up, down := nd.clone(), nd
		if !up.hasLo[branch] || math.Ceil(f) > up.lo[branch] {
			up.lo[branch], up.hasLo[branch] = math.Ceil(f), true
		}
		if !down.hasHi[branch] || math.Floor(f) < down.hi[branch] {
			down.hi[branch], down.hasHi[branch] = math.Floor(f), true
		}
		// Prune empty boxes.
		for _, b := range []bounds{up, down} { // down explored first (LIFO)
			if !(b.hasLo[branch] && b.hasHi[branch] && b.lo[branch] > b.hi[branch]) {
				stack = append(stack, b)
			}
		}
	}

	if hitLimit {
		return Result{Status: IterLimit}, root
	}
	return Result{Status: Infeasible}, root
}
