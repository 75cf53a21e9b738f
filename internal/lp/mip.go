package lp

import (
	"context"
	"math"
	"slices"
	"sort"
)

// intTol is the integrality tolerance of branch-and-bound.
const intTol = 1e-6

// SolveMIP solves the problem honouring Integer variable marks by LP-based
// branch-and-bound (depth-first, most-fractional branching) and returns the
// first integral point it finds. maxNodes bounds the search (0 = a
// generous default); exhausting it yields Status IterLimit.
func (p *Problem) SolveMIP(maxNodes int) Result {
	return p.SolveMIPContext(context.Background(), maxNodes)
}

// SolveMIPContext is SolveMIP with cooperative cancellation: the context is
// polled at every branch-and-bound node and inside every LP relaxation;
// once cancelled the search aborts with Status Canceled.
func (p *Problem) SolveMIPContext(ctx context.Context, maxNodes int) Result {
	if len(p.Integer) == 0 {
		return p.SolveContext(ctx)
	}
	res, _ := p.solveMIP(ctx, p.compile(), maxNodes)
	return res
}

// solveMIP is SolveMIPContext's branch-and-bound over a p with integer
// marks, whose compiled rows are s. It also returns the status of the root
// node's LP, the relaxation of p; it is IterLimit when the search stopped
// before solving the root.
func (p *Problem) solveMIP(ctx context.Context, s *Rows, maxNodes int) (Result, Status) {
	if maxNodes == 0 {
		maxNodes = 200000
	}
	// Every node solves s under its own bounds. A node's bound maps name
	// only p's variables (branching bounds integer-marked ones), so they
	// index s's variables as compiling the node's Problem would.
	at := *s
	at.lo0, at.hi0 = slices.Clone(s.lo0), slices.Clone(s.hi0)
	at.hasLo, at.hasHi = slices.Clone(s.hasLo), slices.Clone(s.hasHi)

	type node struct {
		lower map[string]float64
		upper map[string]float64
	}
	copyBounds := func(m map[string]float64) map[string]float64 {
		c := make(map[string]float64, len(m)+1)
		for k, v := range m {
			c[k] = v
		}
		return c
	}

	// Branch-variable candidates in sorted order: iterating the Integer
	// map directly would break ties nondeterministically, making the
	// search tree (and with it the returned witness) vary run to run.
	intVars := make([]string, 0, len(p.Integer))
	for v := range p.Integer {
		intVars = append(intVars, v)
	}
	sort.Strings(intVars)

	stack := []node{{lower: copyBounds(p.Lower), upper: copyBounds(p.Upper)}}
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

		at.boundsFrom(nd.lower, nd.upper)
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
		branchVar := ""
		worst := intTol
		for _, v := range intVars {
			f := r.X[v]
			frac := math.Abs(f - math.Round(f))
			if frac > worst {
				worst = frac
				branchVar = v
			}
		}
		if branchVar == "" {
			// Integral solution (within intTol). Snap values exactly and
			// verify.
			snapped := make(map[string]float64, len(r.X))
			for k, v := range r.X {
				snapped[k] = v
			}
			for v := range p.Integer {
				snapped[v] = math.Round(snapped[v])
			}
			if err := p.Verify(snapped, true); err == nil {
				r.X = snapped
				return r, root
			}
			// Snapping perturbed a tight constraint. Re-examine
			// fractionality at a much tighter tolerance first: an
			// ε-strict row can leave an integer variable at k+1e-6 —
			// within intTol yet genuinely fractional, so branching on
			// it makes real progress (k and k+1 are different boxes).
			for _, v := range intVars {
				frac := math.Abs(r.X[v] - math.Round(r.X[v]))
				if frac > 1e-9 && (branchVar == "" || frac > worst) {
					worst = frac
					branchVar = v
				}
			}
			if branchVar == "" {
				// Exactly integral yet infeasible after snapping:
				// re-solve the continuous variables with the integers
				// fixed to their rounded values; if even that fails
				// the node is abandoned (a numerical fluke).
				fixed := &Problem{
					Constraints: p.Constraints,
					Lower:       copyBounds(nd.lower),
					Upper:       copyBounds(nd.upper),
					Integer:     p.Integer,
				}
				for v := range p.Integer {
					fixed.Lower[v] = snapped[v]
					fixed.Upper[v] = snapped[v]
				}
				fr := fixed.SolveContext(ctx)
				if fr.Status != Feasible {
					continue
				}
				r.X = fr.X
				for v := range p.Integer {
					r.X[v] = math.Round(r.X[v])
				}
				if err := p.Verify(r.X, true); err != nil {
					continue
				}
				return r, root
			}
			// branchVar now names a tight-tolerance fractional variable
			// to branch on.
		}

		f := r.X[branchVar]
		lo := copyBounds(nd.lower)
		hi := copyBounds(nd.upper)
		// Down branch: x ≤ floor(f)
		down := node{lower: lo, upper: copyBounds(nd.upper)}
		if cur, ok := down.upper[branchVar]; !ok || math.Floor(f) < cur {
			down.upper[branchVar] = math.Floor(f)
		}
		// Up branch: x ≥ ceil(f)
		up := node{lower: copyBounds(nd.lower), upper: hi}
		if cur, ok := up.lower[branchVar]; !ok || math.Ceil(f) > cur {
			up.lower[branchVar] = math.Ceil(f)
		}
		// Prune empty boxes.
		pushIfBoxNonempty := func(n node) {
			if l, okL := n.lower[branchVar]; okL {
				if u, okU := n.upper[branchVar]; okU && l > u {
					return
				}
			}
			stack = append(stack, n)
		}
		pushIfBoxNonempty(up)
		pushIfBoxNonempty(down) // explored first (LIFO)
	}

	if hitLimit {
		return Result{Status: IterLimit}, root
	}
	return Result{Status: Infeasible}, root
}
