package nlp

import (
	"context"
	"math"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

// penalty is the smooth(ish) merit function Σ vᵢ(x)² over the atoms, where
// vᵢ measures atom i's violation, together with its symbolic gradient.
// Every expression is compiled once to a tape over the slot table of the
// problem's sorted variables, and the descent and LM iterations run on
// float64 slices indexed by slot; expr.Env appears only at the solver's
// entry and exit. The scratch buffers make a penalty single-goroutine.
type penalty struct {
	terms []penaltyTerm
	// cols maps LM column j to its slot: the variables in order of first
	// appearance across the terms.
	cols  []int
	stack []float64
	// gx and gt hold each term's g at the current point and at the trial
	// point; dir, trial and rows are further per-iteration scratch.
	gx, gt     []float64
	dir, trial []float64
	rows       [][]float64
}

// penaltyTerm holds one atom's normalised difference g = LHS − RHS, the
// violation shape, and ∂g/∂v for each variable v of g.
type penaltyTerm struct {
	g  expr.Tape
	op expr.CmpOp
	// slots and cols give each variable of g, in name order, as a slot and
	// as an LM column; grads holds ∂g/∂v in the same order.
	slots []int
	cols  []int
	grads []expr.Tape
}

// newPenalty compiles the atoms over the slot table vars, which must
// contain every variable of the atoms.
func newPenalty(atoms []expr.Atom, vars []string) *penalty {
	slot := make(map[string]int, len(vars))
	for i, v := range vars {
		slot[v] = i
	}
	p := &penalty{}
	col := map[string]int{}
	depth := 0
	for _, a := range atoms {
		g := expr.Simplify(a.Diff())
		t := penaltyTerm{g: expr.Compile(g, slot), op: a.Op}
		depth = max(depth, t.g.Depth())
		for _, v := range expr.Vars(g) {
			c, ok := col[v]
			if !ok {
				c = len(p.cols)
				col[v] = c
				p.cols = append(p.cols, slot[v])
			}
			d := expr.Compile(expr.Simplify(g.Diff(v)), slot)
			depth = max(depth, d.Depth())
			t.slots = append(t.slots, slot[v])
			t.cols = append(t.cols, c)
			t.grads = append(t.grads, d)
		}
		p.terms = append(p.terms, t)
	}
	p.stack = make([]float64, depth)
	p.gx = make([]float64, len(p.terms))
	p.gt = make([]float64, len(p.terms))
	p.dir = make([]float64, len(vars))
	p.trial = make([]float64, len(vars))
	return p
}

// violation returns v(g) ≥ 0 and dv/dg for the term's comparison shape.
// v is zero exactly when the (margin-adjusted) constraint holds.
func (t *penaltyTerm) violation(g float64) (v, dvdg float64) {
	switch t.op {
	case expr.CmpLE:
		if s := g + interiorMargin; s > 0 {
			return s, 1
		}
	case expr.CmpLT:
		if s := g + StrictMargin + interiorMargin; s > 0 {
			return s, 1
		}
	case expr.CmpGE:
		if s := interiorMargin - g; s > 0 {
			return s, -1
		}
	case expr.CmpGT:
		if s := StrictMargin + interiorMargin - g; s > 0 {
			return s, -1
		}
	case expr.CmpEQ:
		return g, 1 // squared afterwards; sign irrelevant
	case expr.CmpNE:
		if s := StrictMargin - math.Abs(g); s > 0 {
			if g >= 0 {
				return s, -1
			}
			return s, 1
		}
	}
	return 0, 0
}

// eval computes F(x) = Σ v² and stores each term's g in gv; ok=false at
// points outside g's domain (division by zero etc.), treated as +∞ by the
// line search.
func (p *penalty) eval(x, gv []float64) (float64, bool) {
	f := 0.0
	for i := range p.terms {
		g, ok := p.terms[i].g.Eval(x, p.stack)
		if !ok {
			return math.Inf(1), false
		}
		gv[i] = g
		v, _ := p.terms[i].violation(g)
		f += v * v
	}
	return f, true
}

// grad writes ∇F(x) into out, given the terms' g values gv at x from a
// successful eval. A partial that fails to evaluate contributes nothing
// (the violation spike is handled by the line search's domain rejection).
// Each slot accumulates in term order.
func (p *penalty) grad(x, gv, out []float64) {
	clear(out)
	for i := range p.terms {
		t := &p.terms[i]
		v, dvdg := t.violation(gv[i])
		if v == 0 || dvdg == 0 {
			if t.op != expr.CmpEQ || v == 0 {
				continue
			}
		}
		scale := 2 * v * dvdg
		for k := range t.grads {
			d, ok := t.grads[k].Eval(x, p.stack)
			if !ok {
				continue
			}
			out[t.slots[k]] += scale * d
		}
	}
}

// descend runs projected gradient descent with Armijo backtracking from
// the point x, which it overwrites with the best point found (possibly not
// feasible); box holds each slot's clamp interval. ok=false when no point
// near the start is inside g's domain. evals counts merit evaluations. ctx
// is polled once per iteration; on cancellation the current best point is
// kept.
func descend(ctx context.Context, p *penalty, x []float64, box []interval.Interval, opt Options) (ok bool, evals int) {
	f, ok := p.eval(x, p.gx)
	evals++
	if !ok {
		// Nudge off the singularity, staying inside the box.
		for k := range x {
			x[k] = box[k].Clamp(x[k] + 1e-3)
		}
		f, ok = p.eval(x, p.gx)
		evals++
		if !ok {
			return false, evals
		}
	}
	g, trial := p.dir, p.trial
	for iter := 0; iter < opt.MaxIters; iter++ {
		if f <= Tol*Tol {
			return true, evals
		}
		if ctx.Err() != nil {
			return true, evals
		}
		p.grad(x, p.gx, g)
		// Summed in slot order, which is name order, so the total (and so
		// the whole trajectory) is the same on every run.
		norm2 := 0.0
		for _, d := range g {
			norm2 += d * d
		}
		if norm2 < 1e-24 {
			return true, evals // stationary (possibly a local minimum > 0)
		}
		// Armijo backtracking.
		step := 1.0
		if norm2 > 1 {
			step = 1 / math.Sqrt(norm2) // normalise huge gradients
		}
		improved := false
		for back := 0; back < 50; back++ {
			for k, v := range x {
				trial[k] = box[k].Clamp(v - step*g[k])
			}
			ft, okT := p.eval(trial, p.gt)
			evals++
			if okT && ft <= f-1e-4*step*norm2 {
				copy(x, trial)
				copy(p.gx, p.gt)
				f = ft
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			return true, evals
		}
	}
	return true, evals
}
