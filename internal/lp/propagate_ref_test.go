package lp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refPropagateBounds is the name-keyed bound propagation the compiled
// rowSet replaced, kept as the reference the compiled form must match bit
// for bit. Besides the verdict it returns the bounds it ended with.
func refPropagateBounds(rows []Constraint, lower, upper map[string]float64, rounds int) (bool, map[string]float64, map[string]float64) {
	lo := map[string]float64{}
	hi := map[string]float64{}
	for v, b := range lower {
		lo[v] = b
	}
	for v, b := range upper {
		hi[v] = b
	}
	get := func(m map[string]float64, v string, def float64) float64 {
		if x, ok := m[v]; ok {
			return x
		}
		return def
	}
	const tol = 1e-9
	rowVars := make([][]string, len(rows))
	for i, r := range rows {
		vs := make([]string, 0, len(r.Coeffs))
		for v := range r.Coeffs {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		rowVars[i] = vs
	}
	for round := 0; round < rounds; round++ {
		changed := false
		for ri, r := range rows {
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
			for _, v := range rowVars[ri] {
				a := r.Coeffs[v]
				if a == 0 {
					continue
				}
				restLo, restHi := 0.0, 0.0
				for _, w := range rowVars[ri] {
					aw := r.Coeffs[w]
					if w == v || aw == 0 {
						continue
					}
					wl := get(lo, w, math.Inf(-1))
					wh := get(hi, w, math.Inf(1))
					if aw > 0 {
						restLo += aw * wl
						restHi += aw * wh
					} else {
						restLo += aw * wh
						restHi += aw * wl
					}
				}
				if hasU && !math.IsInf(restLo, 0) {
					bound := bU - restLo
					if a > 0 {
						nb := bound / a
						if nb < get(hi, v, math.Inf(1))-tol {
							hi[v] = nb
							changed = true
						}
					} else {
						nb := bound / a
						if nb > get(lo, v, math.Inf(-1))+tol {
							lo[v] = nb
							changed = true
						}
					}
				}
				if hasL && !math.IsInf(restHi, 0) {
					bound := bL - restHi
					if a > 0 {
						nb := bound / a
						if nb > get(lo, v, math.Inf(-1))+tol {
							lo[v] = nb
							changed = true
						}
					} else {
						nb := bound / a
						if nb < get(hi, v, math.Inf(1))-tol {
							hi[v] = nb
							changed = true
						}
					}
				}
				if get(lo, v, math.Inf(-1)) > get(hi, v, math.Inf(1))+FeasTol {
					return false, lo, hi
				}
			}
		}
		if !changed {
			return true, lo, hi
		}
	}
	return true, lo, hi
}

// refIISByPropagation and refIIS are the deletion filters as they ran
// over the reference propagator, rebuilding the row set per test.
func refIISByPropagation(p *Problem) []int {
	if ok, _, _ := refPropagateBounds(p.Constraints, p.Lower, p.Upper, propagationRounds); ok {
		return nil
	}
	active := allActive(len(p.Constraints))
	for i := range active {
		active[i] = false
		if ok, _, _ := refPropagateBounds(p.activeRows(active), p.Lower, p.Upper, propagationRounds); ok {
			active[i] = true
		}
	}
	return activeIndices(active)
}

func refIIS(p *Problem) []int {
	ctx := context.Background()
	if ok, _, _ := refPropagateBounds(p.Constraints, p.Lower, p.Upper, propagationRounds); ok && p.SolveContext(ctx).Status != Infeasible {
		return nil
	}
	active := allActive(len(p.Constraints))
	for i := range active {
		active[i] = false
		rows := p.activeRows(active)
		if ok, _, _ := refPropagateBounds(rows, p.Lower, p.Upper, propagationRounds); ok && p.solveRowsContext(ctx, rows).Status != Infeasible {
			active[i] = true
		}
	}
	return activeIndices(active)
}

// randomPropagationProblem draws a small system exercising every shape
// the compiled rows must handle: explicit zero coefficients, negative and
// non-dyadic coefficients (so a changed summation order changes the
// bits), variables with two, one or no bounds, variables that occur only
// in the bound maps, crossing bounds, and LE, GE and EQ rows. The name
// pool is deliberately not in sorted order.
func randomPropagationProblem(rng *rand.Rand) *Problem {
	rowVars := []string{"x3", "a", "m1", "b2", "z", "k"}
	boundOnly := []string{"q", "c0"}
	p := NewProblem()
	for _, v := range append(append([]string{}, rowVars...), boundOnly...) {
		lo := rng.Float64()*20 - 10
		hi := lo + rng.Float64()*15
		if rng.Intn(8) == 0 {
			hi = lo - rng.Float64() // crossing
		}
		switch rng.Intn(4) {
		case 0:
			p.Lower[v], p.Upper[v] = lo, hi
		case 1:
			p.Lower[v] = lo
		case 2:
			p.Upper[v] = hi
		}
	}
	for i := 0; i < 1+rng.Intn(9); i++ {
		coeffs := map[string]float64{}
		for _, v := range rowVars {
			switch rng.Intn(6) {
			case 0:
				coeffs[v] = 0
			case 1, 2:
				coeffs[v] = rng.Float64()*6 - 3
			case 3:
				coeffs[v] = float64(rng.Intn(7) - 3)
			}
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		p.AddConstraint(coeffs, rel, rng.Float64()*30-15)
	}
	if rng.Intn(4) == 0 {
		p.MarkInteger(rowVars[rng.Intn(len(rowVars))])
	}
	return p
}

// TestQuickCompiledPropagationMatchesReference: the compiled rows
// propagate to the same verdict and bit-identical bounds as the reference,
// and the deletion filters and CheckContext return the same subsets as the
// filters built on the reference.
func TestQuickCompiledPropagationMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPropagationProblem(rng)
		s := p.compile()
		want, refLo, refHi := refPropagateBounds(p.Constraints, p.Lower, p.Upper, propagationRounds)
		if got := s.propagate(nil); got != want {
			t.Logf("seed %d: propagate = %v, reference %v", seed, got, want)
			return false
		}
		for j, v := range s.names {
			wl, wh := math.Inf(-1), math.Inf(1)
			if b, ok := refLo[v]; ok {
				wl = b
			}
			if b, ok := refHi[v]; ok {
				wh = b
			}
			if math.Float64bits(s.lo[j]) != math.Float64bits(wl) || math.Float64bits(s.hi[j]) != math.Float64bits(wh) {
				t.Logf("seed %d: %s in [%v, %v], reference [%v, %v]", seed, v, s.lo[j], s.hi[j], wl, wh)
				return false
			}
		}
		if got, want := p.IISByPropagation(), refIISByPropagation(p); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: IISByPropagation = %v, reference %v", seed, got, want)
			return false
		}
		if got, want := p.IIS(), refIIS(p); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: IIS = %v, reference %v", seed, got, want)
			return false
		}
		// CheckContext against the flow it replaced: propagation filter,
		// then a solve, then the guarded IIS.
		res, iis := p.CheckContext(context.Background(), 200)
		var wantRes Result
		wantIIS := refIISByPropagation(p)
		if wantIIS != nil {
			wantRes = Result{Status: Infeasible}
		} else {
			wantRes = p.SolveMIPContext(context.Background(), 200).Result
			if wantRes.Status == Infeasible {
				wantIIS = refIIS(p)
			}
		}
		if res.Status != wantRes.Status || res.Pivots != wantRes.Pivots || !reflect.DeepEqual(res.X, wantRes.X) || !reflect.DeepEqual(iis, wantIIS) {
			t.Logf("seed %d: CheckContext = %v/%d pivots/%v, reference %v/%d pivots/%v",
				seed, res.Status, res.Pivots, iis, wantRes.Status, wantRes.Pivots, wantIIS)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// activeRows and solveRowsContext are the subset solve as it ran before
// the deletion filter solved over compiled rows: a fresh Problem from the
// active rows and the bounds alone.
func (p *Problem) activeRows(active []bool) []Constraint {
	rows := make([]Constraint, 0, len(p.Constraints))
	for i, c := range p.Constraints {
		if active[i] {
			rows = append(rows, c)
		}
	}
	return rows
}

func (p *Problem) solveRowsContext(ctx context.Context, rows []Constraint) Result {
	q := NewProblem()
	q.Constraints = rows
	q.Lower = p.Lower
	q.Upper = p.Upper
	q.MaxIter = p.MaxIter
	return q.SolveContext(ctx)
}
