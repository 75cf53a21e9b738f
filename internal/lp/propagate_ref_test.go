package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
			wantRes = p.SolveMIPContext(context.Background(), 200)
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
	return q.SolveContext(ctx)
}

// randomFischerProblem draws a system shaped like the linear checks of the
// Fischer benchmarks: mostly unit rows over clocks and integer-marked
// program counters, difference rows chaining clocks, and strict rows
// relaxed by Epsilon. Some strict rows close a cycle over bounded clocks,
// so propagation tightens the cycle by a few Epsilon per sweep and runs to
// about propagationRounds before it refutes, or stops at the limit without
// refuting. Variable names sort in a different order than they are made.
func randomFischerProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	clocks := make([]string, 3+rng.Intn(4))
	for i := range clocks {
		clocks[i] = fmt.Sprintf("x_%d", 12-3*i)
	}
	pcs := []string{"pc_b", "pc_a"}
	// width is the clocks' upper bound: a cycle over them creeps for
	// about width/(k·Epsilon) sweeps, straddling propagationRounds.
	width := float64(20+rng.Intn(400)) * Epsilon
	if rng.Intn(3) == 0 {
		width = float64(1 + rng.Intn(4))
	}
	for _, v := range clocks {
		switch rng.Intn(5) {
		case 0:
		case 1:
			p.Lower[v] = 0
		default:
			p.Lower[v], p.Upper[v] = 0, width
		}
	}
	for _, v := range pcs {
		p.MarkInteger(v)
		p.Lower[v], p.Upper[v] = 0, 3
	}
	rels := []Rel{LE, GE, EQ}
	// constant is a point of the clocks' range, possibly moved by Epsilon
	// as a strict row's relaxation moves it.
	constant := func() float64 {
		c := float64(rng.Intn(4)) * width / 3
		switch rng.Intn(4) {
		case 0:
			c -= Epsilon
		case 1:
			c += Epsilon
		}
		return c
	}
	for len(p.Constraints) < 4+rng.Intn(12) {
		x, y := clocks[rng.Intn(len(clocks))], clocks[rng.Intn(len(clocks))]
		switch k := rng.Intn(20); {
		case k < 7: // clock bound, mostly inside the range
			switch c := constant(); rng.Intn(6) {
			case 0:
				p.AddConstraint(map[string]float64{x: 1}, EQ, c)
			case 1, 2:
				p.AddConstraint(map[string]float64{x: 1}, GE, c-width/3)
			default:
				p.AddConstraint(map[string]float64{x: 1}, LE, c+width/3)
			}
		case k < 9: // program counter, with a unit step for a strict row
			pc := pcs[rng.Intn(2)]
			c := float64(rng.Intn(4))
			if rng.Intn(2) == 0 {
				p.AddConstraint(map[string]float64{pc: 1}, EQ, c)
			} else {
				p.AddConstraint(map[string]float64{pc: 1}, rels[rng.Intn(2)], c-1)
			}
		case k < 13: // difference
			if x != y {
				p.AddConstraint(map[string]float64{x: 1, y: -1}, rels[rng.Intn(3)], constant()-width/2)
			}
		case k < 17: // strict cycle through two or three clocks
			n := 2 + rng.Intn(2)
			start := rng.Intn(len(clocks))
			for i := 0; i < n; i++ {
				a, b := clocks[(start+i)%len(clocks)], clocks[(start+i+1)%len(clocks)]
				p.AddConstraint(map[string]float64{a: 1, b: -1}, LE, -Epsilon*float64(1+rng.Intn(2)))
			}
		case k < 19: // a clock reset against a program counter
			p.AddConstraint(map[string]float64{x: 1, pcs[rng.Intn(2)]: -1}, rels[rng.Intn(3)], constant())
		default: // a sum of clocks, with a zero term
			z := clocks[rng.Intn(len(clocks))]
			p.AddConstraint(map[string]float64{x: 1, y: 1, z: 0}, rels[rng.Intn(3)], 2*constant())
		}
	}
	return p
}

// referenceMismatch compares the compiled propagation, both deletion
// filters and CheckContext on p with their references, as
// TestQuickCompiledPropagationMatchesReference does, and describes the
// first difference ("" when there is none).
func referenceMismatch(p *Problem) string {
	s := p.compile()
	want, refLo, refHi := refPropagateBounds(p.Constraints, p.Lower, p.Upper, propagationRounds)
	if got := s.propagate(nil); got != want {
		return fmt.Sprintf("propagate = %v, reference %v", got, want)
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
			return fmt.Sprintf("%s in [%v, %v], reference [%v, %v]", v, s.lo[j], s.hi[j], wl, wh)
		}
	}
	wantProp := refIISByPropagation(p)
	if got := p.IISByPropagation(); !reflect.DeepEqual(got, wantProp) {
		return fmt.Sprintf("IISByPropagation = %v, reference %v", got, wantProp)
	}
	// The reason-cone skip alone, without the final check that would
	// fall back to testing every row.
	var tr trail
	if !s.propagateTrail(nil, &tr) {
		if got := activeIndices(s.propagationFilter(&tr)); !reflect.DeepEqual(got, wantProp) {
			return fmt.Sprintf("propagationFilter = %v, reference %v", got, wantProp)
		}
	}
	if got, want := p.IIS(), refIIS(p); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("IIS = %v, reference %v", got, want)
	}
	res, iis := p.CheckContext(context.Background(), 200)
	var wantRes Result
	wantIIS := wantProp
	if wantIIS != nil {
		wantRes = Result{Status: Infeasible}
	} else {
		wantRes = p.SolveMIPContext(context.Background(), 200)
		if wantRes.Status == Infeasible {
			wantIIS = refIIS(p)
		}
	}
	if res.Status != wantRes.Status || res.Pivots != wantRes.Pivots || !reflect.DeepEqual(res.X, wantRes.X) || !reflect.DeepEqual(iis, wantIIS) {
		return fmt.Sprintf("CheckContext = %v/%d pivots/%v, reference %v/%d pivots/%v",
			res.Status, res.Pivots, iis, wantRes.Status, wantRes.Pivots, wantIIS)
	}
	return ""
}

// TestQuickFischerShapedMatchesReference runs the reference comparison on
// Fischer-shaped systems, where the propagation filter's reason-cone skip
// does most of its work, and checks that the draws reach that skip, runs
// whose cone is not exact, and propagation stopped by propagationRounds.
func TestQuickFischerShapedMatchesReference(t *testing.T) {
	var skipped, inexact, late, roundLimited int
	f := func(seed int64) bool {
		p := randomFischerProblem(rand.New(rand.NewSource(seed)))
		if msg := referenceMismatch(p); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		s := p.compile()
		var tr trail
		if s.propagateTrail(nil, &tr) {
			if ok, _, _ := refPropagateBounds(p.Constraints, p.Lower, p.Upper, 20*propagationRounds); !ok {
				roundLimited++
			}
			return true
		}
		if ok, _, _ := refPropagateBounds(p.Constraints, p.Lower, p.Upper, propagationRounds/2); ok {
			late++
		}
		if !tr.cone(s.NumRows()) {
			inexact++
		} else if slices.Contains(tr.inCone, false) {
			skipped++
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("refutations: %d with rows outside an exact cone, %d inexact, %d after half the rounds; %d stopped by the round limit", skipped, inexact, late, roundLimited)
	if skipped == 0 || inexact == 0 || late == 0 || roundLimited == 0 {
		t.Fatal("the draws no longer reach every path of the propagation filter")
	}
}

// FuzzPropagationIIS decodes a small system from the fuzzer's bytes and
// compares propagation, both deletion filters and CheckContext with their
// references (referenceMismatch).
func FuzzPropagationIIS(f *testing.F) {
	f.Add([]byte{1, 1, 2, 0, 0x01, 0, 4, 0x12, 1, 5})
	f.Add([]byte{2, 2, 2, 2, 0x10, 0, 6, 0x21, 0, 6, 0x02, 0, 6, 0x03, 1, 1})
	f.Add([]byte{3, 0, 5, 1, 0x0c, 2, 3, 0x1d, 1, 2, 0x33, 0, 0, 0x80, 2, 7, 0x91, 1, 8})
	f.Add([]byte{6, 6, 4, 3, 0x05, 0, 1, 0x42, 2, 9, 0x10, 1, 10, 0x23, 0, 11, 0xc0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeSystem(data)
		if msg := referenceMismatch(p); msg != "" {
			t.Fatalf("%s\nrows %v\nbounds %v %v, integer %v", msg, p.Constraints, p.Lower, p.Upper, p.Integer)
		}
	})
}

// decodeSystem reads a system over four variables from data: one byte of
// bounds per variable, then up to twelve rows of three bytes (shape and
// variables, relation and coefficient, right-hand side). The values come
// from small tables of integers, halves, thirds and Epsilon multiples,
// the constants of the engine's strict-row relaxations.
func decodeSystem(data []byte) *Problem {
	vars := []string{"d", "b", "c", "a"}
	bounds := [][2]float64{
		{math.Inf(-1), math.Inf(1)}, {0, 1}, {0, 20 * Epsilon}, {-1, 1},
		{0, math.Inf(1)}, {math.Inf(-1), 2}, {0, 3}, {1, 0.5},
	}
	consts := []float64{0, 1, -1, 2, Epsilon, -Epsilon, -2 * Epsilon, 0.5,
		1.0 / 3, 10 * Epsilon, 1 - Epsilon, -1 - Epsilon, 3, -0.5, 20 * Epsilon, 2 + Epsilon}
	coeffs := []float64{1, -1, 2, 0.5, -3, 1.0 / 3, 0, 1}
	p := NewProblem()
	for i, v := range vars {
		if i >= len(data) {
			break
		}
		b := bounds[data[i]%byte(len(bounds))]
		p.SetBounds(v, b[0], b[1])
		if data[i]&0x80 != 0 {
			p.MarkInteger(v)
		}
	}
	for k := len(vars); k+2 < len(data) && len(p.Constraints) < 12; k += 3 {
		shape, rc, rhs := data[k], data[k+1], data[k+2]
		x, y, z := vars[shape&3], vars[shape>>2&3], vars[shape>>4&3]
		row := map[string]float64{x: coeffs[rc>>2&7]}
		switch shape >> 6 {
		case 1: // difference
			row[y] = -1
		case 2: // sum
			row[y] = 1
			row[z] = coeffs[rc>>5&7]
		case 3: // difference with a zero term
			row[y] = -1
			row[z] = 0
		}
		p.AddConstraint(row, Rel(rc%3), consts[rhs%byte(len(consts))])
	}
	return p
}
