// Package polyar implements parallel convex abstraction refinement for
// conjunctions of nonlinear arithmetic atoms, after "PolyAR: A Highly
// Parallelizable Solver For Polynomial Inequality Constraints Using Convex
// Abstraction Refinement" (2021). The variable box is partitioned into a
// region tree; each region gets a sound linear relaxation of every atom
// (McCormick envelopes for bilinear terms, secant/tangent bounds for
// univariate convex/concave terms) discharged through internal/lp's
// simplex. An LP-infeasible region contains no solution and is pruned; an
// LP point that satisfies the original atoms is a SAT witness; anything
// else is bisected along the widest-relative-width variable and refined.
//
// The relaxation is compiled once per Solve: a child region has the same
// atoms and the same expression DAG as its parent, and only the box
// changes, so only the bounds and the envelope coefficients are refilled
// per region, straight into lp's compiled row form.
//
// Soundness invariant (pinned by FuzzPolyARRegion): every point inside a
// region's box that satisfies the original atoms extends — by assigning
// each auxiliary variable the exact value of the subterm it names — to a
// feasible point of that region's LP. Pruning on LP infeasibility is
// therefore sound, and an exhaustive refinement that prunes every region
// is a proof of infeasibility over the initial box.
package polyar

import (
	"math"
	"sort"
	"strconv"

	"absolver/internal/expr"
	"absolver/internal/interval"
	"absolver/internal/lp"
)

// auxPrefix namespaces relaxation variables away from problem variables
// (parsers reject "·" in identifiers, so collisions are impossible).
const auxPrefix = "·aux"

// coefCap drops envelope rows whose coefficients would destabilise the
// simplex (tangents of exp at large arguments and the like). The aux
// variable keeps its interval-range bounds, so dropping a row only
// loosens the relaxation — it never breaks soundness.
const coefCap = 1e12

// form is a linear expression Σ terms + c over slots (problem and
// auxiliary variables), its terms in slot order. A term may hold a zero
// coefficient: the variable is named but cancelled, and the form is not
// constant. Relaxation keeps forms exact under the canonical extension:
// with every aux variable set to its subterm's true value, a form
// evaluates to exactly the value of the node it stands for.
type form struct {
	terms []lp.Term
	c     float64
}

func (f form) isConst() bool { return len(f.terms) == 0 }

// arena hands out term storage for the forms of one region (or of one
// compilation); reset reuses it.
type arena struct{ buf []lp.Term }

func (a *arena) reset() { a.buf = a.buf[:0] }

// take returns room for n terms, length 0.
func (a *arena) take(n int) []lp.Term {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]lp.Term, 0, max(2*cap(a.buf), n, 64))
	}
	s := a.buf[len(a.buf) : len(a.buf) : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

// scale returns k·f.
func (a *arena) scale(f form, k float64) form {
	out := a.take(len(f.terms))
	for _, t := range f.terms {
		out = append(out, lp.Term{Var: t.Var, Coeff: k * t.Coeff})
	}
	return form{terms: out, c: k * f.c}
}

// addScaled returns f + k·o, each shared coefficient computed as
// f's + k·o's.
func (a *arena) addScaled(f, o form, k float64) form {
	out := a.take(len(f.terms) + len(o.terms))
	i, j := 0, 0
	for i < len(f.terms) || j < len(o.terms) {
		switch {
		case j == len(o.terms) || (i < len(f.terms) && f.terms[i].Var < o.terms[j].Var):
			out = append(out, f.terms[i])
			i++
		case i == len(f.terms) || o.terms[j].Var < f.terms[i].Var:
			out = append(out, lp.Term{Var: o.terms[j].Var, Coeff: k * o.terms[j].Coeff})
			j++
		default:
			out = append(out, lp.Term{Var: f.terms[i].Var, Coeff: f.terms[i].Coeff + k*o.terms[j].Coeff})
			i++
			j++
		}
	}
	return form{terms: out, c: f.c + k*o.c}
}

// nodeOp is how one relaxed subterm gets its interval and its rows.
type nodeOp uint8

const (
	opConst    nodeOp = iota // a constant
	opVar                    // a problem variable
	opNeg                    // −l
	opAdd                    // l + r
	opSub                    // l − r
	opScaleMul               // l·r with one side constant: no aux
	opScaleDiv               // l / r with r a nonzero constant: no aux
	opSquare                 // aux u = l²: tangents below, secant above
	opBilinear               // aux u = l·r: McCormick
	opDiv                    // aux u = l/r: McCormick on u·r = l
	opExp                    // aux u = exp(l): convex envelope
	opLog                    // aux u = log(l): concave envelope on l > 0
	opSqrt                   // aux u = sqrt(l): concave envelope on l ≥ 0
	opAbs                    // aux u = |l|
	opRange                  // aux bounded by the subterm's interval alone
	opAtom                   // an atom's row over l's form
)

// node is one step of the compiled relaxation: the tape lists the
// subterms in the order the relaxation visits them (operands first), and
// the atom rows right after their atom's subterms.
type node struct {
	op   nodeOp
	e    expr.Expr // the subterm (opRange's interval)
	l, r int       // operand nodes
	v    int       // opVar: index into relaxation.vars; aux ops: the aux slot
	c    float64   // opConst: the value
	rel  lp.Rel    // opAtom
	tag  int       // opAtom: the atom's index
	// f is the node's linear form, fixed for the whole Solve: operators
	// combine their operands' forms, and every envelope stands for itself
	// through its aux variable.
	f form
}

// auxDef records which subterm an auxiliary variable stands for, so the
// canonical extension (and the fuzz harness) can recompute its value.
type auxDef struct {
	name string
	e    expr.Expr
	slot int
}

// relaxation is an atom conjunction's LP abstraction compiled once per
// Solve. Slots number the problem variables and the aux variables
// together in name order, which is lp's column order.
type relaxation struct {
	names   []string // slot → variable name
	vars    []string // problem variables, sorted
	varSlot []int    // vars index → slot
	aux     []auxDef
	nodes   []node
}

// compiler builds a relaxation's tape. During the walk, forms are keyed
// by ids: problem variable i is id i, aux k is id len(vars)+k; slots
// replace ids once every aux is known.
type compiler struct {
	rx    *relaxation
	index map[string]int
	a     arena
}

// compileRelaxation compiles atoms over the problem variables vars (sorted,
// covering every atom variable): one relaxed row per atom (strict
// comparisons relaxed to weak — a sound superset; disequalities skipped
// entirely and enforced only at witness verification), plus the envelope
// rows of every nonlinear subterm.
func compileRelaxation(atoms []expr.Atom, vars []string) *relaxation {
	rx := &relaxation{vars: vars}
	c := &compiler{rx: rx, index: make(map[string]int, len(vars))}
	for i, v := range vars {
		c.index[v] = i
	}
	for i, a := range atoms {
		if a.Op == expr.CmpNE {
			continue
		}
		root := c.relax(a.Diff())
		atom := node{op: opAtom, l: root, r: -1, tag: i}
		switch a.Op {
		case expr.CmpLT, expr.CmpLE:
			atom.rel = lp.LE
		case expr.CmpGT, expr.CmpGE:
			atom.rel = lp.GE
		case expr.CmpEQ:
			atom.rel = lp.EQ
		default:
			continue
		}
		rx.nodes = append(rx.nodes, atom)
	}

	// Slots: every name in sorted order.
	n := len(vars) + len(rx.aux)
	rx.names = make([]string, 0, n)
	rx.names = append(rx.names, vars...)
	for _, a := range rx.aux {
		rx.names = append(rx.names, a.name)
	}
	order := make([]int, n) // slot → id
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return rx.names[order[x]] < rx.names[order[y]] })
	slotOf := make([]int, n)
	names := make([]string, n)
	for slot, id := range order {
		slotOf[id] = slot
		names[slot] = rx.names[id]
	}
	rx.names = names
	rx.varSlot = slotOf[:len(vars)]
	for k := range rx.aux {
		rx.aux[k].slot = slotOf[len(vars)+k]
	}
	for i := range rx.nodes {
		nd := &rx.nodes[i]
		if nd.op >= opSquare && nd.op <= opRange {
			nd.v = slotOf[nd.v]
		}
		for j := range nd.f.terms {
			nd.f.terms[j].Var = slotOf[nd.f.terms[j].Var]
		}
		sort.Slice(nd.f.terms, func(x, y int) bool { return nd.f.terms[x].Var < nd.f.terms[y].Var })
	}
	return rx
}

func (c *compiler) push(nd node) int {
	c.rx.nodes = append(c.rx.nodes, nd)
	return len(c.rx.nodes) - 1
}

func (c *compiler) form(i int) form { return c.rx.nodes[i].f }

// newAux introduces an auxiliary variable standing for subterm e and the
// node that refills its bounds and envelope rows per region.
func (c *compiler) newAux(op nodeOp, e expr.Expr, l, r int) int {
	id := len(c.rx.vars) + len(c.rx.aux)
	c.rx.aux = append(c.rx.aux, auxDef{name: auxPrefix + strconv.Itoa(len(c.rx.aux)), e: e})
	t := c.a.take(1)
	t = append(t, lp.Term{Var: id, Coeff: 1})
	return c.push(node{op: op, e: e, l: l, r: r, v: id, f: form{terms: t}})
}

// relax compiles e, operands first, and returns its node.
func (c *compiler) relax(e expr.Expr) int {
	switch n := e.(type) {
	case expr.Const:
		return c.push(node{op: opConst, l: -1, r: -1, c: n.V, f: form{c: n.V}})
	case expr.Var:
		t := c.a.take(1)
		t = append(t, lp.Term{Var: c.index[n.Name], Coeff: 1})
		return c.push(node{op: opVar, l: -1, r: -1, v: c.index[n.Name], f: form{terms: t}})
	case expr.Neg:
		l := c.relax(n.X)
		return c.push(node{op: opNeg, l: l, r: -1, f: c.a.scale(c.form(l), -1)})
	case expr.Bin:
		return c.relaxBin(n)
	case expr.Call:
		return c.relaxCall(n)
	}
	// Unknown node kind: abstract with a free aux variable (sound, loose).
	return c.newAux(opRange, e, -1, -1)
}

func (c *compiler) relaxBin(b expr.Bin) int {
	l := c.relax(b.L)
	fl := c.form(l)
	switch b.Op {
	case expr.OpAdd, expr.OpSub:
		r := c.relax(b.R)
		op, k := opAdd, 1.0
		if b.Op == expr.OpSub {
			op, k = opSub, -1
		}
		return c.push(node{op: op, l: l, r: r, f: c.a.addScaled(fl, c.form(r), k)})
	case expr.OpMul:
		if expr.Equal(b.L, b.R) {
			// x² — the square case Bin.Interval also special-cases.
			return c.newAux(opSquare, b, l, -1)
		}
		r := c.relax(b.R)
		fr := c.form(r)
		if fl.isConst() {
			return c.push(node{op: opScaleMul, l: l, r: r, f: c.a.scale(fr, fl.c)})
		}
		if fr.isConst() {
			return c.push(node{op: opScaleMul, l: l, r: r, f: c.a.scale(fl, fr.c)})
		}
		return c.newAux(opBilinear, b, l, r)
	case expr.OpDiv:
		r := c.relax(b.R)
		if fr := c.form(r); fr.isConst() && fr.c != 0 {
			return c.push(node{op: opScaleDiv, l: l, r: r, f: c.a.scale(fl, 1/fr.c)})
		}
		return c.newAux(opDiv, b, l, r)
	}
	return c.newAux(opRange, b, l, -1)
}

func (c *compiler) relaxCall(call expr.Call) int {
	l := c.relax(call.Arg)
	switch call.Fn {
	case expr.FuncExp:
		return c.newAux(opExp, call, l, -1)
	case expr.FuncLog:
		return c.newAux(opLog, call, l, -1)
	case expr.FuncSqrt:
		return c.newAux(opSqrt, call, l, -1)
	case expr.FuncAbs:
		return c.newAux(opAbs, call, l, -1)
	}
	// Periodic (sin, cos) and anything else: interval-range bounds only;
	// bisection tightens them.
	return c.newAux(opRange, call, l, -1)
}

// region is one worker's buffers for refilling the relaxation over a
// region box and solving its LP; a worker reuses them region after region.
type region struct {
	rows  lp.Rows
	lp    lp.Simplex
	ivs   []interval.Interval // per node
	a     arena
	terms []lp.Term // the row being emitted
}

// fill refills rx's bounds and rows over box into g.rows.
func (g *region) fill(rx *relaxation, box expr.Box) {
	g.rows.Reset(len(rx.names))
	g.a.reset()
	for i, v := range rx.vars {
		if iv, ok := box[v]; ok {
			g.rows.SetBounds(rx.varSlot[i], iv.Lo, iv.Hi)
		}
	}
	if cap(g.ivs) < len(rx.nodes) {
		g.ivs = make([]interval.Interval, len(rx.nodes))
	}
	g.ivs = g.ivs[:len(rx.nodes)]
	for i := range rx.nodes {
		g.ivs[i] = g.step(&rx.nodes[i], rx, box)
	}
}

// step refills one node: its interval over the region, its aux bounds and
// its rows.
func (g *region) step(nd *node, rx *relaxation, box expr.Box) interval.Interval {
	var il, ir interval.Interval
	var fl, fr form
	if nd.l >= 0 {
		il, fl = g.ivs[nd.l], rx.nodes[nd.l].f
	}
	if nd.r >= 0 {
		ir, fr = g.ivs[nd.r], rx.nodes[nd.r].f
	}
	switch nd.op {
	case opConst:
		return interval.Point(nd.c)
	case opVar:
		if iv, ok := box[rx.vars[nd.v]]; ok {
			return iv
		}
		return interval.Whole()
	case opNeg:
		return il.Neg()
	case opAdd:
		return il.Add(ir)
	case opSub:
		return il.Sub(ir)
	case opScaleMul:
		return il.Mul(ir)
	case opScaleDiv:
		return il.Div(ir)
	case opAtom:
		g.addRel(fl, nd.rel, 0, nd.tag)
		return interval.Interval{}
	}

	u := nd.f
	var rng interval.Interval
	switch nd.op {
	case opSquare:
		rng = il.Sqr()
		g.square(u, fl, il)
	case opBilinear:
		rng = il.Mul(ir)
		g.mcCormick(u, fl, il, fr, ir)
	case opDiv:
		// McCormick on the product identity u·r = l, with u ranging over
		// the interval quotient. At any true point r is nonzero and u·r
		// equals l exactly, so the rows hold under the canonical
		// extension even when the region straddles r = 0.
		rng = il.Div(ir)
		if rng.IsEmpty() {
			// Division defined nowhere in the region (r ≡ 0): keep the
			// aux free; the interval-truth prepass handles the
			// contradiction.
			rng = interval.Whole()
		}
		g.mcCormick(fl, u, rng, fr, ir)
	case opExp:
		rng = il.Exp()
		g.convex(u, fl, il, math.Exp, math.Exp)
	case opLog:
		rng = il.Log()
		// Empty or tiny argument range: range-only aux.
		if pos := il.Intersect(interval.Interval{Lo: math.SmallestNonzeroFloat64, Hi: math.Inf(1)}); !pos.IsEmpty() {
			g.concave(u, fl, pos, math.Log, func(t float64) float64 { return 1 / t })
		}
	case opSqrt:
		rng = il.Sqrt()
		if nn := il.Intersect(interval.Interval{Lo: 0, Hi: math.Inf(1)}); !nn.IsEmpty() && nn.Hi > 0 {
			g.concave(u, fl, nn, math.Sqrt, func(t float64) float64 {
				if t <= 0 {
					return math.Inf(1) // dropped by addRel
				}
				return 1 / (2 * math.Sqrt(t))
			})
		}
	case opAbs:
		rng = il.Abs()
		g.abs(u, fl, il)
	case opRange:
		rng = nd.e.Interval(box)
	}
	// The aux is bounded by its interval range over the region
	// (unbounded sides stay free).
	lo, hi := math.Inf(-1), math.Inf(1)
	if !math.IsInf(rng.Lo, 0) {
		lo = rng.Lo
	}
	if !math.IsInf(rng.Hi, 0) {
		hi = rng.Hi
	}
	g.rows.SetBounds(nd.v, lo, hi)
	return rng
}

// addRel emits f rel rhs as an LP row tagged tag (source-atom index, or
// -1 for envelope rows). Rows with non-finite or oversized numbers are
// silently dropped: the aux interval bounds already cover the term, so a
// skipped envelope row only loosens the relaxation.
func (g *region) addRel(f form, rel lp.Rel, rhs float64, tag int) {
	b := rhs - f.c
	if !finiteSmall(b) {
		return
	}
	g.terms = g.terms[:0]
	for _, t := range f.terms {
		if !finiteSmall(t.Coeff) {
			return
		}
		if t.Coeff != 0 {
			g.terms = append(g.terms, t)
		}
	}
	g.rows.AddRow(g.terms, rel, b, tag)
}

func finiteSmall(v float64) bool {
	return !math.IsInf(v, 0) && !math.IsNaN(v) && math.Abs(v) <= coefCap
}

// le emits the envelope row lhs ≤ rhs over two forms.
func (g *region) le(lhs, rhs form) {
	g.addRel(g.a.addScaled(lhs, rhs, -1), lp.LE, 0, -1)
}

// square envelopes u = x² for x ∈ [lo,hi] (form fx): tangents 2t·x − t²
// from below (valid everywhere, x² is convex) and the secant
// (lo+hi)·x − lo·hi from above (valid on [lo,hi]).
func (g *region) square(u, fx form, ix interval.Interval) {
	ts, n := tangentPoints(ix)
	for _, t := range ts[:n] {
		// u ≥ 2t·x − t²
		tan := g.a.scale(fx, 2*t)
		tan.c -= t * t
		g.le(tan, u)
	}
	if isFinite(ix) {
		sec := g.a.scale(fx, ix.Lo+ix.Hi)
		sec.c -= ix.Lo * ix.Hi
		g.le(u, sec)
	}
}

// mcCormick emits the four envelope rows tying product form fp to its
// factors fa ∈ ia, fb ∈ ib. Valid for any point with fa, fb inside their
// intervals and fp equal to their product; each row is emitted only when
// the bounds it references are finite.
func (g *region) mcCormick(fp, fa form, ia interval.Interval, fb form, ib interval.Interval) {
	al, ah, bl, bh := ia.Lo, ia.Hi, ib.Lo, ib.Hi
	// bound returns cb·fa + ca·fb − ca·cb.
	bound := func(ca, cb float64) form {
		f := g.a.addScaled(g.a.scale(fa, cb), fb, ca)
		f.c -= ca * cb
		return f
	}
	if finiteSmall(al) && finiteSmall(bl) {
		g.le(bound(al, bl), fp)
	}
	if finiteSmall(ah) && finiteSmall(bh) {
		g.le(bound(ah, bh), fp)
	}
	if finiteSmall(al) && finiteSmall(bh) {
		g.le(fp, bound(al, bh))
	}
	if finiteSmall(ah) && finiteSmall(bl) {
		g.le(fp, bound(ah, bl))
	}
}

// convex envelopes u = fn(x) for convex fn: tangents below (valid
// everywhere), secant above (valid on the finite range).
func (g *region) convex(u, fx form, ix interval.Interval, fn, deriv func(float64) float64) {
	ts, n := tangentPoints(ix)
	for _, t := range ts[:n] {
		// u ≥ fn(t) + fn'(t)·(x − t)
		g.le(g.tangent(fx, t, fn, deriv), u)
	}
	if sec, ok := g.secant(fx, ix, fn); ok {
		g.le(u, sec)
	}
}

// concave mirrors convex for concave fn: tangents above, secant below.
// Tangent points are drawn from dom (the part of the argument range where
// fn and its derivative are defined).
func (g *region) concave(u, fx form, dom interval.Interval, fn, deriv func(float64) float64) {
	ts, n := tangentPoints(dom)
	for _, t := range ts[:n] {
		g.le(u, g.tangent(fx, t, fn, deriv))
	}
	if sec, ok := g.secant(fx, dom, fn); ok {
		g.le(sec, u)
	}
}

// tangent returns fn(t) + fn'(t)·(x − t) as a form in x.
func (g *region) tangent(fx form, t float64, fn, deriv func(float64) float64) form {
	tan := g.a.scale(fx, deriv(t))
	tan.c += fn(t) - deriv(t)*t
	return tan
}

// abs envelopes u = |x|: u ≥ x, u ≥ −x always, chord above on a finite
// range.
func (g *region) abs(u, fx form, ix interval.Interval) {
	g.le(fx, u)
	g.le(g.a.scale(fx, -1), u)
	if sec, ok := g.secant(fx, ix, math.Abs); ok {
		g.le(u, sec)
	}
}

// secant returns the chord of fn over [iv.Lo, iv.Hi] as a form in x, or
// false when the range is unbounded or degenerate.
func (g *region) secant(fx form, iv interval.Interval, fn func(float64) float64) (form, bool) {
	if !isFinite(iv) || iv.Hi <= iv.Lo {
		return form{}, false
	}
	s := (fn(iv.Hi) - fn(iv.Lo)) / (iv.Hi - iv.Lo)
	f := g.a.scale(fx, s)
	f.c += fn(iv.Lo) - s*iv.Lo
	return f, true
}

// tangentPoints picks up to three distinct finite support points across
// the range: its ends, then its midpoint (0 for an empty range).
func tangentPoints(iv interval.Interval) ([3]float64, int) {
	var ts [3]float64
	n := 0
	push := func(t float64) {
		if !finiteSmall(t) {
			return
		}
		for _, seen := range ts[:n] {
			if seen == t {
				return
			}
		}
		ts[n] = t
		n++
	}
	push(iv.Lo)
	push(iv.Hi)
	if !iv.IsEmpty() {
		push(iv.Mid())
	} else {
		push(0)
	}
	return ts, n
}

func isFinite(iv interval.Interval) bool {
	return finiteSmall(iv.Lo) && finiteSmall(iv.Hi)
}

// extend computes the canonical extension of env by slot: the problem
// variables' values, and every auxiliary variable set to the exact value
// of the subterm it stands for. Used by the soundness fuzz harness;
// returns an error when a subterm is undefined at env (domain error), in
// which case env satisfies no atom mentioning it either.
func (rx *relaxation) extend(env expr.Env) ([]float64, error) {
	full := make([]float64, len(rx.names))
	for i, v := range rx.vars {
		full[rx.varSlot[i]] = env[v]
	}
	for _, a := range rx.aux {
		v, err := a.e.Eval(env)
		if err != nil {
			return nil, err
		}
		full[a.slot] = v
	}
	return full, nil
}
