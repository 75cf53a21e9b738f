package mc

import (
	"fmt"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/lustre"
)

// unroller is the lowering's session emitter: it encodes a stateful Lustre
// node into timestep-indexed AB-problems over one core.Session. Each
// instant t gets its own copy of every flow: Boolean flows become session
// literals defined by Tseitin clauses, numeric flows become arithmetic
// variables name@t pinned by an asserted defining equality. The lowering
// connects adjacent copies through pre and ->; at instant 0 this emitter
// supplies
//
//	pre e  at t=0  →  a free variable (the unknown pre-window state), forced
//	                  to 0/false when vInit is assumed
//	a -> b at t=0  →  if vInit then a else b
//
// vInit is a free assumption literal meaning "instant 0 of this unrolling
// is the initial instant of the execution". BMC base cases assume it;
// k-induction step cases leave it free, so their windows may start anywhere
// — including at 0, which keeps the step check a strict generalisation.
//
// All clauses of step t are asserted inside the frame pushed for depth t;
// bindings and the frames are monotone for the lifetime of a Check call.
type unroller struct {
	*lustre.Lowering[int]
	sess   *core.Session
	bounds map[string][2]float64

	vInit   int
	litTrue int
	auxSeq  int
}

func newUnroller(sess *core.Session, tab *lustre.Table, bounds map[string][2]float64) (*unroller, error) {
	ur := &unroller{sess: sess, bounds: bounds}
	ur.Lowering = lustre.NewLowering[int](tab, ur)
	// Base-level bookkeeping literals, allocated before any frame exists so
	// they are permanent.
	ur.vInit = sess.NewVar()
	ur.litTrue = sess.NewVar()
	if err := sess.AssertClause(ur.litTrue); err != nil {
		return nil, err
	}
	return ur, nil
}

func stepVar(name string, t int) string { return fmt.Sprintf("%s@%d", name, t) }

func (ur *unroller) Const(v bool) int {
	if v {
		return ur.litTrue
	}
	return -ur.litTrue
}

func (ur *unroller) Not(l int) int { return -l }

// Gate Tseitin-encodes g ↔ (a op b) and returns g.
func (ur *unroller) Gate(op string, a, b int) (int, error) {
	g := ur.sess.NewVar()
	var clauses [][]int
	switch op {
	case "and":
		clauses = [][]int{{-g, a}, {-g, b}, {g, -a, -b}}
	case "or":
		clauses = [][]int{{g, -a}, {g, -b}, {-g, a, b}}
	case "xor":
		clauses = [][]int{{-g, a, b}, {-g, -a, -b}, {g, -a, b}, {g, a, -b}}
	default: // "=>"
		clauses = [][]int{{g, a}, {g, -b}, {-g, -a, b}}
	}
	return g, ur.assert(clauses)
}

// Ite Tseitin-encodes g ↔ if c then a else b and returns g.
func (ur *unroller) Ite(c, a, b int) (int, error) {
	g := ur.sess.NewVar()
	return g, ur.assert([][]int{{-g, -c, a}, {-g, c, b}, {g, -c, -a}, {g, c, -b}})
}

func (ur *unroller) assert(clauses [][]int) error {
	for _, cl := range clauses {
		if err := ur.sess.AssertClause(cl...); err != nil {
			return err
		}
	}
	return nil
}

func (ur *unroller) Atom(a expr.Atom) (int, error) { return ur.sess.Bind(a) }

func (ur *unroller) BoolInput(string, int) int { return ur.sess.NewVar() }

// NumInput returns the variable name@t, within the input's bounds.
func (ur *unroller) NumInput(name string, t int) (expr.Expr, error) {
	vn := stepVar(name, t)
	ty, _ := ur.Type(name)
	v := ur.Var(vn, ty == lustre.TInt)
	if b, ok := ur.bounds[name]; ok {
		if err := ur.sess.SetBounds(vn, b[0], b[1]); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// NumFlow returns the variable name@t and asserts name@t = e.
func (ur *unroller) NumFlow(name string, t int, e expr.Expr) (expr.Expr, error) {
	ty, _ := ur.Type(name)
	v := ur.Var(stepVar(name, t), ty == lustre.TInt)
	if _, err := ur.sess.Assert(expr.NewAtom(v, expr.CmpEQ, e, ur.Domain(v, e))); err != nil {
		return nil, err
	}
	return v, nil
}

// NumIte introduces an auxiliary variable v with the guarded definition
// (c → v = a) ∧ (¬c → v = b).
func (ur *unroller) NumIte(c int, a, b expr.Expr, dom expr.Domain, t int) (expr.Expr, error) {
	ur.auxSeq++
	v := ur.Var(fmt.Sprintf("ite$%d@%d", ur.auxSeq, t), dom == expr.Int)
	la, err := ur.sess.Bind(expr.NewAtom(v, expr.CmpEQ, a, dom))
	if err != nil {
		return nil, err
	}
	lb, err := ur.sess.Bind(expr.NewAtom(v, expr.CmpEQ, b, dom))
	if err != nil {
		return nil, err
	}
	return v, ur.assert([][]int{{-c, la}, {c, lb}})
}

func (ur *unroller) Init() (int, error) { return ur.vInit, nil }

// PreBool is a free literal, pinned to the evaluator's initial pre-value
// false under vInit so base-case traces replay exactly.
func (ur *unroller) PreBool() (int, error) {
	l := ur.sess.NewVar()
	return l, ur.sess.AssertClause(-ur.vInit, -l)
}

// PreNum is a free variable, pinned to the evaluator's initial pre-value
// 0 under vInit.
func (ur *unroller) PreNum(isInt bool) (expr.Expr, error) {
	ur.auxSeq++
	v := ur.Var(fmt.Sprintf("pre$%d", ur.auxSeq), isInt)
	zero, err := ur.sess.Bind(expr.NewAtom(v, expr.CmpEQ, expr.C(0), ur.Domain(v)))
	if err != nil {
		return nil, err
	}
	return v, ur.sess.AssertClause(-ur.vInit, zero)
}
