package lustre

import (
	"fmt"
	"math"

	"absolver/internal/expr"
)

// Table is a node's validated flow table: every declared flow's type and
// the equation defining each non-input flow. Extract, the step evaluator
// and package mc all start from one.
type Table struct {
	Node   *Node
	types  map[string]Type
	eqs    map[string]Expr
	inputs map[string]bool
}

// NewTable validates the program's main node: every equation targets a
// declared non-input flow, no flow has two equations, and every declared
// non-input flow has one.
func NewTable(p *Program) (*Table, error) {
	n := p.Main()
	if n == nil {
		return nil, fmt.Errorf("lustre: empty program")
	}
	tab := &Table{Node: n, types: map[string]Type{}, eqs: map[string]Expr{}, inputs: map[string]bool{}}
	for _, d := range n.Inputs {
		tab.types[d.Name] = d.Type
		tab.inputs[d.Name] = true
	}
	for _, ds := range [][]VarDecl{n.Outputs, n.Locals} {
		for _, d := range ds {
			tab.types[d.Name] = d.Type
		}
	}
	for _, eq := range n.Equations {
		if tab.inputs[eq.Target] {
			return nil, fmt.Errorf("lustre: equation for input %s", eq.Target)
		}
		if _, ok := tab.types[eq.Target]; !ok {
			return nil, fmt.Errorf("lustre: equation for undeclared flow %s", eq.Target)
		}
		if _, dup := tab.eqs[eq.Target]; dup {
			return nil, fmt.Errorf("lustre: multiple equations for %s", eq.Target)
		}
		tab.eqs[eq.Target] = eq.Rhs
	}
	for _, ds := range [][]VarDecl{n.Outputs, n.Locals} {
		for _, d := range ds {
			if _, ok := tab.eqs[d.Name]; !ok && !tab.inputs[d.Name] {
				return nil, fmt.Errorf("lustre: no equation for flow %s", d.Name)
			}
		}
	}
	return tab, nil
}

// Type returns the declared type of a flow.
func (tab *Table) Type(name string) (Type, bool) {
	ty, ok := tab.types[name]
	return ty, ok
}

// Emitter is one target of the lowering. B is the target's Boolean value:
// a circuit gate for Extract, a session literal for package mc. Numeric
// values are expr.Expr for both.
type Emitter[B any] interface {
	Const(v bool) B
	Not(b B) B
	// Gate combines two Boolean values with and, or, xor or =>.
	Gate(op string, a, b B) (B, error)
	Ite(c, a, b B) (B, error)
	Atom(a expr.Atom) (B, error)
	BoolInput(name string, t int) B
	NumInput(name string, t int) (expr.Expr, error)
	// NumFlow returns the value of the defined numeric flow name at
	// instant t, whose equation lowers to e.
	NumFlow(name string, t int, e expr.Expr) (expr.Expr, error)
	// NumIte returns a value equal to a where c holds and to b elsewhere;
	// dom is the domain of a and b.
	NumIte(c B, a, b expr.Expr, dom expr.Domain, t int) (expr.Expr, error)
	// Init returns the selector of `a -> b` at instant 0: true when that
	// instant is the first of the execution.
	Init() (B, error)
	// PreBool and PreNum return the value of a `pre` at instant 0, the
	// state before the lowered window. PreNum's operand is integer-typed
	// when isInt is set.
	PreBool() (B, error)
	PreNum(isInt bool) (expr.Expr, error)
}

// Lowering turns a node's equations into an emitter's values, one copy of
// each flow per instant t. `pre e` at t > 0 is e at t-1 and `a -> b` at
// t > 0 is b; at instant 0 both go to the emitter (Init, PreBool, PreNum).
// Flows are lowered on demand, once per instant, with cycle detection.
type Lowering[B any] struct {
	*Table
	em     Emitter[B]
	steps  []*instant[B]
	busy   map[flowAt]bool
	preB   map[string]B         // FormatExpr(operand) → instant-0 value
	preN   map[string]expr.Expr // FormatExpr(operand) → instant-0 value
	varInt map[string]bool      // arithmetic variable → integer-typed
}

type instant[B any] struct {
	bools map[string]B
	nums  map[string]expr.Expr
}

type flowAt struct {
	name string
	t    int
}

// NewLowering lowers tab's node into em.
func NewLowering[B any](tab *Table, em Emitter[B]) *Lowering[B] {
	return &Lowering[B]{
		Table:  tab,
		em:     em,
		busy:   map[flowAt]bool{},
		preB:   map[string]B{},
		preN:   map[string]expr.Expr{},
		varInt: map[string]bool{},
	}
}

// Var returns the arithmetic variable name and records its type for
// Domain.
func (lo *Lowering[B]) Var(name string, isInt bool) expr.Var {
	lo.varInt[name] = isInt
	return expr.V(name)
}

// Domain is Int when every variable of the expressions is integer-typed,
// Real otherwise.
func (lo *Lowering[B]) Domain(es ...expr.Expr) expr.Domain {
	for _, e := range es {
		for _, v := range expr.Vars(e) {
			if !lo.varInt[v] {
				return expr.Real
			}
		}
	}
	return expr.Int
}

// Step lowers every declared flow at instant t: inputs, then locals, then
// outputs, in declaration order.
func (lo *Lowering[B]) Step(t int) error {
	for _, ds := range [][]VarDecl{lo.Node.Inputs, lo.Node.Locals, lo.Node.Outputs} {
		for _, d := range ds {
			var err error
			if lo.types[d.Name] == TBool {
				_, err = lo.Bool(d.Name, t)
			} else {
				_, err = lo.Num(d.Name, t)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (lo *Lowering[B]) at(t int) *instant[B] {
	for len(lo.steps) <= t {
		lo.steps = append(lo.steps, &instant[B]{bools: map[string]B{}, nums: map[string]expr.Expr{}})
	}
	return lo.steps[t]
}

// enter marks flow name at instant t as being lowered; the returned
// function unmarks it.
func (lo *Lowering[B]) enter(name string, t int) (func(), error) {
	k := flowAt{name, t}
	if lo.busy[k] {
		return nil, fmt.Errorf("lustre: cyclic definition of %s", name)
	}
	lo.busy[k] = true
	return func() { delete(lo.busy, k) }, nil
}

// Bool lowers the Boolean flow name at instant t.
func (lo *Lowering[B]) Bool(name string, t int) (B, error) {
	at := lo.at(t)
	if b, ok := at.bools[name]; ok {
		return b, nil
	}
	if lo.inputs[name] {
		b := lo.em.BoolInput(name, t)
		at.bools[name] = b
		return b, nil
	}
	var b B
	leave, err := lo.enter(name, t)
	if err != nil {
		return b, err
	}
	defer leave()
	if b, err = lo.boolExpr(lo.eqs[name], t); err != nil {
		return b, err
	}
	at.bools[name] = b
	return b, nil
}

// Num lowers the numeric flow name at instant t.
func (lo *Lowering[B]) Num(name string, t int) (expr.Expr, error) {
	at := lo.at(t)
	if e, ok := at.nums[name]; ok {
		return e, nil
	}
	var e expr.Expr
	var err error
	if lo.inputs[name] {
		e, err = lo.em.NumInput(name, t)
	} else {
		var leave func()
		if leave, err = lo.enter(name, t); err != nil {
			return nil, err
		}
		defer leave()
		if e, err = lo.numExpr(lo.eqs[name], t); err == nil {
			e, err = lo.em.NumFlow(name, t, e)
		}
	}
	if err != nil {
		return nil, err
	}
	at.nums[name] = e
	return e, nil
}

// ref checks that a referenced flow is declared and, for want == TBool,
// Boolean; otherwise numeric.
func (lo *Lowering[B]) ref(name string, want Type) error {
	ty, ok := lo.types[name]
	switch {
	case !ok:
		return fmt.Errorf("lustre: undeclared flow %s", name)
	case want == TBool && ty != TBool:
		return fmt.Errorf("lustre: %s used as bool but declared %s", name, ty)
	case want != TBool && ty == TBool:
		return fmt.Errorf("lustre: %s used numerically but declared bool", name)
	}
	return nil
}

var cmpOps = map[string]expr.CmpOp{
	"<": expr.CmpLT, "<=": expr.CmpLE, ">": expr.CmpGT,
	">=": expr.CmpGE, "=": expr.CmpEQ, "<>": expr.CmpNE,
}

var arithOps = map[string]expr.Op{"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv}

var funcs = map[string]expr.Func{
	"sin": expr.FuncSin, "cos": expr.FuncCos, "exp": expr.FuncExp,
	"log": expr.FuncLog, "sqrt": expr.FuncSqrt, "abs": expr.FuncAbs,
}

func (lo *Lowering[B]) boolExpr(e Expr, t int) (B, error) {
	var zero B
	switch x := e.(type) {
	case BoolLit:
		return lo.em.Const(x.V), nil
	case Ref:
		if err := lo.ref(x.Name, TBool); err != nil {
			return zero, err
		}
		return lo.Bool(x.Name, t)
	case Unary:
		switch x.Op {
		case "not":
			b, err := lo.boolExpr(x.X, t)
			if err != nil {
				return zero, err
			}
			return lo.em.Not(b), nil
		case "pre":
			if t > 0 {
				return lo.boolExpr(x.X, t-1)
			}
			key := FormatExpr(x.X)
			if b, ok := lo.preB[key]; ok {
				return b, nil
			}
			b, err := lo.em.PreBool()
			if err != nil {
				return zero, err
			}
			lo.preB[key] = b
			return b, nil
		}
		return zero, fmt.Errorf("lustre: unary %q is not Boolean", x.Op)
	case Binary:
		switch x.Op {
		case "->":
			if t > 0 {
				return lo.boolExpr(x.R, t)
			}
			init, err := lo.em.Init()
			if err != nil {
				return zero, err
			}
			a, b, err := lo.boolPair(x.L, x.R, 0)
			if err != nil {
				return zero, err
			}
			return lo.em.Ite(init, a, b)
		case "and", "or", "xor", "=>":
			a, b, err := lo.boolPair(x.L, x.R, t)
			if err != nil {
				return zero, err
			}
			return lo.em.Gate(x.Op, a, b)
		case "<", "<=", ">", ">=", "=", "<>":
			// '=' and '<>' over Boolean operands are iff and xor.
			if (x.Op == "=" || x.Op == "<>") && lo.isBoolOperand(x.L) && lo.isBoolOperand(x.R) {
				a, b, err := lo.boolPair(x.L, x.R, t)
				if err != nil {
					return zero, err
				}
				g, err := lo.em.Gate("xor", a, b)
				if err != nil || x.Op == "<>" {
					return g, err
				}
				return lo.em.Not(g), nil
			}
			l, err := lo.numExpr(x.L, t)
			if err != nil {
				return zero, err
			}
			r, err := lo.numExpr(x.R, t)
			if err != nil {
				return zero, err
			}
			return lo.em.Atom(expr.NewAtom(l, cmpOps[x.Op], r, lo.Domain(l, r)))
		}
		return zero, fmt.Errorf("lustre: operator %q is not Boolean", x.Op)
	case Ite:
		c, err := lo.boolExpr(x.Cond, t)
		if err != nil {
			return zero, err
		}
		a, b, err := lo.boolPair(x.Then, x.Else, t)
		if err != nil {
			return zero, err
		}
		return lo.em.Ite(c, a, b)
	}
	return zero, fmt.Errorf("lustre: expression %T is not Boolean", e)
}

// boolPair lowers two Boolean operands, left first.
func (lo *Lowering[B]) boolPair(l, r Expr, t int) (a, b B, err error) {
	if a, err = lo.boolExpr(l, t); err != nil {
		return a, b, err
	}
	b, err = lo.boolExpr(r, t)
	return a, b, err
}

// isBoolOperand reports whether an operand of '=' or '<>' is Boolean.
func (lo *Lowering[B]) isBoolOperand(e Expr) bool {
	switch x := e.(type) {
	case BoolLit:
		return true
	case Ref:
		return lo.types[x.Name] == TBool
	case Unary:
		if x.Op == "pre" {
			return lo.isBoolOperand(x.X)
		}
		return x.Op == "not"
	case Binary:
		switch x.Op {
		case "and", "or", "xor", "=>", "<", "<=", ">", ">=":
			return true
		case "->":
			return lo.isBoolOperand(x.R)
		}
	case Ite:
		return lo.isBoolOperand(x.Then)
	}
	return false
}

func (lo *Lowering[B]) numExpr(e Expr, t int) (expr.Expr, error) {
	switch x := e.(type) {
	case Num:
		return expr.C(x.V), nil
	case Ref:
		if err := lo.ref(x.Name, TReal); err != nil {
			return nil, err
		}
		return lo.Num(x.Name, t)
	case Unary:
		switch x.Op {
		case "-":
			inner, err := lo.numExpr(x.X, t)
			if err != nil {
				return nil, err
			}
			return expr.Neg{X: inner}, nil
		case "pre":
			if t > 0 {
				return lo.numExpr(x.X, t-1)
			}
			key := FormatExpr(x.X)
			if v, ok := lo.preN[key]; ok {
				return v, nil
			}
			v, err := lo.em.PreNum(lo.numIsInt(x.X))
			if err != nil {
				return nil, err
			}
			lo.preN[key] = v
			return v, nil
		}
		return nil, fmt.Errorf("lustre: unary %q is not numeric", x.Op)
	case Binary:
		if x.Op == "->" {
			if t > 0 {
				return lo.numExpr(x.R, t)
			}
			init, err := lo.em.Init()
			if err != nil {
				return nil, err
			}
			return lo.numIte(init, x.L, x.R, 0)
		}
		op, ok := arithOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("lustre: operator %q is not numeric", x.Op)
		}
		l, err := lo.numExpr(x.L, t)
		if err != nil {
			return nil, err
		}
		r, err := lo.numExpr(x.R, t)
		if err != nil {
			return nil, err
		}
		return expr.Bin{Op: op, L: l, R: r}, nil
	case Ite:
		c, err := lo.boolExpr(x.Cond, t)
		if err != nil {
			return nil, err
		}
		return lo.numIte(c, x.Then, x.Else, t)
	case Call:
		fn, ok := funcs[x.Fn]
		if !ok {
			return nil, fmt.Errorf("lustre: unknown function %q", x.Fn)
		}
		arg, err := lo.numExpr(x.Arg, t)
		if err != nil {
			return nil, err
		}
		return expr.Call{Fn: fn, Arg: arg}, nil
	}
	return nil, fmt.Errorf("lustre: expression %T is not numeric", e)
}

// numIte lowers both numeric branches and selects between them on c.
func (lo *Lowering[B]) numIte(c B, then, els Expr, t int) (expr.Expr, error) {
	a, err := lo.numExpr(then, t)
	if err != nil {
		return nil, err
	}
	b, err := lo.numExpr(els, t)
	if err != nil {
		return nil, err
	}
	return lo.em.NumIte(c, a, b, lo.Domain(a, b), t)
}

// numIsInt reports whether a numeric expression is integer-typed: integral
// literals, int flows, no division.
func (lo *Lowering[B]) numIsInt(e Expr) bool {
	switch x := e.(type) {
	case Num:
		return x.V == math.Trunc(x.V)
	case Ref:
		return lo.types[x.Name] == TInt
	case Unary:
		return lo.numIsInt(x.X)
	case Binary:
		if x.Op == "/" {
			return false
		}
		return lo.numIsInt(x.L) && lo.numIsInt(x.R)
	case Ite:
		return lo.numIsInt(x.Then) && lo.numIsInt(x.Else)
	}
	return false
}
