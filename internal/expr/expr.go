// Package expr implements the arithmetic expression language of
// AB-problems (Sec. 2 of the paper): terms built from real-valued variables
// and constants with the operators +, -, *, / — plus the sin, cos, exp, log
// and sqrt extensions the paper describes as "straightforward" — and
// comparison atoms over such terms.
//
// The package provides evaluation over point environments (and, compiled
// once to a Tape, over slot-indexed points), evaluation over interval
// boxes (used by the nonlinear refutation engine), symbolic
// differentiation (used by the penalty-method nonlinear solver), linearity
// analysis (used to dispatch atoms to the linear or the nonlinear solver),
// simplification, and an infix parser for the textual form used in the
// extended DIMACS format's "c def" lines.
package expr

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"absolver/internal/interval"
)

// Env assigns point values to variables.
type Env map[string]float64

// Box assigns interval domains to variables. Variables absent from the box
// are treated as unconstrained (the whole real line).
type Box map[string]interval.Interval

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	c := make(Box, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// ErrUnbound is returned by Eval when a variable has no value in the
// environment.
var ErrUnbound = errors.New("expr: unbound variable")

// ErrDomain is returned by Eval for domain errors such as division by zero
// or log of a non-positive number.
var ErrDomain = errors.New("expr: domain error")

// Op identifies a binary arithmetic operator.
type Op int

// Binary operators of the AB term language.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
)

// String returns the operator's source form.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Func identifies a unary function extension.
type Func int

// Unary function extensions (Sec. 2: "extension to other operators, such as
// sin, cos or exp is straightforward").
const (
	FuncSin Func = iota
	FuncCos
	FuncExp
	FuncLog
	FuncSqrt
	FuncAbs
)

// String returns the function's source name.
func (f Func) String() string {
	switch f {
	case FuncSin:
		return "sin"
	case FuncCos:
		return "cos"
	case FuncExp:
		return "exp"
	case FuncLog:
		return "log"
	case FuncSqrt:
		return "sqrt"
	case FuncAbs:
		return "abs"
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// funcByName maps source names to Func values for the parser.
var funcByName = map[string]Func{
	"sin":  FuncSin,
	"cos":  FuncCos,
	"exp":  FuncExp,
	"log":  FuncLog,
	"sqrt": FuncSqrt,
	"abs":  FuncAbs,
}

// Expr is a node of an arithmetic expression tree.
type Expr interface {
	// Eval computes the expression's value under env.
	Eval(env Env) (float64, error)
	// Interval computes an over-approximation of the expression's range
	// when each variable ranges over its box domain.
	Interval(box Box) interval.Interval
	// Diff returns the partial derivative with respect to name. The result
	// is not simplified; apply Simplify if a compact form is needed.
	Diff(name string) Expr
	// addVars inserts every variable occurring in the expression into set.
	addVars(set map[string]struct{})
	// format writes the source form, parenthesised as required by prec,
	// the binding strength of the enclosing context.
	format(sb *strings.Builder, prec int)
}

// Vars returns the sorted set of variable names occurring in e.
func Vars(e Expr) []string {
	set := make(map[string]struct{})
	e.addVars(set)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders an expression in parseable infix form.
func String(e Expr) string {
	var sb strings.Builder
	e.format(&sb, 0)
	return sb.String()
}

// Precedence levels used by format. Higher binds tighter.
const (
	precAdd  = 1
	precMul  = 2
	precNeg  = 3
	precAtom = 4
)

// Const is a real constant.
type Const struct {
	V float64
}

// C returns the constant expression v.
func C(v float64) Const { return Const{V: v} }

// Eval implements Expr.
func (c Const) Eval(Env) (float64, error) { return c.V, nil }

// Interval implements Expr.
func (c Const) Interval(Box) interval.Interval { return interval.Point(c.V) }

// Diff implements Expr.
func (c Const) Diff(string) Expr { return Const{0} }

func (c Const) addVars(map[string]struct{}) {}

func (c Const) format(sb *strings.Builder, prec int) {
	if c.V < 0 && prec > precAdd {
		sb.WriteByte('(')
		sb.WriteString(strconv.FormatFloat(c.V, 'g', -1, 64))
		sb.WriteByte(')')
		return
	}
	sb.WriteString(strconv.FormatFloat(c.V, 'g', -1, 64))
}

// Var is a reference to a named real variable.
type Var struct {
	Name string
}

// V returns the variable expression named name.
func V(name string) Var { return Var{Name: name} }

// Eval implements Expr.
func (v Var) Eval(env Env) (float64, error) {
	x, ok := env[v.Name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnbound, v.Name)
	}
	return x, nil
}

// Interval implements Expr.
func (v Var) Interval(box Box) interval.Interval {
	if iv, ok := box[v.Name]; ok {
		return iv
	}
	return interval.Whole()
}

// Diff implements Expr.
func (v Var) Diff(name string) Expr {
	if v.Name == name {
		return Const{1}
	}
	return Const{0}
}

func (v Var) addVars(set map[string]struct{}) { set[v.Name] = struct{}{} }

func (v Var) format(sb *strings.Builder, _ int) { sb.WriteString(v.Name) }

// Neg is unary negation.
type Neg struct {
	X Expr
}

// Eval implements Expr.
func (n Neg) Eval(env Env) (float64, error) {
	x, err := n.X.Eval(env)
	return -x, err
}

// Interval implements Expr.
func (n Neg) Interval(box Box) interval.Interval { return n.X.Interval(box).Neg() }

// Diff implements Expr.
func (n Neg) Diff(name string) Expr { return Neg{n.X.Diff(name)} }

func (n Neg) addVars(set map[string]struct{}) { n.X.addVars(set) }

func (n Neg) format(sb *strings.Builder, prec int) {
	if prec > precNeg {
		sb.WriteByte('(')
		defer sb.WriteByte(')')
	}
	sb.WriteByte('-')
	n.X.format(sb, precNeg+1)
}

// Bin is a binary arithmetic operation.
type Bin struct {
	Op   Op
	L, R Expr
}

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Bin{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Bin{OpMul, l, r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return Bin{OpDiv, l, r} }

// Sum returns the left-associated sum of terms, or the constant 0 when
// called with no terms.
func Sum(terms ...Expr) Expr {
	if len(terms) == 0 {
		return Const{0}
	}
	e := terms[0]
	for _, t := range terms[1:] {
		e = Add(e, t)
	}
	return e
}

// Eval implements Expr.
func (b Bin) Eval(env Env) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("%w: division by zero", ErrDomain)
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("expr: unknown operator %v", b.Op)
}

// Interval implements Expr.
func (b Bin) Interval(box Box) interval.Interval {
	l := b.L.Interval(box)
	r := b.R.Interval(box)
	switch b.Op {
	case OpAdd:
		return l.Add(r)
	case OpSub:
		return l.Sub(r)
	case OpMul:
		// x*x is a square: the dedicated rule keeps the sign information
		// the generic product rule loses when x spans zero.
		if Equal(b.L, b.R) {
			return l.Sqr()
		}
		return l.Mul(r)
	case OpDiv:
		return l.Div(r)
	}
	return interval.Whole()
}

// Diff implements Expr.
func (b Bin) Diff(name string) Expr {
	dl := b.L.Diff(name)
	dr := b.R.Diff(name)
	switch b.Op {
	case OpAdd:
		return Add(dl, dr)
	case OpSub:
		return Sub(dl, dr)
	case OpMul:
		// (lr)' = l'r + lr'
		return Add(Mul(dl, b.R), Mul(b.L, dr))
	case OpDiv:
		// (l/r)' = (l'r - lr') / r²
		return Div(Sub(Mul(dl, b.R), Mul(b.L, dr)), Mul(b.R, b.R))
	}
	return Const{0}
}

func (b Bin) addVars(set map[string]struct{}) {
	b.L.addVars(set)
	b.R.addVars(set)
}

func (b Bin) format(sb *strings.Builder, prec int) {
	var own int
	switch b.Op {
	case OpAdd, OpSub:
		own = precAdd
	default:
		own = precMul
	}
	if own < prec {
		sb.WriteByte('(')
		defer sb.WriteByte(')')
	}
	b.L.format(sb, own)
	sb.WriteByte(' ')
	sb.WriteString(b.Op.String())
	sb.WriteByte(' ')
	// Subtraction and division are left-associative: the right operand
	// must parenthesise operators of equal precedence.
	b.R.format(sb, own+1)
}

// Call applies a unary function extension.
type Call struct {
	Fn  Func
	Arg Expr
}

// Sin returns sin(x).
func Sin(x Expr) Expr { return Call{FuncSin, x} }

// Cos returns cos(x).
func Cos(x Expr) Expr { return Call{FuncCos, x} }

// Exp returns e^x.
func Exp(x Expr) Expr { return Call{FuncExp, x} }

// Log returns the natural logarithm of x.
func Log(x Expr) Expr { return Call{FuncLog, x} }

// Sqrt returns the square root of x.
func Sqrt(x Expr) Expr { return Call{FuncSqrt, x} }

// Abs returns |x|.
func Abs(x Expr) Expr { return Call{FuncAbs, x} }

// Eval implements Expr.
func (c Call) Eval(env Env) (float64, error) {
	x, err := c.Arg.Eval(env)
	if err != nil {
		return 0, err
	}
	switch c.Fn {
	case FuncSin:
		return math.Sin(x), nil
	case FuncCos:
		return math.Cos(x), nil
	case FuncExp:
		return math.Exp(x), nil
	case FuncLog:
		if x <= 0 {
			return 0, fmt.Errorf("%w: log of %g", ErrDomain, x)
		}
		return math.Log(x), nil
	case FuncSqrt:
		if x < 0 {
			return 0, fmt.Errorf("%w: sqrt of %g", ErrDomain, x)
		}
		return math.Sqrt(x), nil
	case FuncAbs:
		return math.Abs(x), nil
	}
	return 0, fmt.Errorf("expr: unknown function %v", c.Fn)
}

// Interval implements Expr.
func (c Call) Interval(box Box) interval.Interval {
	x := c.Arg.Interval(box)
	switch c.Fn {
	case FuncSin:
		return x.Sin()
	case FuncCos:
		return x.Cos()
	case FuncExp:
		return x.Exp()
	case FuncLog:
		return x.Log()
	case FuncSqrt:
		return x.Sqrt()
	case FuncAbs:
		return x.Abs()
	}
	return interval.Whole()
}

// Diff implements Expr.
func (c Call) Diff(name string) Expr {
	d := c.Arg.Diff(name)
	switch c.Fn {
	case FuncSin:
		return Mul(Cos(c.Arg), d)
	case FuncCos:
		return Neg{Mul(Sin(c.Arg), d)}
	case FuncExp:
		return Mul(Exp(c.Arg), d)
	case FuncLog:
		return Div(d, c.Arg)
	case FuncSqrt:
		return Div(d, Mul(Const{2}, Sqrt(c.Arg)))
	case FuncAbs:
		// d|u|/dx = u/|u| · u'  (undefined at 0; the chosen subgradient is 0
		// there via Eval of u/|u| erroring, which callers treat as 0).
		return Mul(Div(c.Arg, Abs(c.Arg)), d)
	}
	return Const{0}
}

func (c Call) addVars(set map[string]struct{}) { c.Arg.addVars(set) }

func (c Call) format(sb *strings.Builder, _ int) {
	sb.WriteString(c.Fn.String())
	sb.WriteByte('(')
	c.Arg.format(sb, 0)
	sb.WriteByte(')')
}

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.V == y.V
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Neg:
		y, ok := b.(Neg)
		return ok && Equal(x.X, y.X)
	case Bin:
		y, ok := b.(Bin)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Call:
		y, ok := b.(Call)
		return ok && x.Fn == y.Fn && Equal(x.Arg, y.Arg)
	}
	return false
}
