// Package lustre implements the textual intermediate representation of the
// paper's conversion work-flow (Fig. 3): "internally, SCADE uses a textual
// representation of the model in terms of the programming language LUSTRE,
// from which we could then extract the multi-domain constraint satisfaction
// problems". SCADE is proprietary; this package provides the mini-Lustre
// dialect needed for that role — single-node programs over bool/int/real
// flows with dataflow equations — together with a parser, a printer, the
// Simulink→Lustre translation, and the Lustre→AB extraction.
//
// One lowering (Lowering, over a validated Table) turns a node's equations
// into solver terms, one copy of each flow per instant, and hands them to
// an Emitter. There are two emitters. Extract's builds circuit gates for
// instant 0 and rejects the stateful operators pre and -> there; package
// mc's builds session literals for instants 0..k, connecting instants
// through pre and ->, for bounded model checking and k-induction. The
// step-semantics evaluator (Evaluator, Run) shares only the Table: it keeps
// its own expression semantics because it is the reference that replays
// concrete input traces and checks model-checking verdicts. `when` remains
// unsupported.
package lustre

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a Lustre flow type.
type Type int

// Flow types.
const (
	TBool Type = iota
	TInt
	TReal
)

// String returns the Lustre keyword.
func (t Type) String() string {
	switch t {
	case TBool:
		return "bool"
	case TInt:
		return "int"
	}
	return "real"
}

// VarDecl declares a flow.
type VarDecl struct {
	Name string
	Type Type
}

// Equation defines Target = Rhs.
type Equation struct {
	Target string
	Rhs    Expr
}

// Node is a Lustre node.
type Node struct {
	Name      string
	Inputs    []VarDecl
	Outputs   []VarDecl
	Locals    []VarDecl
	Equations []Equation
}

// Program is a list of nodes; analyses use the last node as entry point.
type Program struct {
	Nodes []*Node
}

// Main returns the entry node (the last declared).
func (p *Program) Main() *Node {
	if len(p.Nodes) == 0 {
		return nil
	}
	return p.Nodes[len(p.Nodes)-1]
}

// Expr is a Lustre expression.
type Expr interface{ lexpr() }

// Num is a numeric literal.
type Num struct{ V float64 }

// BoolLit is true/false.
type BoolLit struct{ V bool }

// Ref references a flow by name.
type Ref struct{ Name string }

// Unary is `not x`, `-x`, or the stateful delay `pre x` (value of x at the
// previous instant; undefined at the first).
type Unary struct {
	Op string // "not", "-", "pre"
	X  Expr
}

// Binary applies an infix operator: and or xor => + - * / < <= > >= = <>,
// plus the initialisation operator `a -> b` (a at the first instant, b
// afterwards).
type Binary struct {
	Op   string
	L, R Expr
}

// Ite is if-then-else (both Boolean and numeric).
type Ite struct {
	Cond, Then, Else Expr
}

// Call applies a unary function (sin, cos, exp, log, sqrt, abs).
type Call struct {
	Fn  string
	Arg Expr
}

func (Num) lexpr()     {}
func (BoolLit) lexpr() {}
func (Ref) lexpr()     {}
func (Unary) lexpr()   {}
func (Binary) lexpr()  {}
func (Ite) lexpr()     {}
func (Call) lexpr()    {}

// ---------------------------------------------------------------------------
// Printing.

// Format renders the program as Lustre source.
func Format(p *Program) string {
	var sb strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			sb.WriteString("\n")
		}
		formatNode(&sb, n)
	}
	return sb.String()
}

func formatNode(sb *strings.Builder, n *Node) {
	fmt.Fprintf(sb, "node %s(%s) returns (%s);\n", n.Name, formatDecls(n.Inputs), formatDecls(n.Outputs))
	if len(n.Locals) > 0 {
		fmt.Fprintf(sb, "var %s;\n", formatDecls(n.Locals))
	}
	sb.WriteString("let\n")
	for _, eq := range n.Equations {
		fmt.Fprintf(sb, "  %s = %s;\n", eq.Target, FormatExpr(eq.Rhs))
	}
	sb.WriteString("tel;\n")
}

func formatDecls(ds []VarDecl) string {
	// Group consecutive declarations of the same type.
	var parts []string
	i := 0
	for i < len(ds) {
		j := i
		for j < len(ds) && ds[j].Type == ds[i].Type {
			j++
		}
		names := make([]string, 0, j-i)
		for _, d := range ds[i:j] {
			names = append(names, d.Name)
		}
		parts = append(parts, strings.Join(names, ", ")+": "+ds[i].Type.String())
		i = j
	}
	return strings.Join(parts, "; ")
}

// FormatExpr renders an expression with minimal parentheses.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	fmtExpr(&sb, e, 0)
	return sb.String()
}

// Precedence levels, low to high. The initialisation arrow binds loosest;
// its associativity is semantically irrelevant ((a->b)->c ≡ a->(b->c)), the
// parser builds it left-associated.
func prec(op string) int {
	switch op {
	case "->":
		return 0
	case "=>":
		return 1
	case "or", "xor":
		return 2
	case "and":
		return 3
	case "<", "<=", ">", ">=", "=", "<>":
		return 4
	case "+", "-":
		return 5
	case "*", "/":
		return 6
	}
	return 7
}

func fmtExpr(sb *strings.Builder, e Expr, outer int) {
	switch x := e.(type) {
	case Num:
		// Integral reals print without a decimal point: real contexts
		// accept int literals in this dialect.
		sb.WriteString(strconv.FormatFloat(x.V, 'g', -1, 64))
	case BoolLit:
		if x.V {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case Ref:
		sb.WriteString(x.Name)
	case Unary:
		switch x.Op {
		case "not":
			sb.WriteString("not ")
		case "pre":
			sb.WriteString("pre ")
		default:
			sb.WriteString("-")
		}
		fmtExpr(sb, x.X, 7)
	case Binary:
		p := prec(x.Op)
		if p < outer {
			sb.WriteByte('(')
			defer sb.WriteByte(')')
		}
		fmtExpr(sb, x.L, p)
		sb.WriteString(" " + x.Op + " ")
		fmtExpr(sb, x.R, p+1)
	case Ite:
		if outer > 0 {
			sb.WriteByte('(')
			defer sb.WriteByte(')')
		}
		sb.WriteString("if ")
		fmtExpr(sb, x.Cond, 0)
		sb.WriteString(" then ")
		fmtExpr(sb, x.Then, 0)
		sb.WriteString(" else ")
		fmtExpr(sb, x.Else, 0)
	case Call:
		sb.WriteString(x.Fn)
		sb.WriteByte('(')
		fmtExpr(sb, x.Arg, 0)
		sb.WriteByte(')')
	}
}

// ---------------------------------------------------------------------------
// Parsing.

type ltoken struct {
	kind string // "id", "num", "punct", "eof"
	text string
	pos  int
}

func llex(src string) ([]ltoken, error) {
	var toks []ltoken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			if j < len(src) && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < len(src) && (src[k] == '+' || src[k] == '-') {
					k++
				}
				for k < len(src) && src[k] >= '0' && src[k] <= '9' {
					k++
				}
				j = k
			}
			toks = append(toks, ltoken{"num", src[i:j], i})
			i = j
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			j := i
			for j < len(src) && (src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z' ||
				src[j] >= '0' && src[j] <= '9' || src[j] == '_' || src[j] == '.') {
				j++
			}
			toks = append(toks, ltoken{"id", src[i:j], i})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "=>", "->":
				toks = append(toks, ltoken{"punct", two, i})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ';', ':', ',', '+', '-', '*', '/', '<', '>', '=':
				toks = append(toks, ltoken{"punct", string(c), i})
				i++
			default:
				return nil, fmt.Errorf("lustre: illegal character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, ltoken{"eof", "", len(src)})
	return toks, nil
}

type lparser struct {
	toks []ltoken
	i    int
}

func (p *lparser) at(i int) ltoken {
	if i >= len(p.toks) {
		return p.toks[len(p.toks)-1] // the eof token
	}
	return p.toks[i]
}

func (p *lparser) peek() ltoken { return p.at(p.i) }

func (p *lparser) next() ltoken {
	t := p.at(p.i)
	if p.i < len(p.toks) {
		p.i++
	}
	return t
}
func (p *lparser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("lustre: "+format+" (at offset %d)", append(args, p.peek().pos)...)
}

func (p *lparser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("lustre: expected %q, got %q at offset %d", text, t.text, t.pos)
	}
	return nil
}

// Parse reads a mini-Lustre program.
func Parse(src string) (*Program, error) {
	toks, err := llex(src)
	if err != nil {
		return nil, err
	}
	p := &lparser{toks: toks}
	prog := &Program{}
	for p.peek().kind != "eof" {
		n, err := p.node()
		if err != nil {
			return nil, err
		}
		prog.Nodes = append(prog.Nodes, n)
	}
	if len(prog.Nodes) == 0 {
		return nil, fmt.Errorf("lustre: empty program")
	}
	return prog, nil
}

func (p *lparser) node() (*Node, error) {
	if err := p.expect("node"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.kind != "id" {
		return nil, p.errf("expected node name")
	}
	n := &Node{Name: name.text}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	ins, err := p.decls(")")
	if err != nil {
		return nil, err
	}
	n.Inputs = ins
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("returns"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	outs, err := p.decls(")")
	if err != nil {
		return nil, err
	}
	n.Outputs = outs
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if p.peek().text == "var" {
		p.next()
		locals, err := p.decls("let")
		if err != nil {
			return nil, err
		}
		n.Locals = locals
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("let"); err != nil {
		return nil, err
	}
	for p.peek().text != "tel" {
		target := p.next()
		if target.kind != "id" {
			return nil, p.errf("expected equation target, got %q", target.text)
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		rhs, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		n.Equations = append(n.Equations, Equation{Target: target.text, Rhs: rhs})
	}
	p.next() // tel
	if p.peek().text == ";" {
		p.next()
	}
	return n, nil
}

// decls parses "a, b: real; c: int" until the stop token (not consumed; for
// "let" the preceding ';' is also left unconsumed and re-expected).
func (p *lparser) decls(stop string) ([]VarDecl, error) {
	var out []VarDecl
	for {
		if p.peek().text == stop {
			return out, nil
		}
		var names []string
		for {
			t := p.next()
			if t.kind != "id" {
				return nil, p.errf("expected identifier in declaration, got %q", t.text)
			}
			names = append(names, t.text)
			if p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		ty := p.next()
		var t Type
		switch ty.text {
		case "bool":
			t = TBool
		case "int":
			t = TInt
		case "real":
			t = TReal
		default:
			return nil, p.errf("unknown type %q", ty.text)
		}
		for _, nm := range names {
			out = append(out, VarDecl{Name: nm, Type: t})
		}
		if p.peek().text == ";" {
			// Peek past the ';' — if the stop token follows, leave the ';'
			// for the caller ("var … ; let" keeps its ';').
			if stop == "let" && p.at(p.i+1).text == "let" {
				return out, nil
			}
			p.next()
			continue
		}
		return out, nil
	}
}

// expr parses with precedence climbing.
func (p *lparser) expr(min int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		op := t.text
		var isOp bool
		switch op {
		case "->", "=>", "or", "xor", "and", "<", "<=", ">", ">=", "=", "<>", "+", "-", "*", "/":
			isOp = true
		}
		if !isOp || prec(op) < min {
			return lhs, nil
		}
		p.next()
		rhs, err := p.expr(prec(op) + 1)
		if err != nil {
			return nil, err
		}
		lhs = Binary{Op: op, L: lhs, R: rhs}
	}
}

func (p *lparser) unary() (Expr, error) {
	t := p.peek()
	switch {
	case t.text == "not":
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "not", X: x}, nil
	case t.text == "pre":
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "pre", X: x}, nil
	case t.text == "-":
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if n, ok := x.(Num); ok {
			return Num{-n.V}, nil
		}
		return Unary{Op: "-", X: x}, nil
	case t.text == "if":
		p.next()
		c, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expect("then"); err != nil {
			return nil, err
		}
		th, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expect("else"); err != nil {
			return nil, err
		}
		el, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		return Ite{Cond: c, Then: th, Else: el}, nil
	case t.text == "(":
		p.next()
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.text == "true":
		p.next()
		return BoolLit{true}, nil
	case t.text == "false":
		p.next()
		return BoolLit{false}, nil
	case t.kind == "num":
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad numeral %q", t.text)
		}
		return Num{v}, nil
	case t.kind == "id":
		p.next()
		switch t.text {
		case "sin", "cos", "exp", "log", "sqrt", "abs":
			if p.peek().text == "(" {
				p.next()
				arg, err := p.expr(0)
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return Call{Fn: t.text, Arg: arg}, nil
			}
		}
		return Ref{t.text}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
