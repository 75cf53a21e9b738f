package lustre

import (
	"errors"
	"fmt"
	"sort"

	"absolver/internal/circuit"
	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/simulink"
)

// FromSimulink translates a block diagram into a single-node Lustre program
// — the first arrow of the Fig. 3 work-flow. Every non-port block becomes a
// local flow with one equation; inports become node inputs and outports
// node outputs.
func FromSimulink(m *simulink.Model) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := &Node{Name: m.Name}

	names := make([]string, 0, len(m.Blocks))
	for name := range m.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)

	feeds := map[string]map[int]string{}
	for _, l := range m.Lines {
		if feeds[l.To] == nil {
			feeds[l.To] = map[int]string{}
		}
		feeds[l.To][l.ToPort] = l.From
	}
	in := func(blk string, port int) Expr { return Ref{feeds[blk][port]} }

	// Two passes: declare, then equations (type of a block's flow depends
	// only on the block kind).
	for _, name := range names {
		b := m.Blocks[name]
		switch b.Type {
		case simulink.Inport:
			ty := TReal
			if b.IntSignal {
				ty = TInt
			}
			n.Inputs = append(n.Inputs, VarDecl{Name: name, Type: ty})
		case simulink.Outport:
			src := m.Blocks[feeds[name][1]]
			ty := TReal
			if src.Type == simulink.RelOp || src.Type == simulink.Logic {
				ty = TBool
			}
			n.Outputs = append(n.Outputs, VarDecl{Name: name, Type: ty})
		case simulink.RelOp, simulink.Logic:
			n.Locals = append(n.Locals, VarDecl{Name: name, Type: TBool})
		default:
			n.Locals = append(n.Locals, VarDecl{Name: name, Type: TReal})
		}
	}

	for _, name := range names {
		b := m.Blocks[name]
		var rhs Expr
		switch b.Type {
		case simulink.Inport:
			continue
		case simulink.Outport:
			rhs = in(name, 1)
		case simulink.Constant:
			rhs = Num{b.Value}
		case simulink.Gain:
			rhs = Binary{Op: "*", L: Num{b.Value}, R: in(name, 1)}
		case simulink.Sum:
			nports := len(feeds[name])
			signs := b.Signs
			for len(signs) < nports {
				signs += "+"
			}
			var acc Expr
			for p := 1; p <= nports; p++ {
				term := in(name, p)
				if signs[p-1] == '-' {
					if acc == nil {
						term = Unary{Op: "-", X: term}
					}
					if acc != nil {
						acc = Binary{Op: "-", L: acc, R: term}
						continue
					}
					acc = term
					continue
				}
				if acc == nil {
					acc = term
				} else {
					acc = Binary{Op: "+", L: acc, R: term}
				}
			}
			rhs = acc
		case simulink.Product:
			var acc Expr
			for p := 1; p <= len(feeds[name]); p++ {
				if acc == nil {
					acc = in(name, p)
				} else {
					acc = Binary{Op: "*", L: acc, R: in(name, p)}
				}
			}
			rhs = acc
		case simulink.Divide:
			rhs = Binary{Op: "/", L: in(name, 1), R: in(name, 2)}
		case simulink.RelOp:
			op := map[expr.CmpOp]string{
				expr.CmpLT: "<", expr.CmpGT: ">", expr.CmpLE: "<=",
				expr.CmpGE: ">=", expr.CmpEQ: "=", expr.CmpNE: "<>",
			}[b.Op]
			rhs = Binary{Op: op, L: in(name, 1), R: in(name, 2)}
		case simulink.Logic:
			switch b.Logic {
			case simulink.LogicNot:
				rhs = Unary{Op: "not", X: in(name, 1)}
			default:
				op := map[simulink.LogicOp]string{
					simulink.LogicAnd: "and", simulink.LogicOr: "or", simulink.LogicXor: "xor",
				}[b.Logic]
				var acc Expr
				for p := 1; p <= len(feeds[name]); p++ {
					if acc == nil {
						acc = in(name, p)
					} else {
						acc = Binary{Op: op, L: acc, R: in(name, p)}
					}
				}
				rhs = acc
			}
		case simulink.Saturation:
			x := in(name, 1)
			rhs = Ite{
				Cond: Binary{Op: ">=", L: x, R: Num{b.Hi}},
				Then: Num{b.Hi},
				Else: Ite{
					Cond: Binary{Op: "<=", L: x, R: Num{b.Lo}},
					Then: Num{b.Lo},
					Else: x,
				},
			}
		case simulink.Switch:
			rhs = Ite{
				Cond: Binary{Op: ">=", L: in(name, 2), R: Num{b.Value}},
				Then: in(name, 1),
				Else: in(name, 3),
			}
		case simulink.Fcn:
			rhs = Call{Fn: b.Fn.String(), Arg: in(name, 1)}
		case simulink.MinMax:
			op := "<="
			if b.Max {
				op = ">="
			}
			acc := in(name, 1)
			for p := 2; p <= len(feeds[name]); p++ {
				next := in(name, p)
				acc = Ite{
					Cond: Binary{Op: op, L: acc, R: next},
					Then: acc,
					Else: next,
				}
			}
			rhs = acc
		case simulink.DeadZone:
			x := in(name, 1)
			rhs = Ite{
				Cond: Binary{Op: ">=", L: x, R: Num{b.Hi}},
				Then: Binary{Op: "-", L: x, R: Num{b.Hi}},
				Else: Ite{
					Cond: Binary{Op: "<=", L: x, R: Num{b.Lo}},
					Then: Binary{Op: "-", L: x, R: Num{b.Lo}},
					Else: Num{0},
				},
			}
		}
		n.Equations = append(n.Equations, Equation{Target: name, Rhs: rhs})
	}
	return &Program{Nodes: []*Node{n}}, nil
}

// ---------------------------------------------------------------------------
// Lustre → AB extraction (the second arrow of Fig. 3).

// extractor is the lowering's circuit emitter. It lowers instant 0 only:
// numeric flows are inlined into the atoms that read them, and pre and ->
// are rejected.
type extractor struct {
	*Lowering[*circuit.Gate]
	atoms  map[string]*circuit.Gate
	aux    []*circuit.Gate
	auxSeq int
}

// Extract converts the program's main node into a verification circuit:
// the conjunction of all Boolean outputs (plus auxiliary definitions from
// numeric if-then-else). Numeric outputs are returned separately.
func Extract(p *Program) (*circuit.Circuit, map[string]expr.Expr, error) {
	tab, err := NewTable(p)
	if err != nil {
		return nil, nil, err
	}
	ex := &extractor{atoms: map[string]*circuit.Gate{}}
	ex.Lowering = NewLowering[*circuit.Gate](tab, ex)

	var gates []*circuit.Gate
	nums := map[string]expr.Expr{}
	for _, d := range tab.Node.Outputs {
		if d.Type == TBool {
			g, err := ex.Bool(d.Name, 0)
			if err != nil {
				return nil, nil, err
			}
			gates = append(gates, g)
		} else {
			e, err := ex.Num(d.Name, 0)
			if err != nil {
				return nil, nil, err
			}
			nums[d.Name] = e
		}
	}
	gates = append(gates, ex.aux...)
	if len(gates) == 0 {
		return nil, nums, fmt.Errorf("lustre: node %s has no Boolean outputs", tab.Node.Name)
	}
	var out *circuit.Gate
	if len(gates) == 1 {
		out = gates[0]
	} else {
		out = circuit.And(gates...)
	}
	return circuit.New(out), nums, nil
}

// ExtractProblem lowers the program straight to an AB problem.
func ExtractProblem(p *Program) (*core.Problem, error) {
	c, _, err := Extract(p)
	if err != nil {
		return nil, err
	}
	return core.FromCircuit(c), nil
}

func (ex *extractor) Const(v bool) *circuit.Gate        { return circuit.Const(v) }
func (ex *extractor) Not(g *circuit.Gate) *circuit.Gate { return circuit.Not(g) }

func (ex *extractor) Gate(op string, a, b *circuit.Gate) (*circuit.Gate, error) {
	switch op {
	case "and":
		return circuit.And(a, b), nil
	case "or":
		return circuit.Or(a, b), nil
	case "xor":
		return circuit.Xor(a, b), nil
	}
	return circuit.Implies(a, b), nil
}

func (ex *extractor) Ite(c, a, b *circuit.Gate) (*circuit.Gate, error) {
	return circuit.Ite(c, a, b), nil
}

func (ex *extractor) Atom(a expr.Atom) (*circuit.Gate, error) { return ex.atomGate(a), nil }

// atomGate shares gates between identical atoms.
func (ex *extractor) atomGate(a expr.Atom) *circuit.Gate {
	key := a.String() + "#" + a.Domain.String()
	if g, ok := ex.atoms[key]; ok {
		return g
	}
	g := circuit.AtomGate(a)
	ex.atoms[key] = g
	return g
}

func (ex *extractor) BoolInput(name string, _ int) *circuit.Gate { return circuit.Input(name) }

func (ex *extractor) NumInput(name string, _ int) (expr.Expr, error) {
	ty, _ := ex.Type(name)
	return ex.Var(name, ty == TInt), nil
}

func (ex *extractor) NumFlow(_ string, _ int, e expr.Expr) (expr.Expr, error) { return e, nil }

// NumIte introduces an auxiliary variable v with the guarded definition
// (c → v = a) ∧ (¬c → v = b). v is real-typed, so atoms that read it are
// real even when both branches are integer.
func (ex *extractor) NumIte(c *circuit.Gate, a, b expr.Expr, dom expr.Domain, _ int) (expr.Expr, error) {
	ex.auxSeq++
	v := expr.V(fmt.Sprintf("%s.ite%d", ex.Node.Name, ex.auxSeq))
	ex.aux = append(ex.aux,
		circuit.Implies(c, ex.atomGate(expr.NewAtom(v, expr.CmpEQ, a, dom))),
		circuit.Implies(circuit.Not(c), ex.atomGate(expr.NewAtom(v, expr.CmpEQ, b, dom))),
	)
	return v, nil
}

var errStateful = errors.New("lustre: pre and -> need a stateful analysis (package mc); Extract is combinational")

func (ex *extractor) Init() (*circuit.Gate, error)    { return nil, errStateful }
func (ex *extractor) PreBool() (*circuit.Gate, error) { return nil, errStateful }
func (ex *extractor) PreNum(bool) (expr.Expr, error)  { return nil, errStateful }
