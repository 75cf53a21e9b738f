package lustre

import (
	"fmt"
	"math"
	"sort"
)

// This file gives the mini-Lustre dialect an executable step semantics. An
// Evaluator runs the main node one instant at a time under concrete inputs,
// which is what trace replay (package mc) and the explicit-state bounded
// checker (package testkit) need. All values are float64 with Booleans
// encoded as 0/1, mirroring simulink.Simulate's input convention, so a
// counterexample trace can be fed to either replay path unchanged.
//
// State is the valuation of the program's pre-expressions: `pre e` at
// instant t>0 is the value e had at t-1; at t=0 it is 0 (false). `a -> b`
// is a at instant 0 and b afterwards.

// Evaluator executes the main node instant by instant. It keeps its own
// expression semantics, apart from the lowering, because it is the
// reference that model-checking verdicts are tested against.
type Evaluator struct {
	*Table

	preOps map[string]Expr // FormatExpr(operand) → operand
	t      int
	prev   map[string]float64 // pre-expression key → value at instant t-1

	// per-step scratch
	vals map[string]float64
	busy map[string]bool
	in   map[string]float64
}

// NewEvaluator validates the program's main node (see NewTable) and
// returns an evaluator positioned before the first instant.
func NewEvaluator(p *Program) (*Evaluator, error) {
	tab, err := NewTable(p)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{Table: tab, preOps: map[string]Expr{}, prev: map[string]float64{}}
	for _, eq := range tab.Node.Equations {
		collectPre(eq.Rhs, ev.preOps)
	}
	return ev, nil
}

func collectPre(e Expr, out map[string]Expr) {
	switch x := e.(type) {
	case Unary:
		if x.Op == "pre" {
			out[FormatExpr(x.X)] = x.X
		}
		collectPre(x.X, out)
	case Binary:
		collectPre(x.L, out)
		collectPre(x.R, out)
	case Ite:
		collectPre(x.Cond, out)
		collectPre(x.Then, out)
		collectPre(x.Else, out)
	case Call:
		collectPre(x.Arg, out)
	}
}

// Clone returns an independent evaluator sharing the (immutable) program
// but with its own copy of the pre-state. Used by the explicit-state
// checker to branch over input choices.
func (ev *Evaluator) Clone() *Evaluator {
	cp := *ev
	cp.prev = make(map[string]float64, len(ev.prev))
	for k, v := range ev.prev {
		cp.prev[k] = v
	}
	cp.vals, cp.busy, cp.in = nil, nil, nil
	return &cp
}

// StateKey serialises the pre-state (plus the init/step phase) into a
// comparable string, for state deduplication in bounded exhaustive search.
func (ev *Evaluator) StateKey() string {
	keys := make([]string, 0, len(ev.prev))
	for k := range ev.prev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "t0"
	if ev.t > 0 {
		s = "t+"
	}
	for _, k := range keys {
		s += fmt.Sprintf("|%s=%g", k, ev.prev[k])
	}
	return s
}

// Step executes one instant under the given inputs (Booleans as 0/1,
// missing inputs default to 0) and returns the valuation of every declared
// flow, with Boolean flows encoded as 0/1.
func (ev *Evaluator) Step(inputs map[string]float64) (map[string]float64, error) {
	ev.vals = make(map[string]float64, len(ev.types))
	ev.busy = map[string]bool{}
	ev.in = inputs
	for name := range ev.types {
		if _, err := ev.flow(name); err != nil {
			return nil, err
		}
	}
	// Snapshot the pre-operands against the *current* instant before
	// advancing, so nested pre (pre (pre x)) reads the old state.
	next := make(map[string]float64, len(ev.preOps))
	for key, op := range ev.preOps {
		v, err := ev.eval(op)
		if err != nil {
			return nil, err
		}
		next[key] = v
	}
	ev.prev = next
	ev.t++
	out := ev.vals
	ev.vals, ev.busy, ev.in = nil, nil, nil
	return out, nil
}

func (ev *Evaluator) flow(name string) (float64, error) {
	if v, ok := ev.vals[name]; ok {
		return v, nil
	}
	if ev.inputs[name] {
		v := ev.in[name]
		if ev.types[name] == TBool && v != 0 {
			v = 1
		}
		ev.vals[name] = v
		return v, nil
	}
	rhs, ok := ev.eqs[name]
	if !ok {
		return 0, fmt.Errorf("lustre: no equation for flow %s", name)
	}
	if ev.busy[name] {
		return 0, fmt.Errorf("lustre: cyclic definition of %s", name)
	}
	ev.busy[name] = true
	defer delete(ev.busy, name)
	v, err := ev.eval(rhs)
	if err != nil {
		return 0, err
	}
	ev.vals[name] = v
	return v, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (ev *Evaluator) eval(e Expr) (float64, error) {
	switch x := e.(type) {
	case Num:
		return x.V, nil
	case BoolLit:
		return b2f(x.V), nil
	case Ref:
		return ev.flow(x.Name)
	case Unary:
		switch x.Op {
		case "not":
			v, err := ev.eval(x.X)
			if err != nil {
				return 0, err
			}
			return b2f(v == 0), nil
		case "-":
			v, err := ev.eval(x.X)
			if err != nil {
				return 0, err
			}
			return -v, nil
		case "pre":
			if ev.t == 0 {
				return 0, nil
			}
			key := FormatExpr(x.X)
			v, ok := ev.prev[key]
			if !ok {
				return 0, fmt.Errorf("lustre: no previous value for pre %s", key)
			}
			return v, nil
		}
		return 0, fmt.Errorf("lustre: unknown unary operator %q", x.Op)
	case Binary:
		if x.Op == "->" {
			if ev.t == 0 {
				return ev.eval(x.L)
			}
			return ev.eval(x.R)
		}
		l, err := ev.eval(x.L)
		if err != nil {
			return 0, err
		}
		r, err := ev.eval(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("lustre: division by zero at instant %d", ev.t)
			}
			return l / r, nil
		case "<":
			return b2f(l < r), nil
		case "<=":
			return b2f(l <= r), nil
		case ">":
			return b2f(l > r), nil
		case ">=":
			return b2f(l >= r), nil
		case "=":
			return b2f(l == r), nil
		case "<>":
			return b2f(l != r), nil
		case "and":
			return b2f(l != 0 && r != 0), nil
		case "or":
			return b2f(l != 0 || r != 0), nil
		case "xor":
			return b2f((l != 0) != (r != 0)), nil
		case "=>":
			return b2f(l == 0 || r != 0), nil
		}
		return 0, fmt.Errorf("lustre: unknown operator %q", x.Op)
	case Ite:
		c, err := ev.eval(x.Cond)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return ev.eval(x.Then)
		}
		return ev.eval(x.Else)
	case Call:
		v, err := ev.eval(x.Arg)
		if err != nil {
			return 0, err
		}
		switch x.Fn {
		case "sin":
			return math.Sin(v), nil
		case "cos":
			return math.Cos(v), nil
		case "exp":
			return math.Exp(v), nil
		case "log":
			if v <= 0 {
				return 0, fmt.Errorf("lustre: log of non-positive value at instant %d", ev.t)
			}
			return math.Log(v), nil
		case "sqrt":
			if v < 0 {
				return 0, fmt.Errorf("lustre: sqrt of negative value at instant %d", ev.t)
			}
			return math.Sqrt(v), nil
		case "abs":
			return math.Abs(v), nil
		}
		return 0, fmt.Errorf("lustre: unknown function %q", x.Fn)
	}
	return 0, fmt.Errorf("lustre: cannot evaluate %T", e)
}

// Run replays a whole input trace (one map per instant) from the initial
// instant and returns the per-instant flow valuations.
func Run(p *Program, steps []map[string]float64) ([]map[string]float64, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]float64, 0, len(steps))
	for _, in := range steps {
		vals, err := ev.Step(in)
		if err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, nil
}
