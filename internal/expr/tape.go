package expr

import "math"

// Tape is an expression compiled to postfix code over a variable slot
// table: variables become slot indices into a []float64 point, constants
// are inlined, and evaluation runs over a caller-owned stack instead of
// walking the tree and looking names up in an Env. A tape computes exactly
// what Expr.Eval computes — the same operations on the same operands in
// the same order, so the same float64 bits — and fails exactly where
// Expr.Eval returns an error. It is immutable after Compile and safe for
// concurrent use with distinct stacks.
type Tape struct {
	code  []instr
	depth int
}

type tapeOp uint8

const (
	tConst tapeOp = iota
	tVar
	tFail // an unbound variable, or an operator Eval does not know
	tNeg
	tAdd
	tSub
	tMul
	tDiv
	tSin
	tCos
	tExp
	tLog
	tSqrt
	tAbs
)

// instr is one tape instruction: push a constant, push slot's value, or
// apply an operator to the top of the stack.
type instr struct {
	op   tapeOp
	slot int32
	c    float64
}

var binOps = [...]tapeOp{OpAdd: tAdd, OpSub: tSub, OpMul: tMul, OpDiv: tDiv}

var callOps = [...]tapeOp{
	FuncSin: tSin, FuncCos: tCos, FuncExp: tExp,
	FuncLog: tLog, FuncSqrt: tSqrt, FuncAbs: tAbs,
}

// Compile translates e into a tape whose variables are read from the
// point slice at slot[name]. A variable missing from slot compiles to an
// instruction that fails, as Eval fails on an unbound variable.
func Compile(e Expr, slot map[string]int) Tape {
	var t Tape
	t.emit(e, slot, 0)
	return t
}

// emit appends e's code, sp being the stack height before it runs.
func (t *Tape) emit(e Expr, slot map[string]int, sp int) {
	if sp+1 > t.depth {
		t.depth = sp + 1
	}
	switch x := e.(type) {
	case Const:
		t.code = append(t.code, instr{op: tConst, c: x.V})
	case Var:
		if s, ok := slot[x.Name]; ok {
			t.code = append(t.code, instr{op: tVar, slot: int32(s)})
		} else {
			t.code = append(t.code, instr{op: tFail})
		}
	case Neg:
		t.emit(x.X, slot, sp)
		t.code = append(t.code, instr{op: tNeg})
	case Bin:
		t.emit(x.L, slot, sp)
		t.emit(x.R, slot, sp+1)
		op := tFail
		if x.Op >= 0 && int(x.Op) < len(binOps) {
			op = binOps[x.Op]
		}
		t.code = append(t.code, instr{op: op})
	case Call:
		t.emit(x.Arg, slot, sp)
		op := tFail
		if x.Fn >= 0 && int(x.Fn) < len(callOps) {
			op = callOps[x.Fn]
		}
		t.code = append(t.code, instr{op: op})
	default:
		t.code = append(t.code, instr{op: tFail})
	}
}

// Depth is the stack length Eval needs.
func (t *Tape) Depth() int { return t.depth }

// Eval computes the compiled expression at the point x, using stack as
// scratch (it allocates one when stack is shorter than Depth). ok is false
// exactly where Expr.Eval returns an error: division by zero, log of a
// non-positive number, sqrt of a negative one, an unbound variable.
func (t *Tape) Eval(x, stack []float64) (v float64, ok bool) {
	if len(stack) < t.depth {
		stack = make([]float64, t.depth)
	}
	sp := 0
	for _, in := range t.code {
		switch in.op {
		case tConst:
			stack[sp] = in.c
			sp++
		case tVar:
			stack[sp] = x[in.slot]
			sp++
		case tNeg:
			stack[sp-1] = -stack[sp-1]
		case tAdd:
			sp--
			stack[sp-1] = stack[sp-1] + stack[sp]
		case tSub:
			sp--
			stack[sp-1] = stack[sp-1] - stack[sp]
		case tMul:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp]
		case tDiv:
			sp--
			if stack[sp] == 0 {
				return 0, false
			}
			stack[sp-1] = stack[sp-1] / stack[sp]
		case tSin:
			stack[sp-1] = math.Sin(stack[sp-1])
		case tCos:
			stack[sp-1] = math.Cos(stack[sp-1])
		case tExp:
			stack[sp-1] = math.Exp(stack[sp-1])
		case tLog:
			if stack[sp-1] <= 0 {
				return 0, false
			}
			stack[sp-1] = math.Log(stack[sp-1])
		case tSqrt:
			if stack[sp-1] < 0 {
				return 0, false
			}
			stack[sp-1] = math.Sqrt(stack[sp-1])
		case tAbs:
			stack[sp-1] = math.Abs(stack[sp-1])
		default: // tFail
			return 0, false
		}
	}
	return stack[0], true
}
