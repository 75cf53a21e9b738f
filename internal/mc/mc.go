// Package mc is the model-checking frontend: bounded model checking plus
// k-induction over the stateful mini-Lustre dialect (and Simulink models
// via lustre.FromSimulink). The transition relation is unrolled into
// timestep-indexed AB-problems over one warm core.Session — one push frame
// per depth, the init/step distinction carried by an assumption literal —
// so every depth pays only for the newly encoded instant and the Boolean
// and theory state learned at shallower depths is reused.
//
// At each depth d the checker runs
//
//	base d:  assume  vInit ∧ p@0 ∧ … ∧ p@d-1 ∧ ¬p@d
//	step d:  assume          p@0 ∧ … ∧ p@d-1 ∧ ¬p@d     (vInit free)
//
// A satisfiable base is a concrete counterexample of minimal depth d
// (Falsified). An unsatisfiable step at depth d is a k-induction proof
// (Proved with K = d): together with the base cases 0..d-1 it rules out a
// minimal counterexample at any depth — see DESIGN.md §12 for the
// soundness argument, including why vInit must stay free in the step case.
// If neither fires by MaxDepth, the verdict is BoundReached.
package mc

import (
	"context"
	"fmt"
	"math"
	"time"

	"absolver/internal/core"
	"absolver/internal/lustre"
)

// Verdict is the outcome of a Check call.
type Verdict string

// Verdicts.
const (
	Proved       Verdict = "proved"
	Falsified    Verdict = "falsified"
	BoundReached Verdict = "bound_reached"
)

// Trace is a concrete counterexample: one input valuation per instant,
// Booleans encoded 0/1 — directly replayable through lustre.Run and, for
// programs converted from block diagrams, through simulink.Simulate one
// instant at a time.
type Trace struct {
	Property string               `json:"property"`
	Step     int                  `json:"step"` // instant at which the property fails
	Inputs   []map[string]float64 `json:"inputs"`
}

// Result is the outcome of a Check call.
type Result struct {
	Verdict Verdict
	// K is the violation instant (Falsified), the induction depth (Proved),
	// or the deepest fully-checked depth (BoundReached; -1 when not even
	// depth 0 completed).
	K     int
	Trace *Trace // non-nil iff Falsified
	// Certified reports that the trace was replayed through the Lustre
	// evaluator and confirmed to violate the property at instant K. Replay
	// runs for every falsification; for programs with real-valued flows a
	// mismatch within solver tolerance clears Certified instead of failing.
	Certified bool
	// Reason explains a BoundReached verdict beyond depth exhaustion
	// (timeout, theory incompleteness).
	Reason string
	// Depths is the number of base depths explored (counting depth 0).
	Depths int
	// Induction reports whether a Proved verdict came from a k-induction
	// step check (always true for Proved).
	Induction bool
	Stats     core.Stats
}

// DepthEvent reports one solver phase at one depth to Options.Progress.
type DepthEvent struct {
	Depth  int           `json:"depth"`
	Phase  string        `json:"phase"` // "base" or "induction"
	Status string        `json:"status"`
	Wall   time.Duration `json:"-"`
}

// Options configures Check.
type Options struct {
	// Property names the Boolean flow to verify (G property). Empty selects
	// the node's sole Boolean output.
	Property string
	// MaxDepth is the deepest instant to unroll (inclusive; default 10).
	MaxDepth int
	// NoInduction disables the k-induction step checks, leaving pure BMC:
	// the checker can then falsify or exhaust the bound, never prove.
	NoInduction bool
	// Cold rebuilds a fresh session per depth instead of reusing one warm
	// session — the ablation baseline for the BENCH_8 table.
	Cold bool
	// InputBounds restricts numeric inputs to [lo, hi] as background
	// theory. Inputs without an entry are unconstrained.
	InputBounds map[string][2]float64
	// Progress, when set, receives one event per solver phase per depth.
	Progress func(DepthEvent)
	// Config tunes the underlying engine. RestartBoolean is rejected (the
	// unrolling lives in one session). A zero Config enables model checking
	// of sat verdicts (CheckModels).
	Config *core.Config
}

func (o *Options) maxDepth() int {
	if o.MaxDepth > 0 {
		return o.MaxDepth
	}
	return 10
}

func (o *Options) config() core.Config {
	if o.Config != nil {
		return *o.Config
	}
	return core.Config{CheckModels: true}
}

// resolveProperty picks and validates the property flow.
func resolveProperty(tab *lustre.Table, name string) (string, error) {
	n := tab.Node
	if name == "" {
		for _, d := range n.Outputs {
			if d.Type == lustre.TBool {
				if name != "" {
					return "", fmt.Errorf("mc: node %s has several Boolean outputs; name the property with -prop", n.Name)
				}
				name = d.Name
			}
		}
		if name == "" {
			return "", fmt.Errorf("mc: node %s has no Boolean output to use as property", n.Name)
		}
		return name, nil
	}
	ty, ok := tab.Type(name)
	if !ok {
		return "", fmt.Errorf("mc: property flow %s is not declared", name)
	}
	if ty != lustre.TBool {
		return "", fmt.Errorf("mc: property flow %s is %s, want bool", name, ty)
	}
	return name, nil
}

// Check verifies G(property) on the program's main node up to
// opts.MaxDepth, interleaving BMC base cases with k-induction step cases.
func Check(ctx context.Context, prog *lustre.Program, opts Options) (Result, error) {
	tab, err := lustre.NewTable(prog)
	if err != nil {
		return Result{}, err
	}
	prop, err := resolveProperty(tab, opts.Property)
	if err != nil {
		return Result{}, err
	}
	opts.Property = prop
	if opts.Cold {
		return checkCold(ctx, prog, tab, opts)
	}

	sess, err := core.NewSession(core.NewProblem(), opts.config())
	if err != nil {
		return Result{}, err
	}
	ur, err := newUnroller(sess, tab, opts.InputBounds)
	if err != nil {
		return Result{}, err
	}

	res := Result{Verdict: BoundReached, K: -1}
	var propLits []int
	for d := 0; d <= opts.maxDepth(); d++ {
		sess.Push()
		if err := ur.Step(d); err != nil {
			return res, err
		}
		pd, err := ur.Bool(prop, d)
		if err != nil {
			return res, err
		}

		done, err := checkDepth(ctx, sess, ur, prog, &opts, propLits, pd, d, &res)
		if done || err != nil {
			res.Stats = sess.Stats()
			return res, err
		}
		propLits = append(propLits, pd)
	}
	res.Stats = sess.Stats()
	return res, nil
}

// checkDepth runs the base and (optionally) induction phase for depth d,
// mutating res. It returns done=true when a final verdict was reached.
func checkDepth(ctx context.Context, sess *core.Session, ur *unroller, prog *lustre.Program, opts *Options, propLits []int, pd, d int, res *Result) (bool, error) {
	prop := opts.Property

	// Base case: a run from the initial instant that keeps the property up
	// to d-1 and breaks it at d.
	assumps := make([]int, 0, len(propLits)+2)
	assumps = append(assumps, ur.vInit)
	assumps = append(assumps, propLits...)
	assumps = append(assumps, -pd)
	r, err := sess.SolveUnderAssumptions(ctx, assumps)
	report(opts, DepthEvent{Depth: d, Phase: "base", Status: statusName(r.Status, err), Wall: r.Stats.WallTime})
	if err != nil {
		res.Reason = fmt.Sprintf("base check at depth %d: %v", d, err)
		return true, err
	}
	switch r.Status {
	case core.StatusSat:
		res.Verdict = Falsified
		res.K = d
		res.Depths = d + 1
		res.Trace = extractTrace(ur, r.Model, prop, d, opts.InputBounds)
		res.Certified, err = certify(prog, res.Trace, exactProgram(prog))
		return true, err
	case core.StatusUnknown:
		res.Reason = fmt.Sprintf("base check at depth %d returned unknown (incomplete theory)", d)
		return true, nil
	}
	res.K = d
	res.Depths = d + 1

	// Induction step: the same window with a free start. Unsat means no
	// reachable window of length d+1 can end in a violation.
	if !opts.NoInduction {
		r, err = sess.SolveUnderAssumptions(ctx, assumps[1:])
		report(opts, DepthEvent{Depth: d, Phase: "induction", Status: statusName(r.Status, err), Wall: r.Stats.WallTime})
		if err != nil {
			res.Reason = fmt.Sprintf("induction check at depth %d: %v", d, err)
			return true, err
		}
		if r.Status == core.StatusUnsat {
			res.Verdict = Proved
			res.Induction = true
			return true, nil
		}
	}
	return false, nil
}

// checkCold is the ablation path: a fresh session re-encodes instants 0..d
// for every depth d, paying the full unrolling cost each time.
func checkCold(ctx context.Context, prog *lustre.Program, tab *lustre.Table, opts Options) (Result, error) {
	res := Result{Verdict: BoundReached, K: -1}
	for d := 0; d <= opts.maxDepth(); d++ {
		sess, err := core.NewSession(core.NewProblem(), opts.config())
		if err != nil {
			return res, err
		}
		ur, err := newUnroller(sess, tab, opts.InputBounds)
		if err != nil {
			return res, err
		}
		var propLits []int
		for t := 0; t <= d; t++ {
			sess.Push()
			if err := ur.Step(t); err != nil {
				return res, err
			}
			if t < d {
				pt, err := ur.Bool(opts.Property, t)
				if err != nil {
					return res, err
				}
				propLits = append(propLits, pt)
			}
		}
		pd, err := ur.Bool(opts.Property, d)
		if err != nil {
			return res, err
		}
		prior := res.Stats
		done, err := checkDepth(ctx, sess, ur, prog, &opts, propLits, pd, d, &res)
		prior.Merge(sess.Stats())
		res.Stats = prior
		if done || err != nil {
			return res, err
		}
	}
	return res, nil
}

func report(opts *Options, ev DepthEvent) {
	if opts.Progress != nil {
		opts.Progress(ev)
	}
}

func statusName(s core.Status, err error) string {
	if err != nil {
		return "error"
	}
	switch s {
	case core.StatusSat:
		return "sat"
	case core.StatusUnsat:
		return "unsat"
	}
	return "unknown"
}

// extractTrace reads the per-instant input valuation out of a sat model.
// Integer inputs are rounded and all bounded inputs clamped: an input the
// unrolling never referenced is unconstrained in the model (the theory
// witness may omit it or give a fractional value), and its value cannot
// affect the violation.
func extractTrace(ur *unroller, m *core.Model, prop string, step int, bounds map[string][2]float64) *Trace {
	tr := &Trace{Property: prop, Step: step}
	for t := 0; t <= step; t++ {
		in := map[string]float64{}
		for _, d := range ur.Node.Inputs {
			if d.Type == lustre.TBool {
				// Step lowered every input, so Bool only reads its cache.
				if lit, err := ur.Bool(d.Name, t); err == nil && m != nil && lit-1 < len(m.Bool) && m.Bool[lit-1] {
					in[d.Name] = 1
				} else {
					in[d.Name] = 0
				}
				continue
			}
			var v float64
			if m != nil {
				v = m.Real[stepVar(d.Name, t)]
			}
			if d.Type == lustre.TInt {
				v = math.Round(v)
				if b, ok := bounds[d.Name]; ok {
					v = math.Min(math.Max(v, math.Ceil(b[0])), math.Floor(b[1]))
				}
			} else if b, ok := bounds[d.Name]; ok {
				v = math.Min(math.Max(v, b[0]), b[1])
			}
			in[d.Name] = v
		}
		tr.Inputs = append(tr.Inputs, in)
	}
	return tr
}

// exactProgram reports whether every flow is bool- or int-typed and no
// division or transcendental call appears — replay is then exact and a
// mismatch is an encoder bug rather than float tolerance.
func exactProgram(p *lustre.Program) bool {
	n := p.Main()
	for _, ds := range [][]lustre.VarDecl{n.Inputs, n.Outputs, n.Locals} {
		for _, d := range ds {
			if d.Type == lustre.TReal {
				return false
			}
		}
	}
	exact := true
	var walk func(e lustre.Expr)
	walk = func(e lustre.Expr) {
		switch x := e.(type) {
		case lustre.Unary:
			walk(x.X)
		case lustre.Binary:
			if x.Op == "/" {
				exact = false
			}
			walk(x.L)
			walk(x.R)
		case lustre.Ite:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case lustre.Call:
			exact = false
		}
	}
	for _, eq := range n.Equations {
		walk(eq.Rhs)
	}
	return exact
}

// certify replays the trace through the Lustre evaluator and checks that
// the property holds strictly before the reported step and fails at it.
// For exact (bool/int) programs a mismatch is returned as an error; for
// real-valued programs it clears the certification flag only.
func certify(prog *lustre.Program, tr *Trace, strict bool) (bool, error) {
	ok, err := Replay(prog, tr)
	if err != nil || !ok {
		if strict {
			if err == nil {
				err = fmt.Errorf("mc: internal: counterexample trace does not replay to a violation at instant %d", tr.Step)
			}
			return false, err
		}
		return false, nil
	}
	return true, nil
}

// Replay runs the trace through the step-semantics evaluator and reports
// whether the property holds at instants 0..Step-1 and fails at Step.
func Replay(prog *lustre.Program, tr *Trace) (bool, error) {
	vals, err := lustre.Run(prog, tr.Inputs)
	if err != nil {
		return false, err
	}
	if len(vals) != tr.Step+1 {
		return false, fmt.Errorf("mc: trace has %d instants, step is %d", len(vals), tr.Step)
	}
	for t := 0; t < tr.Step; t++ {
		if vals[t][tr.Property] == 0 {
			return false, nil
		}
	}
	return vals[tr.Step][tr.Property] == 0, nil
}
