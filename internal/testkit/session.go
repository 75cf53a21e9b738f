package testkit

import (
	"context"
	"fmt"
	"math/rand"

	"absolver/internal/core"
)

// Session differential checking: a session's push/assert/solve/pop
// sequence must agree, step by step, with solving each step's flattened
// problem from scratch — both against a fresh engine and against the
// reference oracle — and popping a frame must leave no trace (the verdicts
// before a push and after the matching pop are the same problem and must
// match). This is where incremental soundness bugs hide: a learned clause
// that should have carried the frame's selector but didn't survives the
// pop and turns a satisfiable step into "unsat". Running the script once
// per variant also probes optimisations that must never move a verdict
// while frames are live: with SAT inprocessing on, a pass that deleted or
// strengthened a guarded frame clause would make a popped frame keep
// constraining (or stop constraining) the problem, and the step verdicts
// would drift between variants or against the oracle.

// SessionStep is one solve of the session script together with its
// reference verdicts.
type SessionStep struct {
	// Depth is the session depth at the solve.
	Depth int
	// Session holds each variant's session verdict and Flat each
	// variant's fresh-engine verdict on the flattened problem, in the
	// order the variants were given (StatusUnknown when inconclusive).
	Session, Flat []core.Status
	// Oracle is the reference verdict on the flattened problem.
	Oracle Verdict
}

// SessionReport summarises one session differential run.
type SessionReport struct {
	Seed     int64
	Fragment Fragment
	// Steps is the solve sequence: base, +delta1, +delta1+delta2, back to
	// +delta1, back to base.
	Steps []SessionStep
	// Lemmas is the number of session lemmas audited, over all variants.
	Lemmas int
}

// genDeltaClauses derives a deterministic clause delta over the base
// problem's existing variables (no new atoms, so the oracle stays exact).
func genDeltaClauses(rng *rand.Rand, nVars, n int) [][]int {
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		width := 1 + rng.Intn(2)
		cl := make([]int, 0, width)
		for k := 0; k < width; k++ {
			lit := 1 + rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			cl = append(cl, lit)
		}
		out = append(out, cl)
	}
	return out
}

// RunSessionDifferential generates the (seed, fragment) base instance
// plus two deterministic clause deltas, then drives one session per
// variant (the default engine when none is given) through
//
//	solve; push+delta1; solve; push+delta2; solve; pop; solve; pop; solve
//
// checking at every step that each variant's session verdict agrees with
// a fresh engine of the same variant on the flattened problem, with the
// reference oracle and with every other variant (definitive verdicts
// only); that each variant's post-pop verdicts equal its pre-push
// counterparts; and finally that every unguarded lemma each session
// recorded is valid for the base problem (AuditLemmas — popped frames
// must leave no lemma contamination). A nil oracle uses defaults.
func RunSessionDifferential(seed int64, frag Fragment, o *Oracle, variants ...core.KnobSet) (SessionReport, error) {
	if len(variants) == 0 {
		variants = []core.KnobSet{0}
	}
	rep := SessionReport{Seed: seed, Fragment: frag}
	base := Generate(seed, frag)
	rng := rand.New(rand.NewSource(seed ^ 0x1CEB00DA))
	delta1 := genDeltaClauses(rng, base.NumVars, 1+rng.Intn(2))
	delta2 := genDeltaClauses(rng, base.NumVars, 1+rng.Intn(2))

	// flatten builds the from-scratch problem for a step's delta stack.
	flatten := func(deltas ...[][]int) *core.Problem {
		p := base.Clone()
		for _, d := range deltas {
			for _, cl := range d {
				p.AddClause(cl...)
			}
		}
		return p
	}
	script := []struct {
		push [][]int // clauses to assert in a new frame (nil = no push)
		pops int     // frames to pop before solving
		flat *core.Problem
	}{
		{nil, 0, flatten()},
		{delta1, 0, flatten(delta1)},
		{delta2, 0, flatten(delta1, delta2)},
		{nil, 1, flatten(delta1)},
		{nil, 1, flatten()},
	}

	sessions := make([]*core.Session, len(variants))
	labels := make([]string, 0, 2*len(variants))
	for i, k := range variants {
		s, err := core.NewSession(base, variantConfig(k))
		if err != nil {
			return rep, fmt.Errorf("session[%s]: seed=%d frag=%v: %v", variantName(k), seed, frag, err)
		}
		sessions[i] = s
		labels = append(labels, "session["+variantName(k)+"]", "fresh engine["+variantName(k)+"]")
	}

	ctx := context.Background()
	for si, st := range script {
		ov, err := o.Decide(st.flat)
		if err != nil {
			return rep, fmt.Errorf("oracle: seed=%d frag=%v step=%d: %v", seed, frag, si, err)
		}
		step := SessionStep{Oracle: ov}
		var verdicts []core.Status // session and flat verdict per variant, as labels
		for vi, sess := range sessions {
			if st.push != nil {
				sess.Push()
				for _, cl := range st.push {
					if err := sess.AssertClause(cl...); err != nil {
						return rep, fmt.Errorf("assert: seed=%d frag=%v step=%d: %v", seed, frag, si, err)
					}
				}
			}
			for k := 0; k < st.pops; k++ {
				if err := sess.Pop(); err != nil {
					return rep, fmt.Errorf("pop: seed=%d frag=%v step=%d: %v", seed, frag, si, err)
				}
			}
			step.Depth = sess.Depth()
			s, err := engineStatus(sess.Solve(ctx))
			if err != nil {
				return rep, fmt.Errorf("%s solve: seed=%d frag=%v step=%d: %v", labels[2*vi], seed, frag, si, err)
			}
			f, err := engineStatus(core.NewEngine(st.flat.Clone(), variantConfig(variants[vi])).Solve())
			if err != nil {
				return rep, fmt.Errorf("%s solve: seed=%d frag=%v step=%d: %v", labels[2*vi+1], seed, frag, si, err)
			}
			step.Session = append(step.Session, s)
			step.Flat = append(step.Flat, f)
			verdicts = append(verdicts, s, f)
		}
		rep.Steps = append(rep.Steps, step)
		if err := disagreement(labels, verdicts, ov); err != nil {
			return rep, fmt.Errorf("seed=%d frag=%v step=%d depth=%d: %v", seed, frag, si, step.Depth, err)
		}
	}

	// Pop symmetry per variant: step 3 re-solves step 1's problem, step 4
	// re-solves step 0's. Definitive verdicts must be identical — any
	// drift means a popped frame contaminated the session.
	for vi, k := range variants {
		for _, pair := range [][2]int{{1, 3}, {0, 4}} {
			a, b := rep.Steps[pair[0]].Session[vi], rep.Steps[pair[1]].Session[vi]
			if definitive(a) && definitive(b) && a != b {
				return rep, fmt.Errorf("contamination (%s): seed=%d frag=%v: step %d was %v, step %d re-solved it as %v",
					variantName(k), seed, frag, pair[0], a, pair[1], b)
			}
		}
	}

	// Lemma audit against the BASE problem: frame-guarded clauses carry
	// selector literals over unbound variables and are skipped by the
	// audit; everything else a session kept must be a theory fact valid
	// independent of any frame.
	for vi, sess := range sessions {
		lemmas := sess.Lemmas()
		rep.Lemmas += len(lemmas)
		if err := o.AuditLemmas(sess.Problem(), lemmas); err != nil {
			return rep, fmt.Errorf("audit (%s): seed=%d frag=%v: %v", variantName(variants[vi]), seed, frag, err)
		}
	}
	return rep, nil
}
