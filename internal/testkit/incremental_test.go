package testkit

import (
	"context"
	"testing"

	"absolver/internal/core"
)

// incrementalSeeds is sized so each fragment sees a spread of sat, unsat
// and delta-flipped instances while the suite stays under a few seconds.
// It covers the inprocessing suite's seeds too (inprocessingSeeds).
const incrementalSeeds = 25

// TestIncrementalDifferential drives the push/assert/solve/pop script
// across every fragment and seed with three variants: the default
// engine, the theory cache off and SAT inprocessing off. Session verdicts
// must match fresh-engine flattened solves, the oracle and the other
// variants at every step, and pops must leave no contamination — with
// inprocessing on, that is the probe for a pass eating a guarded frame
// clause.
func TestIncrementalDifferential(t *testing.T) {
	o := &Oracle{}
	variants := []core.KnobSet{
		0,
		core.Config{NoTheoryCache: true}.KnobSet(),
		core.Config{NoInprocess: true}.KnobSet(),
	}
	for frag := Fragment(0); frag < NumFragments; frag++ {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			decided := 0
			for seed := int64(0); seed < incrementalSeeds; seed++ {
				rep, err := RunSessionDifferential(seed, frag, o, variants...)
				if err != nil {
					t.Fatalf("reproduce with %s: %v", reproCall("RunSessionDifferential", seed, frag, variants...), err)
				}
				for _, st := range rep.Steps {
					if st.Oracle != Inconclusive {
						decided++
					}
				}
			}
			// The suite must not silently degenerate into all-inconclusive.
			if decided == 0 {
				t.Fatalf("oracle decided no step across %d seeds", incrementalSeeds)
			}
		})
	}
}

// TestIncrementalPoppedAssertionLeavesNoLemmas is the focused
// contamination probe: a frame whose assertion flips the verdict to unsat
// must, once popped, leave the session answering sat again, and the lemma
// log must audit clean against the oracle.
func TestIncrementalPoppedAssertionLeavesNoLemmas(t *testing.T) {
	o := &Oracle{}
	for frag := Fragment(0); frag < NumFragments; frag++ {
		for seed := int64(0); seed < incrementalSeeds; seed++ {
			base := Generate(seed, frag)
			sess, err := core.NewSession(base, core.Config{CheckModels: true, RecordLemmas: true})
			if err != nil {
				t.Fatal(err)
			}
			before, err := sess.Solve(context.Background())
			if err != nil || before.Status != core.StatusSat {
				continue // only satisfiable bases make the flip observable
			}
			// Assert the negation of the found model's first clause-relevant
			// literal set: blocking the whole model keeps the problem in the
			// same fragment while guaranteeing search activity in the frame.
			blocking := make([]int, 0, base.NumVars)
			for i, v := range before.Model.Bool[:base.NumVars] {
				if v {
					blocking = append(blocking, -(i + 1))
				} else {
					blocking = append(blocking, i+1)
				}
			}
			sess.Push()
			if err := sess.AssertClause(blocking...); err != nil {
				t.Fatalf("seed=%d frag=%v: %v", seed, frag, err)
			}
			if _, err := sess.Solve(context.Background()); err != nil {
				t.Fatalf("seed=%d frag=%v framed solve: %v", seed, frag, err)
			}
			if err := sess.Pop(); err != nil {
				t.Fatalf("seed=%d frag=%v: %v", seed, frag, err)
			}
			after, err := sess.Solve(context.Background())
			if err != nil {
				t.Fatalf("seed=%d frag=%v post-pop solve: %v", seed, frag, err)
			}
			if after.Status != core.StatusSat {
				t.Fatalf("seed=%d frag=%v: sat base answered %v after push/pop", seed, frag, after.Status)
			}
			if err := o.AuditLemmas(sess.Problem(), sess.Lemmas()); err != nil {
				t.Fatalf("seed=%d frag=%v lemma audit: %v", seed, frag, err)
			}
		}
	}
}
