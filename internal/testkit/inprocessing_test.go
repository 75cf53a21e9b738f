package testkit

import (
	"context"
	"testing"

	"absolver/internal/core"
)

// inprocessingSeeds matches the incremental suite's sizing: a spread of
// sat/unsat/flipped instances per fragment within a few seconds.
const inprocessingSeeds = 20

// TestInprocessingDifferential runs the inprocessing-on/off/oracle
// comparison on one-shot solves across every fragment and seed. Zero
// disagreements is the acceptance bar: inprocessing is an optimisation and
// must never move a verdict. The session-interleaved comparison, with
// selector-guarded frame clauses live while inprocessing runs, is the
// no_inprocess variant of TestIncrementalDifferential.
func TestInprocessingDifferential(t *testing.T) {
	o := &Oracle{}
	variants := []core.KnobSet{0, core.Config{NoInprocess: true}.KnobSet()}
	for frag := Fragment(0); frag < NumFragments; frag++ {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			decided := 0
			for seed := int64(0); seed < inprocessingSeeds; seed++ {
				rep, err := RunDifferential(seed, frag, o, variants...)
				if err != nil {
					t.Fatalf("reproduce with %s: %v", reproCall("RunDifferential", seed, frag, variants...), err)
				}
				if rep.Oracle != Inconclusive {
					decided++
				}
			}
			if decided == 0 {
				t.Fatalf("oracle decided nothing across %d seeds", inprocessingSeeds)
			}
		})
	}
}

// TestInprocessingNeverSilencesLiveFrame pins the selector-guard rule
// directly: a frame asserting a contradiction over fresh variables stays
// unsat for as long as it is live — across enough solve calls that
// inprocessing passes run with the guarded clauses in the database — and
// sat again the moment it is popped. If subsumption strengthened the
// ¬sel guard away, the contradiction would become permanent and the
// post-pop solve would answer unsat.
func TestInprocessingNeverSilencesLiveFrame(t *testing.T) {
	o := &Oracle{}
	ctx := context.Background()
	for frag := Fragment(0); frag < NumFragments; frag++ {
		for seed := int64(0); seed < inprocessingSeeds; seed++ {
			base := Generate(seed, frag)
			sess, err := core.NewSession(base, core.Config{CheckModels: true, RecordLemmas: true})
			if err != nil {
				t.Fatal(err)
			}
			before, err := sess.Solve(ctx)
			if err != nil || before.Status != core.StatusSat {
				continue // need a sat base to observe the frame flip
			}
			// Fresh propositional variables u, w with u∧¬w∧(¬u∨w): unsat
			// under the frame, trivially removable by Pop. The clauses are
			// binary-heavy on fresh variables — prime subsumption bait.
			u := base.NumVars + 1
			w := base.NumVars + 2
			sess.Push()
			for _, cl := range [][]int{{u}, {-w}, {-u, w}} {
				if err := sess.AssertClause(cl...); err != nil {
					t.Fatalf("seed=%d frag=%v: %v", seed, frag, err)
				}
			}
			// Several solves: the first runs the solver's initial
			// inprocessing pass, later ones re-run it as the DB changes.
			for k := 0; k < 3; k++ {
				res, err := sess.Solve(ctx)
				if err != nil {
					t.Fatalf("seed=%d frag=%v framed solve %d: %v", seed, frag, k, err)
				}
				if res.Status != core.StatusUnsat {
					t.Fatalf("seed=%d frag=%v framed solve %d: %v, want unsat", seed, frag, k, res.Status)
				}
			}
			if err := sess.Pop(); err != nil {
				t.Fatalf("seed=%d frag=%v: %v", seed, frag, err)
			}
			after, err := sess.Solve(ctx)
			if err != nil {
				t.Fatalf("seed=%d frag=%v post-pop solve: %v", seed, frag, err)
			}
			if after.Status != core.StatusSat {
				t.Fatalf("seed=%d frag=%v: sat base answered %v after popping the contradictory frame — a guarded clause lost its selector", seed, frag, after.Status)
			}
			if err := o.AuditLemmas(sess.Problem(), sess.Lemmas()); err != nil {
				t.Fatalf("seed=%d frag=%v lemma audit: %v", seed, frag, err)
			}
		}
	}
}
