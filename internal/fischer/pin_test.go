package fischer

import (
	"fmt"
	"testing"

	"absolver/internal/core"
	"absolver/internal/smtlib"
)

// pinCase is one Fischer instance of the search-identity pin with the
// verdict and engine counters it produced when the goldens were recorded.
type pinCase struct {
	n, steps                  int
	fair                      Fairness
	broken                    bool
	status                    core.Status
	iterations, linearChecks  int
	conflictClauses, neSplits int
	pivots, simplexCalls      int
}

// pinCases covers N ∈ {2,3} × steps 3–6 × both fairness modes × safe
// (A=1, B=2) and broken (A=2, B=1) constants. The counters pin the search
// itself: a change to the linear layer that alters a verdict, a conflict
// clause or a simplex run shows here even when every verdict survives.
var pinCases = []pinCase{
	{2, 3, FairScheduled, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{2, 3, FairScheduled, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{2, 3, FairAll, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{2, 3, FairAll, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{2, 4, FairScheduled, false, core.StatusSat, 17, 23, 16, 2, 75, 23},
	{2, 4, FairScheduled, true, core.StatusSat, 15, 21, 14, 2, 75, 21},
	{2, 4, FairAll, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{2, 4, FairAll, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{2, 5, FairScheduled, false, core.StatusSat, 35, 53, 34, 7, 240, 53},
	{2, 5, FairScheduled, true, core.StatusSat, 34, 40, 33, 2, 95, 40},
	{2, 5, FairAll, false, core.StatusUnsat, 42, 41, 41, 0, 0, 41},
	{2, 5, FairAll, true, core.StatusSat, 37, 61, 36, 8, 319, 61},
	{2, 6, FairScheduled, false, core.StatusSat, 51, 79, 50, 11, 396, 79},
	{2, 6, FairScheduled, true, core.StatusSat, 50, 68, 49, 7, 283, 68},
	{2, 6, FairAll, false, core.StatusSat, 113, 173, 112, 21, 828, 173},
	{2, 6, FairAll, true, core.StatusSat, 75, 163, 74, 34, 1078, 163},
	{3, 3, FairScheduled, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 3, FairScheduled, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 3, FairAll, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 3, FairAll, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 4, FairScheduled, false, core.StatusSat, 22, 43, 21, 7, 330, 43},
	{3, 4, FairScheduled, true, core.StatusSat, 26, 44, 25, 6, 286, 44},
	{3, 4, FairAll, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 4, FairAll, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 5, FairScheduled, false, core.StatusSat, 87, 155, 86, 26, 1130, 155},
	{3, 5, FairScheduled, true, core.StatusSat, 51, 117, 50, 23, 1138, 117},
	{3, 5, FairAll, false, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 5, FairAll, true, core.StatusUnsat, 1, 0, 0, 0, 0, 0},
	{3, 6, FairScheduled, false, core.StatusSat, 94, 198, 93, 37, 1911, 198},
	{3, 6, FairScheduled, true, core.StatusSat, 87, 167, 86, 27, 1599, 167},
	{3, 6, FairAll, false, core.StatusUnsat, 180, 179, 179, 0, 0, 179},
	{3, 6, FairAll, true, core.StatusSat, 126, 274, 125, 58, 2683, 274},
}

func TestFischerSearchIdentity(t *testing.T) {
	for _, c := range pinCases {
		c := c
		name := fmt.Sprintf("N%d-steps%d-fair%d-broken%v", c.n, c.steps, c.fair, c.broken)
		t.Run(name, func(t *testing.T) {
			got := runPin(t, c.n, c.steps, c.fair, c.broken)
			got.n, got.steps, got.fair, got.broken = c.n, c.steps, c.fair, c.broken
			if got != c {
				t.Fatalf("search drifted:\n got  %+v\n want %+v", got, c)
			}
		})
	}
}

// runPin solves one instance through the SMT-LIB conversion pipeline and
// returns its verdict and counters.
func runPin(t *testing.T, n, steps int, fair Fairness, broken bool) pinCase {
	t.Helper()
	a, b := 1.0, 2.0
	if broken {
		a, b = b, a
	}
	in := Generate(Params{N: n, Steps: steps, Fair: fair, A: a, B: b})
	bm, err := smtlib.Parse(in.SMTLIB())
	if err != nil {
		t.Fatal(err)
	}
	lin := core.NewSimplexSolver()
	res, err := core.NewEngine(bm.ToProblem(), core.Config{Linear: lin}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	return pinCase{
		status:          res.Status,
		iterations:      st.Iterations,
		linearChecks:    st.LinearChecks,
		conflictClauses: st.ConflictClauses,
		neSplits:        st.NESplits,
		pivots:          lin.Pivots,
		simplexCalls:    lin.Calls,
	}
}
