package main

import (
	"fmt"
	"math/rand"
	"time"

	"absolver/internal/bench"
	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/fischer"
	"absolver/internal/smtlib"
	"absolver/internal/sudoku"
	"absolver/internal/testkit"
)

// parser times the parse half of set-up.
type parser struct{ info setupInfo }

func (p *parser) dimacs(src string) (*core.Problem, error) {
	start := time.Now()
	q, err := dimacs.ParseString(src)
	p.info.parse += time.Since(start)
	p.info.parseBytes += len(src)
	return q, err
}

func (p *parser) smtlib(src string) (*core.Problem, error) {
	start := time.Now()
	b, err := smtlib.Parse(src)
	var q *core.Problem
	if err == nil {
		q = b.ToProblem()
	}
	p.info.parse += time.Since(start)
	p.info.parseBytes += len(src)
	return q, err
}

// roundTrip renders a problem to extended DIMACS and parses it back; the
// solver only ever sees the rendered text or the parsed copy.
func (p *parser) roundTrip(q *core.Problem) (*core.Problem, string, error) {
	src, err := dimacs.WriteString(q)
	if err != nil {
		return nil, "", err
	}
	back, err := p.dimacs(src)
	return back, src, err
}

// Fischer deck: every cell of N ∈ {2,3} × unrolling depth ∈ {4,5,6} ×
// both fairness modes × {safe (B > A), broken (A > B)}, twice, except
// N=3 at depth 6: its instances take 1–3 s each, and with them a 35 s run
// would answer fewer than 100. The seed draws a scale for (A, B) per
// instance and the order within each copy of the grid. Scaling both
// constants keeps the instance's structure, so its cost varies little
// with the seed while its text does not repeat. A round is one copy of
// the grid, 20 instances, so the cut at the last complete round drops few
// answers: a slow run of 119 answers keeps 100 for the percentiles, where
// rounds of the whole deck kept 80.
func buildFischer(seed int64) (*engineDeck, setupInfo, error) {
	rng := rand.New(rand.NewSource(seed))
	var params []fischer.Params
	for rep := 0; rep < 2; rep++ {
		var grid []fischer.Params
		for _, n := range []int{2, 3} {
			for steps := 4; steps <= 6; steps++ {
				if n == 3 && steps == 6 {
					continue
				}
				for _, fair := range []fischer.Fairness{fischer.FairScheduled, fischer.FairAll} {
					for _, broken := range []bool{false, true} {
						c := float64(2+rng.Intn(15)) / 4 // 0.5 .. 4 in quarters: exact in binary
						a, b := c, 2*c
						if broken {
							a, b = b, a
						}
						grid = append(grid, fischer.Params{N: n, Steps: steps, Fair: fair, A: a, B: b})
					}
				}
			}
		}
		rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
		params = append(params, grid...)
	}
	var p parser
	d := &engineDeck{roundLen: len(params) / 2}
	for _, pr := range params {
		in := fischer.Generate(pr)
		q, err := p.smtlib(in.SMTLIB())
		if err != nil {
			return nil, p.info, fmt.Errorf("fischer %+v: %w", pr, err)
		}
		d.names = append(d.names, fmt.Sprintf("%s steps=%d fair=%d A=%g B=%g", in.Name, pr.Steps, pr.Fair, pr.A, pr.B))
		d.probs = append(d.probs, q)
	}
	// SAT models are certified; an UNSAT verdict has no independent
	// in-tree reference and is not checked.
	return d, p.info, nil
}

// The steering-nl slice is testkit's nonlinear fragment at generator
// seeds 0..steeringSlice-1, the same for every --seed, which sets the
// order. The fragment's cost is heavy-tailed: a few instances that fall
// back to PolyAR take most of the time, so slices drawn per seed answered
// from 19 to 48 instances per second on seeds 1-3.
const steeringSlice = 300

// Steering deck: Table 1 with Car steering first, so it finishes within
// the run, then the testkit slice in seeded order; the closed loop
// repeats the slice. Car steering is ROADMAP 5b's target, so a pass holds
// one copy of the slice and Car steering is most of a pass's time: a
// 1.5x faster Car steering moves verdicts_per_s by more than its bound,
// and so does a slower one. One client drives the deck: the slice's
// 90th percentile sits a few instances below a cliff from sub-millisecond
// to 10 ms instances, and with a second client running a penalty-solver
// instance beside it the light instances near the cliff slowed by
// different amounts each run, moving p90 between 0.41 and 0.66 ms.
func buildSteering(seed int64) (*engineDeck, setupInfo, error) {
	var p parser
	d := &engineDeck{clients: 1}
	var want []core.Status
	for _, in := range bench.Table1Instances() {
		q, err := in.Build()
		if err != nil {
			return nil, p.info, fmt.Errorf("%s: %w", in.Name, err)
		}
		if q, _, err = p.roundTrip(q); err != nil {
			return nil, p.info, fmt.Errorf("%s: %w", in.Name, err)
		}
		d.names = append(d.names, in.Name)
		d.probs = append(d.probs, q)
		want = append(want, in.Want)
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(steeringSlice) {
		q, _, err := p.roundTrip(testkit.Generate(int64(i), testkit.FragNonlinear))
		if err != nil {
			return nil, p.info, err
		}
		d.names = append(d.names, fmt.Sprintf("testkit.Generate(%d, FragNonlinear)", i))
		d.probs = append(d.probs, q)
	}
	table1 := len(want)
	d.head, d.roundLen = table1, steeringSlice
	oracle := newOracleMemo(d.probs)
	d.check = func(i int, r core.Result) error {
		if i < table1 {
			// The paper's verdicts.
			if r.Status != want[i] {
				return fmt.Errorf("verdict %v, Table 1 says %v", r.Status, want[i])
			}
			return nil
		}
		return oracle.agree(i, r.Status)
	}
	return d, p.info, nil
}

// sudoku-sat draws sudokuHard puzzles with 24 givens and sudokuEasy with
// 36; the deck takes one hard puzzle then two easy ones, so the median
// verdict falls among the easy puzzles and the 90th percentile among the
// hard ones rather than on the boundary between them.
const (
	sudokuHard = 128
	sudokuEasy = 64
)

func buildSudoku(seed int64) (*engineDeck, setupInfo, error) {
	var p parser
	d := &engineDeck{}
	var puzzles []sudoku.Puzzle
	var probs []*core.Problem
	var names []string
	for i := 0; i < sudokuHard+sudokuEasy; i++ {
		givens := 24
		if i >= sudokuHard {
			givens = 36
		}
		gen := seed*1_000_003 + int64(i)
		pz := sudoku.GeneratePuzzle(gen, givens)
		q, _, err := p.roundTrip(sudoku.EncodeMixed(&pz))
		if err != nil {
			return nil, p.info, err
		}
		puzzles = append(puzzles, pz)
		probs = append(probs, q)
		names = append(names, fmt.Sprintf("sudoku.GeneratePuzzle(%d, %d)", gen, givens))
	}
	d.roundLen = 3
	var ids []int // deck position -> puzzle
	for h := 0; h < sudokuHard; h++ {
		ids = append(ids, h, sudokuHard+(2*h)%sudokuEasy, sudokuHard+(2*h+1)%sudokuEasy)
	}
	for _, i := range ids {
		d.probs = append(d.probs, probs[i])
		d.names = append(d.names, names[i])
	}
	d.check = func(i int, r core.Result) error {
		// Every generated puzzle is solvable, so anything but a verified
		// grid is wrong; unknown only counts against decided_ratio.
		switch r.Status {
		case core.StatusUnsat:
			return fmt.Errorf("unsat on a solvable puzzle")
		case core.StatusSat:
			g, err := sudoku.DecodeMixed(r.Model)
			if err != nil {
				return err
			}
			return sudoku.Verify(&puzzles[ids[i]], g)
		}
		return nil
	}
	return d, p.info, nil
}

// oracleMemo decides problems with testkit's brute-force oracle, once
// each; the oracle shares no verdict-producing code with the engine.
type oracleMemo struct {
	probs []*core.Problem
	memo  map[int]testkit.Verdict
	o     testkit.Oracle
}

func newOracleMemo(probs []*core.Problem) *oracleMemo {
	return &oracleMemo{probs: probs, memo: map[int]testkit.Verdict{}}
}

func (m *oracleMemo) decide(i int) (testkit.Verdict, error) {
	if v, ok := m.memo[i]; ok {
		return v, nil
	}
	v, err := m.o.Decide(m.probs[i])
	if err != nil {
		return v, err
	}
	m.memo[i] = v
	return v, nil
}

// agree reports a definitive engine verdict the oracle contradicts. An
// inconclusive oracle leaves the verdict unchecked (a SAT model is still
// certified).
func (m *oracleMemo) agree(i int, got core.Status) error {
	if got == core.StatusUnknown {
		return nil
	}
	v, err := m.decide(i)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if (v == testkit.Sat && got == core.StatusUnsat) || (v == testkit.Unsat && got == core.StatusSat) {
		return fmt.Errorf("verdict %v, oracle says %v", got, v)
	}
	return nil
}
