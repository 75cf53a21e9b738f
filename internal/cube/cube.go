// Package cube partitions an AB problem's search space for distributed
// cube-and-conquer solving. A cube is a conjunction of Boolean literals;
// the splitter picks a small set of top-level decision variables by bounded
// lookahead on the propositional skeleton and emits one cube per sign
// combination, so the cubes — together with the combinations the splitter
// refuted by unit propagation — partition the assignments of the chosen
// variables. A worker that solves the problem under one cube therefore
// answers a disjoint region of the search space: any cube SAT makes the
// problem SAT, and the problem is UNSAT exactly when every live cube is
// UNSAT (refuted combinations are propositionally UNSAT already, before
// any theory reasoning, so dropping them loses nothing).
//
// The lookahead is the classic March-style measure restricted to what the
// skeleton affords: for each candidate variable both branches are unit-
// propagated and the variable is scored by the product of the implication
// counts, rewarding variables that constrain the problem in both
// polarities. Variables with a failed branch (one polarity refuted at
// level 0) are skipped — they do not split the space, they merely force a
// literal — and variables already fixed by top-level propagation are never
// candidates. Everything is deterministic: same problem, same cubes.
package cube

import (
	"sort"

	"absolver/internal/core"
)

// Options tunes the splitter. The zero value selects the defaults.
type Options struct {
	// MaxCubes caps the number of emitted cubes; the splitter uses the
	// largest power of two ≤ MaxCubes as its target (0 = 8). Fewer cubes
	// come out when the skeleton offers fewer useful decision variables or
	// when propagation refutes sign combinations.
	MaxCubes int
}

// maxCandidates bounds how many variables enter the lookahead scoring
// pass. Candidates are pre-ranked by occurrence count, so the bound trims
// the tail, not the interesting variables.
const maxCandidates = 64

func (o Options) withDefaults() Options {
	if o.MaxCubes <= 0 {
		o.MaxCubes = 8
	}
	return o
}

// Split is the result of Derive.
type Split struct {
	// Vars are the chosen decision variables (1-based, ascending). Empty
	// when the problem offered nothing to split on; Cubes then holds one
	// empty cube meaning "the whole problem".
	Vars []int
	// Cubes are the live cubes: each is a conjunction of literals (DIMACS
	// convention, one per variable of Vars). Together with the Refuted
	// combinations they cover every assignment of Vars exactly once.
	Cubes [][]int
	// Refuted counts sign combinations rejected because unit propagation
	// on the skeleton derived a contradiction — those regions are
	// propositionally UNSAT and need no worker.
	Refuted int
}

// Derive splits the problem's search space. It inspects only the
// propositional skeleton (clauses), never the theory, so a refuted
// combination is UNSAT for the full problem too: the skeleton is a
// consequence-free abstraction — every model of the problem satisfies it.
//
// If top-level propagation already refutes the empty assignment the result
// has no cubes and Refuted == 1: the problem is UNSAT outright.
func Derive(p *core.Problem, opt Options) Split {
	opt = opt.withDefaults()

	base, conflict := propagate(p.Clauses, p.NumVars, nil)
	if conflict {
		return Split{Refuted: 1}
	}

	vars := pickVars(p, base, opt)
	if len(vars) == 0 {
		return Split{Cubes: [][]int{nil}}
	}

	out := Split{Vars: vars}
	lits := make([]int, len(vars))
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i, v := range vars {
			if mask&(1<<i) != 0 {
				lits[i] = v
			} else {
				lits[i] = -v
			}
		}
		if _, conflict := propagate(p.Clauses, p.NumVars, lits); conflict {
			out.Refuted++
			continue
		}
		out.Cubes = append(out.Cubes, append([]int(nil), lits...))
	}
	return out
}

// Apply returns a clone of the problem with the cube's literals asserted
// as unit clauses — the subproblem a worker solves. A nil or empty cube
// yields a plain clone.
func Apply(p *core.Problem, cube []int) *core.Problem {
	q := p.Clone()
	for _, l := range cube {
		q.AddClause(l)
	}
	return q
}

// pickVars ranks candidate decision variables by two-sided lookahead and
// returns the top k, ascending, with 2^k ≤ opt.MaxCubes.
func pickVars(p *core.Problem, base []int8, opt Options) []int {
	depth := 0
	for 1<<(depth+1) <= opt.MaxCubes {
		depth++
	}
	if depth == 0 || p.NumVars == 0 || len(p.Clauses) == 0 {
		return nil
	}

	// Candidate pool: unfixed variables, ranked by occurrence count.
	occ := make([]int, p.NumVars+1)
	for _, cl := range p.Clauses {
		for _, l := range cl {
			if l < 0 {
				l = -l
			}
			occ[l]++
		}
	}
	pool := make([]int, 0, p.NumVars)
	for v := 1; v <= p.NumVars; v++ {
		if occ[v] > 0 && base[v] == unassigned {
			pool = append(pool, v)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if occ[pool[i]] != occ[pool[j]] {
			return occ[pool[i]] > occ[pool[j]]
		}
		return pool[i] < pool[j]
	})
	if len(pool) > maxCandidates {
		pool = pool[:maxCandidates]
	}

	// Two-sided lookahead: score = product of both branches' implication
	// counts (+ sum as tie-break), skipping failed-branch variables.
	type scored struct {
		v     int
		score int
	}
	var cands []scored
	for _, v := range pool {
		posAssign, posConf := propagate(p.Clauses, p.NumVars, []int{v})
		negAssign, negConf := propagate(p.Clauses, p.NumVars, []int{-v})
		if posConf || negConf {
			// A failed literal forces the other polarity; it does not
			// split the space into two live regions.
			continue
		}
		pos, neg := countAssigned(posAssign)-countAssigned(base), countAssigned(negAssign)-countAssigned(base)
		cands = append(cands, scored{v: v, score: pos*neg*1024 + pos + neg})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > depth {
		cands = cands[:depth]
	}
	vars := make([]int, 0, len(cands))
	for _, c := range cands {
		vars = append(vars, c.v)
	}
	sort.Ints(vars)
	return vars
}

const unassigned int8 = 0

// propagate runs unit propagation to fixpoint over the clauses under the
// given assumption literals. It returns the resulting assignment (indexed
// by variable, 1-based; +1 true, -1 false, 0 unassigned) and whether a
// conflict (empty clause) was derived. The counter-free fixpoint loop is
// quadratic in the worst case, which is fine at splitter scale: it runs a
// bounded number of times per Derive, not per solver conflict.
func propagate(clauses [][]int, nVars int, assume []int) ([]int8, bool) {
	assign := make([]int8, nVars+1)
	for _, l := range assume {
		v, s := litVar(l)
		if assign[v] == -s {
			return assign, true
		}
		assign[v] = s
	}
	for changed := true; changed; {
		changed = false
		for _, cl := range clauses {
			unit := 0
			sat := false
			unknown := 0
			for _, l := range cl {
				v, s := litVar(l)
				switch assign[v] {
				case s:
					sat = true
				case unassigned:
					unknown++
					unit = l
				}
				if sat || unknown > 1 {
					break
				}
			}
			if sat || unknown > 1 {
				continue
			}
			if unknown == 0 {
				return assign, true
			}
			v, s := litVar(unit)
			assign[v] = s
			changed = true
		}
	}
	return assign, false
}

func litVar(l int) (v int, sign int8) {
	if l < 0 {
		return -l, -1
	}
	return l, 1
}

func countAssigned(assign []int8) int {
	n := 0
	for _, s := range assign {
		if s != unassigned {
			n++
		}
	}
	return n
}
