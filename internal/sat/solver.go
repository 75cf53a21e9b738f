package sat

import (
	"context"
	"errors"
)

// ErrBudget is returned by Solve when the configured conflict budget is
// exhausted before a verdict is reached.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// pollEvery is the cadence, in search-loop steps, of cooperative
// cancellation checks: ctx.Err() takes a lock, so it is consulted only
// every pollEvery propagation/decision rounds. The interval is small
// enough that a cancelled solver stops within microseconds.
const pollEvery = 256

// compactThreshold is the wasted-word fraction above which reduceDB (and
// inprocessing) trigger an arena compaction.
const compactThreshold = 0.25

// watcher pairs a watched clause ref with its blocker literal (a literal
// whose truth makes visiting the clause unnecessary).
type watcher struct {
	cref    CRef
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	ca      clauseArena
	clauses []CRef // problem clauses
	learnts []CRef // learnt clauses

	watches [][]watcher // indexed by Lit

	assigns  []LBool // indexed by Var
	level    []int   // decision level of assignment
	reason   []CRef  // CRefUndef = decision or top-level fact
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	varDecay float64
	order    varHeap
	phase    []bool // saved polarity; true = assign negative first

	claInc   float64
	claDecay float64

	seen    []bool  // scratch for analyze
	litMark []uint8 // scratch indexed by Lit for the subsumption pass
	frozen  []bool  // vars whose clauses inprocessing must not touch
	okFlag  bool    // false once a top-level conflict is found

	// Inprocess enables cheap inprocessing (level-0 simplification, binary
	// self-subsumption, failed-literal probing) between restarts. New turns
	// it on; ablations and differential tests switch it off.
	Inprocess bool

	// inproSig is the DB signature of the last inprocessing pass; a pass
	// runs only when the database changed since, and (after the first
	// pass) only once per inproInterval new conflicts.
	inproSig       [4]int
	inproRan       bool
	inproConflicts int64
	// probeCursor rotates failed-literal probing across the variables.
	probeCursor Var
	// probePhase is scratch for restoring saved phases around a probe.
	probePhase []bool

	// ConflictBudget, when positive, bounds the number of conflicts a
	// single Solve call may encounter before returning ErrBudget.
	ConflictBudget int64

	// Stats accumulates counters across Solve calls.
	Stats Stats

	conflictAssumps []Lit // final conflict clause in terms of assumptions

	// ctx and polls implement cooperative cancellation: ctx is set for the
	// duration of a SolveContext call and polled every pollEvery search
	// steps.
	ctx   context.Context
	polls uint64
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		varInc:    1,
		varDecay:  0.95,
		claInc:    1,
		claDecay:  0.999,
		okFlag:    true,
		Inprocess: true,
	}
}

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses currently stored.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() Var {
	v := len(s.assigns)
	s.assigns = append(s.assigns, LUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, CRefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, true) // default polarity: negative
	s.seen = append(s.seen, false)
	s.frozen = append(s.frozen, false)
	s.watches = append(s.watches, nil, nil)
	s.litMark = append(s.litMark, 0, 0)
	s.order.insert(v, s.activity)
	return v
}

// EnsureVars allocates variables until at least n exist.
func (s *Solver) EnsureVars(n int) {
	for s.NumVars() < n {
		s.NewVar()
	}
}

// Freeze exempts v's clauses from inprocessing: no clause containing a
// literal over v is deleted by subsumption or strengthened, and v is never
// probed. Sessions freeze their frame-selector variables so a
// selector-guarded assertion can never lose its guard literal; the frame's
// Pop unit must silence exactly the clauses it was pushed with.
func (s *Solver) Freeze(v Var) {
	s.EnsureVars(v + 1)
	s.frozen[v] = true
}

// Value returns the current assignment of l.
func (s *Solver) Value(l Lit) LBool {
	v := s.assigns[l.Var()]
	if v == LUndef {
		return LUndef
	}
	if l.Neg() {
		return v.Not()
	}
	return v
}

// Okay reports whether the clause set is still possibly satisfiable (false
// after a top-level conflict has been derived).
func (s *Solver) Okay() bool { return s.okFlag }

// AddClause adds a problem clause. It returns false if the clause set has
// become trivially unsatisfiable. Adding is only permitted at decision
// level 0 (i.e. between Solve calls). Literals over unallocated variables
// allocate them.
func (s *Solver) AddClause(lits ...Lit) bool {
	if len(s.trailLim) != 0 {
		panic("sat: AddClause above decision level 0")
	}
	if !s.okFlag {
		return false
	}
	for _, l := range lits {
		s.EnsureVars(l.Var() + 1)
	}
	// Simplify: drop false literals, drop duplicates, detect tautologies
	// and already-satisfied clauses.
	out := make([]Lit, 0, len(lits))
	seen := make(map[Lit]bool, len(lits))
	for _, l := range lits {
		switch s.Value(l) {
		case LTrue:
			return true // clause already satisfied at level 0
		case LFalse:
			continue
		}
		if seen[l.Not()] {
			return true // tautology
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.okFlag = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], CRefUndef)
		if conf := s.propagate(); conf != CRefUndef {
			s.okFlag = false
			return false
		}
		return true
	}
	r := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, r)
	s.attach(r)
	return true
}

// attach registers the first two literals of the clause as watched.
func (s *Solver) attach(r CRef) {
	ls := s.ca.lits(r)
	s.watches[ls[0].Not()] = append(s.watches[ls[0].Not()], watcher{r, ls[1]})
	s.watches[ls[1].Not()] = append(s.watches[ls[1].Not()], watcher{r, ls[0]})
}

// detach removes the clause from the watch lists.
func (s *Solver) detach(r CRef) {
	ls := s.ca.lits(r)
	s.removeWatch(ls[0].Not(), r)
	s.removeWatch(ls[1].Not(), r)
}

func (s *Solver) removeWatch(l Lit, r CRef) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref == r {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// uncheckedEnqueue records an assignment implied by from (CRefUndef =
// decision or top-level fact).
func (s *Solver) uncheckedEnqueue(l Lit, from CRef) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = LFalse
	} else {
		s.assigns[v] = LTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal scheme,
// returning a conflicting clause ref or CRefUndef.
func (s *Solver) propagate() CRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		n := 0
	clauseLoop:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker fast path.
			if s.Value(w.blocker) == LTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.cref
			ls := s.ca.lits(c)
			// Normalise so that ls[1] is the false watched literal (¬p).
			if ls[0] == p.Not() {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := ls[0]
			if first != w.blocker && s.Value(first) == LTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(ls); k++ {
				if s.Value(ls[k]) != LFalse {
					ls[1], ls[k] = ls[k], ls[1]
					s.watches[ls[1].Not()] = append(s.watches[ls[1].Not()], watcher{c, first})
					continue clauseLoop
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if s.Value(first) == LFalse {
				// Conflict: copy back remaining watchers and bail out.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return CRefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conf CRef) ([]Lit, int) {
	learnt := []Lit{LitUndef} // slot 0 reserved for the asserting literal
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1

	c := conf
	for {
		s.bumpClause(c)
		cl := s.ca.lits(c)
		if p != LitUndef {
			cl = cl[1:] // lits[0] of a reason clause is the implied literal
		}
		for _, q := range cl {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learnt[0] = p.Not()

	// Clause minimisation: drop literals implied by the rest of the clause
	// (simple recursive check against reason clauses).
	marked := make(map[Var]bool, len(learnt))
	for _, l := range learnt {
		marked[l.Var()] = true
	}
	// Clear every seen flag before the slice is rewritten; dropped literals
	// must not leave stale marks behind.
	toClear := make([]Var, 0, len(learnt))
	for _, l := range learnt {
		toClear = append(toClear, l.Var())
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l, marked, 0) {
			out = append(out, l)
		}
	}
	learnt = out
	for _, v := range toClear {
		s.seen[v] = false
	}

	// Compute backtrack level: the second-highest level in the clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	return learnt, bt
}

// redundant reports whether literal l in a learnt clause is implied by the
// other marked literals (bounded-depth reason-chain check).
func (s *Solver) redundant(l Lit, marked map[Var]bool, depth int) bool {
	if depth > 16 {
		return false
	}
	r := s.reason[l.Var()]
	if r == CRefUndef {
		return false
	}
	for _, q := range s.ca.lits(r)[1:] {
		v := q.Var()
		if s.level[v] == 0 || marked[v] {
			continue
		}
		if !s.redundant(q, marked, depth+1) {
			return false
		}
	}
	return true
}

// backtrack undoes all assignments above level.
func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assigns[v] = LUndef
		s.phase[v] = l.Neg()
		s.reason[v] = CRefUndef
		s.level[v] = -1
		s.order.insertIfAbsent(v, s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// bumpVar increases a variable's VSIDS activity.
func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity)
}

func (s *Solver) decayVar() { s.varInc /= s.varDecay }

func (s *Solver) bumpClause(r CRef) {
	if !s.ca.learnt(r) {
		return
	}
	act := s.ca.act(r) + float32(s.claInc)
	s.ca.setAct(r, act)
	if act > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setAct(lr, s.ca.act(lr)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= s.claDecay }

// pickBranchVar pops the highest-activity unassigned variable.
func (s *Solver) pickBranchVar() Var {
	for {
		v, ok := s.order.pop(s.activity)
		if !ok {
			return -1
		}
		if s.assigns[v] == LUndef {
			return v
		}
	}
}

// lbd computes the literal block distance of a clause.
func (s *Solver) lbd(lits []Lit) int {
	seen := make(map[int]bool, len(lits))
	for _, l := range lits {
		seen[s.level[l.Var()]] = true
	}
	return len(seen)
}

// reduceDB removes the less active half of the learnt clauses, keeping
// binary and low-LBD clauses, then compacts the arena when the deletions
// leave too much garbage behind.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	// Partial selection over a private copy: quickSelectMedian reorders
	// its input in place, so it must never see the live activity data —
	// feeding it a slice aliased with clause state would silently shuffle
	// activities between clauses and corrupt every later reduction.
	acts := make([]float64, len(s.learnts))
	for i, r := range s.learnts {
		acts[i] = float64(s.ca.act(r))
	}
	median := quickSelectMedian(acts)
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		if s.ca.size(r) <= 2 || s.ca.lbd(r) <= 3 || float64(s.ca.act(r)) >= median || s.isReason(r) {
			kept = append(kept, r)
			continue
		}
		s.detach(r)
		s.ca.free(r)
		s.Stats.DeletedLearnt++
	}
	s.learnts = kept
	s.maybeCompact()
	s.checkInvariants()
}

// maybeCompact runs a mark-and-relocate compaction when the arena's wasted
// fraction crosses the threshold.
func (s *Solver) maybeCompact() {
	if s.ca.garbageFraction() > compactThreshold {
		s.compact()
	}
}

// compact relocates every live clause into a fresh arena and rewrites all
// refs — watch lists, reasons, and the clause databases. Deleted clauses
// are left behind; refs are renamed, never duplicated (the forwarding
// pointer in the old header makes repeat visits cheap and idempotent).
func (s *Solver) compact() {
	old := s.ca
	s.ca = clauseArena{data: make([]uint32, 0, len(old.data)-int(old.wasted))}
	for li := range s.watches {
		ws := s.watches[li]
		for i := range ws {
			ws[i].cref = old.relocate(ws[i].cref, &s.ca)
		}
	}
	for v := range s.reason {
		if s.reason[v] == CRefUndef {
			continue
		}
		if s.assigns[v] == LUndef {
			// Stale entry of an unassigned variable: no longer needed.
			s.reason[v] = CRefUndef
			continue
		}
		s.reason[v] = old.relocate(s.reason[v], &s.ca)
	}
	for i, r := range s.clauses {
		s.clauses[i] = old.relocate(r, &s.ca)
	}
	for i, r := range s.learnts {
		s.learnts[i] = old.relocate(r, &s.ca)
	}
	s.Stats.ArenaCompactions++
}

// isReason reports whether the clause is currently the reason of some
// assignment.
func (s *Solver) isReason(r CRef) bool {
	v := s.ca.lits(r)[0].Var()
	return s.assigns[v] != LUndef && s.reason[v] == r
}

// quickSelectMedian returns the k-th smallest element of a for k=len(a)/2
// by Hoare quickselect. It partially sorts a IN PLACE — callers must pass
// a slice they own (reduceDB copies activities first).
func quickSelectMedian(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	k := len(a) / 2
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

// luby computes the Luby restart sequence value for 0-based index x
// (1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...).
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

// Solve determines satisfiability under the given assumption literals.
// It returns LTrue with a complete model available via SolveModel, LFalse
// when unsatisfiable (ConflictAssumptions lists the failing assumptions),
// or an error when the conflict budget runs out.
func (s *Solver) Solve(assumptions ...Lit) (LBool, error) {
	return s.SolveContext(context.Background(), assumptions...)
}

// SolveContext is Solve with cooperative cancellation: the search polls ctx
// every pollEvery steps and returns LUndef with ctx.Err() once it is done.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) (LBool, error) {
	return s.solveKeep(ctx, func() {}, assumptions...)
}

// cancelled reports, at the poll cadence, whether the active context has
// been cancelled. Between polls it is a single counter increment.
func (s *Solver) cancelled() bool {
	if s.ctx == nil {
		return false
	}
	s.polls++
	if s.polls%pollEvery != 0 {
		return false
	}
	return s.ctx.Err() != nil
}

// search runs CDCL until a verdict, a restart (conflict limit), or budget
// exhaustion. It returns the verdict (LUndef = restart) and conflicts used.
func (s *Solver) search(conflictLimit int64, assumptions []Lit) (LBool, int64) {
	var conflicts int64
	for {
		if s.cancelled() {
			return LUndef, conflicts
		}
		conf := s.propagate()
		if conf != CRefUndef {
			conflicts++
			s.Stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.okFlag = false
				return LFalse, conflicts
			}
			if s.decisionLevel() <= len(assumptions) {
				// Conflict within the assumption prefix: analyse in terms
				// of assumptions for the caller.
				s.conflictAssumps = s.analyzeFinal(s.ca.lits(conf), assumptions)
				return LFalse, conflicts
			}
			learnt, bt := s.analyze(conf)
			if len(learnt) == 1 {
				// A unit learnt clause is a permanent fact: record it at level
				// 0. The assumption prefix is undone with the backtrack; the
				// decision loop below re-establishes it. (Clamping to the
				// assumption level instead would leave a one-literal clause to
				// attach, which the two-watch scheme cannot represent.)
				s.backtrack(0)
				s.uncheckedEnqueue(learnt[0], CRefUndef)
				s.decayVar()
				s.decayClause()
				continue
			}
			if bt < len(assumptions) {
				// Keep the assumption prefix decided: the other literals of
				// the learnt clause sit at levels ≤ bt, so the clause is
				// still asserting at the clamped level.
				bt = len(assumptions)
			}
			s.backtrack(bt)
			{
				r := s.ca.alloc(learnt, true)
				s.ca.setLBD(r, s.lbd(learnt))
				s.learnts = append(s.learnts, r)
				s.Stats.Learnt++
				s.attach(r)
				s.bumpClause(r)
				s.uncheckedEnqueue(learnt[0], r)
			}
			s.decayVar()
			s.decayClause()
			continue
		}
		if conflicts >= conflictLimit {
			return LUndef, conflicts
		}
		if len(s.learnts) > 4000+s.NumClauses()*2 {
			s.reduceDB()
		}
		// Select the next decision: pending assumptions first.
		next := LitUndef
		for s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.Value(a) {
			case LTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case LFalse:
				s.conflictAssumps = s.analyzeFinalLit(a, assumptions)
				return LFalse, conflicts
			}
			next = a
			break
		}
		if next == LitUndef {
			v := s.pickBranchVar()
			if v == -1 {
				return LTrue, conflicts // all variables assigned
			}
			s.Stats.Decisions++
			next = MkLit(v, s.phase[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, CRefUndef)
	}
}

// analyzeFinal computes the subset of assumptions responsible for the
// conflicting literals confLits.
func (s *Solver) analyzeFinal(confLits []Lit, assumptions []Lit) []Lit {
	isAssump := make(map[Lit]bool, len(assumptions))
	for _, a := range assumptions {
		isAssump[a] = true
	}
	out := map[Lit]bool{}
	var walk func(l Lit)
	seen := make(map[Var]bool)
	walk = func(l Lit) {
		v := l.Var()
		if seen[v] || s.level[v] == 0 {
			return
		}
		seen[v] = true
		if r := s.reason[v]; r != CRefUndef {
			for _, q := range s.ca.lits(r)[1:] {
				walk(q)
			}
			return
		}
		// Decision: at this point every decision is an assumption.
		if isAssump[l.Not()] {
			out[l.Not()] = true
		} else if isAssump[l] {
			out[l] = true
		}
	}
	for _, q := range confLits {
		walk(q)
	}
	res := make([]Lit, 0, len(out))
	for l := range out {
		res = append(res, l)
	}
	return res
}

// analyzeFinalLit is analyzeFinal for the case where assumption a is
// already false under the current (assumption-only) trail.
func (s *Solver) analyzeFinalLit(a Lit, assumptions []Lit) []Lit {
	res := s.analyzeFinal([]Lit{a}, assumptions)
	found := false
	for _, l := range res {
		if l == a {
			found = true
			break
		}
	}
	if !found {
		res = append(res, a)
	}
	return res
}

// ConflictAssumptions returns, after Solve returned LFalse under
// assumptions, a subset of the assumptions sufficient for unsatisfiability.
// Empty means the clause set is unsatisfiable regardless of assumptions.
func (s *Solver) ConflictAssumptions() []Lit { return s.conflictAssumps }

// Model returns the satisfying assignment found by the last successful
// Solve call as a slice indexed by variable. It must be called before any
// mutation of the solver. The returned slice is a copy.
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.assigns[v] == LTrue
	}
	return m
}

// modelSnapshot copies the current assignment while still at the solution's
// decision level (used by Solve wrappers that backtrack on return).
func (s *Solver) modelSnapshot() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.assigns[v] == LTrue
	}
	return m
}

// SolveModel runs Solve and, on satisfiability, returns the model (Solve
// itself backtracks to level 0, discarding the assignment).
func (s *Solver) SolveModel(assumptions ...Lit) ([]bool, LBool, error) {
	return s.SolveModelContext(context.Background(), assumptions...)
}

// SolveModelContext is SolveModel with cooperative cancellation.
func (s *Solver) SolveModelContext(ctx context.Context, assumptions ...Lit) ([]bool, LBool, error) {
	var model []bool
	res, err := s.solveKeep(ctx, func() { model = s.modelSnapshot() }, assumptions...)
	return model, res, err
}

// solveKeep is Solve with a callback invoked while the satisfying
// assignment is still in place.
func (s *Solver) solveKeep(ctx context.Context, onSAT func(), assumptions ...Lit) (LBool, error) {
	s.Stats.SolveCalls++
	s.conflictAssumps = nil
	if !s.okFlag {
		return LFalse, nil
	}
	for _, a := range assumptions {
		s.EnsureVars(a.Var() + 1)
	}
	s.ctx = ctx
	defer func() {
		s.ctx = nil
		s.backtrack(0)
	}()

	var restarts int64
	budgetUsed := int64(0)
	for {
		if s.Inprocess {
			s.inprocess()
			if !s.okFlag {
				// Inprocessing derived a top-level conflict: unsat regardless
				// of the assumptions (conflictAssumps stays empty).
				return LFalse, nil
			}
		}
		limit := 100 * luby(restarts)
		restarts++
		s.Stats.Restarts++
		res, used := s.search(limit, assumptions)
		budgetUsed += used
		if res == LTrue {
			onSAT()
		}
		if res != LUndef {
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return LUndef, err
		}
		if s.ConflictBudget > 0 && budgetUsed >= s.ConflictBudget {
			return LUndef, ErrBudget
		}
		s.backtrack(0)
	}
}

// varHeap is a binary max-heap over variable activities.
type varHeap struct {
	heap []Var
	pos  []int // position of var in heap, -1 if absent
}

func (h *varHeap) ensure(v Var) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
}

func (h *varHeap) insert(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(h.pos[v], act)
}

func (h *varHeap) insertIfAbsent(v Var, act []float64) { h.insert(v, act) }

func (h *varHeap) pop(act []float64) (Var, bool) {
	if len(h.heap) == 0 {
		return -1, false
	}
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return v, true
}

func (h *varHeap) update(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] == -1 {
		return
	}
	h.up(h.pos[v], act)
}

func (h *varHeap) up(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.heap[p]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int, act []float64) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h.heap[c+1]] > act[h.heap[c]] {
			c++
		}
		if act[h.heap[c]] <= act[v] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.pos[v] = i
}

// SetPolarity sets the initial decision polarity for variable v
// (neg = true assigns the variable false first).
func (s *Solver) SetPolarity(v Var, neg bool) {
	s.EnsureVars(v + 1)
	s.phase[v] = neg
}
