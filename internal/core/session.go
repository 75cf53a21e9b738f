package core

import (
	"context"
	"fmt"

	"absolver/internal/expr"
)

// Session is the incremental solving surface: one long-lived Engine whose
// learned clauses, theory-verdict cache, lemma log and exchange client
// persist across a sequence of related queries. The workflow the paper's
// applications need — test-vector generation, BMC unrolling, counterexample
// refinement — solves long runs of near-identical problems; a Session makes
// each subsequent query pay only for what changed.
//
// The retraction mechanism is MiniSat-style selector variables. Push
// allocates a fresh Boolean variable sel; every clause asserted inside the
// frame is guarded as (¬sel ∨ …) and every Solve assumes sel, so the
// frame's assertions are active exactly while the frame lives. Pop adds the
// permanent unit (¬sel): guarded clauses become satisfied, and any clause
// the CDCL solver learned from them carries ¬sel too (resolution keeps the
// guard literal), so the learned-clause database never needs pruning.
//
// Bindings are monotone: Assert binds a fresh variable and never unbinds
// it, so every theory lemma (ground, conflict, imported) remains valid for
// the session's whole lifetime regardless of pops — only the unit clause
// asserting the atom is frame-guarded. Lossy and model-blocking clauses,
// which are relative to the live assertion set, are guarded on the
// innermost frame and retracted with it.
//
// A Session is single-strategy by construction: the whole point is one
// warm solver, so Config.RestartBoolean is rejected and portfolio
// composition does not apply. It is not safe for concurrent use.
type Session struct {
	eng *Engine
	p   *Problem // the engine's problem (owned clone of the caller's)
	// frames is the push/pop trail, innermost last.
	frames []sessFrame
	// baseLossy counts lossy blocks attributed to the base (depth-0) level.
	baseLossy int
	// baseVars is NumVars at session creation — the default model
	// projection, excluding selector and Assert variables added later.
	baseVars int
	// lastAssume keeps the user literals of the last solve for
	// FailedAssumptions filtering.
	lastAssume []int
}

// sessFrame is one push frame: its selector variable and the lossy blocks
// attributed to it.
type sessFrame struct {
	sel   int // 1-based DIMACS selector variable
	lossy int
}

// NewSession prepares an incremental session for p with cfg. The problem
// is cloned; the caller's copy is never mutated. The Boolean solver must
// support assumptions (the default CDCL solver does), and
// Config.RestartBoolean is incompatible with sessions — restart mode
// discards exactly the state a session exists to keep.
func NewSession(p *Problem, cfg Config) (*Session, error) {
	if cfg.RestartBoolean {
		return nil, fmt.Errorf("core: Session requires an incremental Boolean solver; RestartBoolean is incompatible")
	}
	e := NewEngine(p.Clone(), cfg)
	if _, ok := e.cfg.Bool.(AssumingBoolSolver); !ok {
		return nil, fmt.Errorf("core: Session requires an assumption-capable Boolean solver; %s is not", e.cfg.Bool.Name())
	}
	return &Session{eng: e, p: e.p, baseVars: e.p.NumVars}, nil
}

// Depth returns the number of live frames.
func (s *Session) Depth() int { return len(s.frames) }

// Stats returns the engine's cumulative counters over the session's whole
// lifetime. Individual Solve results carry per-call deltas instead, so a
// caller merging result stats across calls counts each check exactly once.
func (s *Session) Stats() Stats { return s.eng.Stats() }

// Problem returns the session's live problem: the base problem plus every
// asserted clause (frame-guarded) and binding, plus the (¬sel) units of
// popped frames. It is logically equivalent to the base problem conjoined
// with the live frames' assertions. The caller must not mutate it.
func (s *Session) Problem() *Problem { return s.p }

// Lemmas returns the engine's provenance-tagged lemma log
// (Config.RecordLemmas).
func (s *Session) Lemmas() []Lemma { return s.eng.Lemmas() }

// Push opens a new assertion frame.
func (s *Session) Push() {
	s.p.NumVars++
	sel := s.p.NumVars
	s.frames = append(s.frames, sessFrame{sel: sel})
	s.eng.blockGuard = sel
	// Exempt the selector from SAT inprocessing: a guarded clause must keep
	// its ¬sel literal so this frame's eventual Pop unit silences exactly
	// the clauses asserted under it.
	s.eng.freezeVar(sel - 1)
}

// Pop closes the innermost frame, retracting its assertions and every
// lossy/model block learned under it. Bindings made inside the frame
// persist (they are definitions, not assertions), as do theory-conflict
// lemmas — both remain sound because bindings are monotone.
func (s *Session) Pop() error {
	if len(s.frames) == 0 {
		return fmt.Errorf("core: Pop on session with no pushed frames")
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	// The permanent unit (¬sel) satisfies every clause guarded by this
	// frame — asserted clauses and learned consequences alike.
	s.p.AddClause(-f.sel)
	if err := s.eng.addClauseLive([]int{-f.sel}); err != nil {
		return err
	}
	if len(s.frames) > 0 {
		s.eng.blockGuard = s.frames[len(s.frames)-1].sel
	} else {
		s.eng.blockGuard = 0
	}
	// Lossy blocks of the popped frame are retracted with it; recompute
	// whether any still-attributed lossy block degrades unsat to unknown.
	lossy := s.baseLossy > 0
	for _, fr := range s.frames {
		if fr.lossy > 0 {
			lossy = true
		}
	}
	s.eng.lossy = lossy
	return nil
}

// AssertClause asserts a clause (DIMACS literals) in the innermost frame —
// or permanently, at depth 0. Variables beyond the current count are
// allocated automatically.
func (s *Session) AssertClause(lits ...int) error {
	if len(lits) == 0 {
		return fmt.Errorf("core: empty assertion clause")
	}
	for _, l := range lits {
		if l == 0 {
			return fmt.Errorf("core: zero literal in assertion clause")
		}
	}
	cl := lits
	if len(s.frames) > 0 {
		cl = make([]int, 0, len(lits)+1)
		cl = append(cl, -s.frames[len(s.frames)-1].sel)
		cl = append(cl, lits...)
	}
	s.p.AddClause(cl...)
	return s.eng.addClauseLive(s.p.Clauses[len(s.p.Clauses)-1])
}

// SolveFrame solves one query in a frame of its own: Push, assert each
// clause, SolveUnderAssumptions(assume), Pop. The frame is popped on
// every path, an assertion failure included, so the session's depth is
// the same on return as on entry; a Pop failure after the solve is
// reported as the error. This is the batch primitive: a run of related
// instances, each a clause delta plus assumptions over one base problem.
func (s *Session) SolveFrame(ctx context.Context, clauses [][]int, assume []int) (Result, error) {
	s.Push()
	for _, cl := range clauses {
		if err := s.AssertClause(cl...); err != nil {
			_ = s.Pop() // the assertion error is the one to report
			return Result{}, err
		}
	}
	res, err := s.SolveUnderAssumptions(ctx, assume)
	if perr := s.Pop(); perr != nil && err == nil {
		err = perr
	}
	return res, err
}

// Assert binds atom a to a fresh Boolean variable and asserts it in the
// innermost frame, returning the variable (1-based DIMACS). The binding is
// permanent — Pop retracts the assertion, not the definition — so theory
// lemmas involving it stay sound for the session's lifetime.
func (s *Session) Assert(a expr.Atom) (int, error) {
	v := s.p.NumVars // 0-based fresh variable
	s.p.Bind(v, a)
	if err := s.eng.bindIncremental(v); err != nil {
		return 0, err
	}
	if err := s.AssertClause(v + 1); err != nil {
		return 0, err
	}
	return v + 1, nil
}

// NewVar allocates a fresh unconstrained Boolean variable, returned as a
// 1-based DIMACS variable. Encoders that interleave their own Tseitin
// variables with frames and bound atoms must allocate through the session
// so the numbering never collides with Push's selectors or Assert's
// binding variables.
func (s *Session) NewVar() int {
	s.p.NumVars++
	return s.p.NumVars
}

// Bind binds atom a to a fresh Boolean variable without asserting it,
// returning the positive literal (1-based DIMACS). The literal can appear
// in AssertClause clauses or solve assumptions with either sign; the
// binding itself is permanent, exactly as with Assert.
func (s *Session) Bind(a expr.Atom) (int, error) {
	v := s.p.NumVars // 0-based fresh variable
	s.p.Bind(v, a)
	if err := s.eng.bindIncremental(v); err != nil {
		return 0, err
	}
	return v + 1, nil
}

// SetBounds records lo ≤ name ≤ hi as background theory for an arithmetic
// variable. Background bounds never participate in conflicts, so they are
// the cheap way to express input ranges. Like bindings, bounds are
// monotone: they may be introduced for fresh variables or narrowed, never
// widened — theory-conflict clauses learned under the old bounds are
// permanent, so widening would leave stale refutations behind. Narrowing a
// variable that an already-bound atom mentions invalidates cached sat
// verdicts involving it; the cache is wiped in that case, so prefer
// setting bounds before binding atoms over the variable.
func (s *Session) SetBounds(name string, lo, hi float64) error {
	old, had := s.p.Bounds[name]
	if had && (lo < old.Lo || hi > old.Hi) {
		return fmt.Errorf("core: SetBounds may not widen %s from [%g,%g] to [%g,%g]", name, old.Lo, old.Hi, lo, hi)
	}
	s.p.SetBounds(name, lo, hi)
	e := s.eng
	e.lower, e.upper = boundsMaps(s.p.Bounds)
	if had {
		e.tcache = nil
		return nil
	}
	for _, a := range s.p.Bindings {
		for _, v := range a.Vars() {
			if v == name {
				e.tcache = nil
				return nil
			}
		}
	}
	return nil
}

// Solve runs one query against the current assertion stack.
func (s *Session) Solve(ctx context.Context) (Result, error) {
	return s.SolveUnderAssumptions(ctx, nil)
}

// SolveUnderAssumptions runs one query with extra assumption literals
// (DIMACS) holding for this call only — the cube-and-conquer primitive:
// assumptions steer the search without entering the clause database, so
// they cost nothing to retract. Result.Stats is the per-call delta (with
// SessionSolves = 1), not the engine's cumulative counters; use
// Session.Stats for the running totals. After an unsat answer caused by
// the assumptions, FailedAssumptions reports the subset that was used.
func (s *Session) SolveUnderAssumptions(ctx context.Context, lits []int) (Result, error) {
	for _, l := range lits {
		if l == 0 {
			return Result{}, fmt.Errorf("core: zero assumption literal")
		}
		v := l
		if v < 0 {
			v = -v
		}
		if v > s.p.NumVars {
			return Result{}, fmt.Errorf("core: assumption variable %d out of range [1,%d]", v, s.p.NumVars)
		}
	}
	e := s.eng
	assumps := make([]int, 0, len(s.frames)+len(lits))
	for _, f := range s.frames {
		assumps = append(assumps, f.sel)
	}
	assumps = append(assumps, lits...)
	s.lastAssume = lits
	e.assumps = assumps
	defer func() { e.assumps = nil }()

	before := e.st
	e.st.SessionSolves++
	res, err := e.SolveContext(ctx)
	s.attributeLossy(e.st.LossyBlocks - before.LossyBlocks)
	res.Stats = statsDelta(e.st, before)
	return res, err
}

// attributeLossy charges n new lossy blocks to the innermost frame (they
// are guarded by its selector and die with it) or to the base level.
func (s *Session) attributeLossy(n int) {
	if n <= 0 {
		return
	}
	if len(s.frames) > 0 {
		s.frames[len(s.frames)-1].lossy += n
	} else {
		s.baseLossy += n
	}
}

// FailedAssumptions returns the subset of the last solve's assumption
// literals that the unsat answer actually used — empty when the problem is
// unsat regardless of the assumptions. Frame selectors are filtered out:
// they are an implementation detail of push/pop.
func (s *Session) FailedAssumptions() []int {
	sels := make(map[int]bool, len(s.frames))
	for _, f := range s.frames {
		sels[f.sel] = true
	}
	var out []int
	for _, l := range s.eng.failedAssumps {
		v := l
		if v < 0 {
			v = -v
		}
		if !sels[v] {
			out = append(out, l)
		}
	}
	return out
}

// AllModels enumerates the models of the current assertion stack, exactly
// like Engine.AllModels but without poisoning the session: the
// model-blocking clauses are guarded by a temporary frame and retracted
// when the enumeration finishes, so later solves see the full model space
// again. A nil projection defaults to the base problem's variables
// (selector and Assert variables added after session creation are
// excluded — they are bookkeeping, not problem content).
func (s *Session) AllModels(ctx context.Context, projectVars []int, max int, report func(Model) error) (int, Status, error) {
	if projectVars == nil {
		projectVars = make([]int, s.baseVars)
		for i := range projectVars {
			projectVars[i] = i + 1
		}
	}
	e := s.eng
	s.Push()
	assumps := make([]int, len(s.frames))
	for i, f := range s.frames {
		assumps[i] = f.sel
	}
	e.assumps = assumps
	preLossy := e.st.LossyBlocks
	e.st.SessionSolves++
	count, status, err := e.AllModelsContext(ctx, projectVars, max, report)
	e.assumps = nil
	s.attributeLossy(e.st.LossyBlocks - preLossy)
	if perr := s.Pop(); perr != nil && err == nil {
		err = perr
	}
	return count, status, err
}

// statsDelta returns after − before, entry by entry — the per-call
// attribution a session result carries.
func statsDelta(after, before Stats) Stats {
	after.add(&before, -1)
	return after
}

// addClauseLive adds a clause to the live Boolean solver (when one is
// running) and to the restart accumulator so a later Reset replays it.
func (e *Engine) addClauseLive(clause []int) error {
	if e.boolReady && !e.cfg.RestartBoolean {
		return e.cfg.Bool.AddBlocking(clause)
	}
	// Not started yet: the clause is already in e.p.Clauses or e.lemmas and
	// will be loaded by the first Reset.
	return nil
}

// bindIncremental integrates a freshly bound variable v (0-based) into a
// running engine: the theory projection, integer marking, ground lemmas
// and polarity hints that NewEngine computes up front. The theory-verdict
// cache keys are positional over the (sorted, append-only) projection, so
// old entries stay valid — except when the new atom marks a previously
// continuous arithmetic variable as integer, which changes what every
// check involving that variable means; that wipes the cache.
func (e *Engine) bindIncremental(v int) error {
	a, ok := e.p.Bindings[v]
	if !ok {
		return fmt.Errorf("core: bindIncremental of unbound variable %d", v)
	}
	if len(e.bvars) > 0 && v <= e.bvars[len(e.bvars)-1] {
		return fmt.Errorf("core: incremental binding %d not above existing projection", v)
	}
	e.bvars = append(e.bvars, v)
	if a.Domain == expr.Int {
		for _, name := range a.Vars() {
			if !e.intVars[name] {
				e.intVars[name] = true
				// Integer marking changes the meaning of every cached verdict
				// and linear row that constrains name: wipe both rather than
				// audit them.
				e.tcache, e.lin = nil, nil
			}
		}
	}
	if !e.cfg.NoGroundLemmas {
		for _, cl := range GroundLemmasFor(e.p, v) {
			e.lemmas = append(e.lemmas, cl)
			e.recordLemma(cl, LemmaGround)
			e.noteOwnClause(cl)
			if err := e.addClauseLive(cl); err != nil {
				return err
			}
		}
	}
	if e.boolReady {
		if ps, ok := e.cfg.Bool.(interface{ SetPolarity(v int, neg bool) }); ok {
			switch a.Op {
			case expr.CmpEQ:
				ps.SetPolarity(v, false)
			case expr.CmpNE:
				ps.SetPolarity(v, true)
			}
		}
	}
	return nil
}
