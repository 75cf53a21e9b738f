package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"absolver/internal/expr"
	"absolver/internal/interval"
	"absolver/internal/lp"
	"absolver/internal/nlp"
	"absolver/internal/polyar"
	"absolver/internal/sat"
)

// Status is the engine's verdict.
type Status int

// Verdicts. StatusUnknown is reported instead of StatusUnsat whenever an
// approximation was used while closing the search space (e.g. a nonlinear
// subproblem the solver could neither witness nor refute) — matching the
// incompleteness the paper accepts for nonlinear arithmetic.
const (
	StatusUnknown Status = iota
	StatusSat
	StatusUnsat
)

// String returns the verdict name.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	}
	return "unknown"
}

// Config selects and tunes the sub-solvers — the paper's "most appropriate
// solver for a given task can be integrated and used".
type Config struct {
	// Bool is the propositional solver (default NewCDCLSolver).
	Bool BoolSolver
	// Linear is the linear-arithmetic solver (default NewSimplexSolver).
	Linear LinearSolver
	// Nonlinear is the nonlinear solver (default NewPenaltySolver).
	Nonlinear NonlinearSolver
	// RestartBoolean re-creates the Boolean solver from scratch on every
	// iteration, reproducing the paper's external-restart overhead ("at
	// the expense of the time required for restarting the entire solving
	// process externally"). Incremental solving is the default.
	RestartBoolean bool
	// NoIIS disables smallest-conflicting-subset refinement; conflicts
	// block the complete atom assignment instead (ablation knob).
	NoIIS bool
	// NoGroundLemmas disables the static pair-lemma grounding pass that
	// seeds the Boolean skeleton with theory-valid clauses (ablation knob).
	NoGroundLemmas bool
	// Timeout bounds the wall-clock time of Solve (0 = none). Exceeding it
	// returns ErrTimeout with StatusUnknown. It composes with the context
	// passed to SolveContext: whichever deadline fires first wins.
	Timeout time.Duration
	// CheckModels independently re-validates every SAT model before it is
	// returned: the model is replayed through Problem.Check (expression
	// evaluation) and through the circuit representation under Kleene
	// semantics (CertifyModel). A model failing either check makes Solve
	// return StatusUnknown with an ErrModelRejected diagnostic instead of
	// a silently wrong "sat". The cost is one extra evaluation pass per
	// returned model — negligible next to the search that produced it.
	CheckModels bool
	// RecordLemmas keeps a provenance-tagged log of every learned clause
	// (ground pair lemmas, theory conflicts, lossy blocks, model blocks),
	// retrievable via Engine.Lemmas. Used by testkit's UNSAT audit to
	// replay conflict lemmas against a reference oracle. Off by default:
	// the log retains one copy of every blocking clause.
	RecordLemmas bool
	// Exchange, when non-nil, connects the engine to a cross-engine lemma
	// store: theory-conflict clauses are published as they are learned, and
	// peers' clauses are imported at the top of each lazy-loop iteration
	// (deduplicated against everything this engine already knows). The
	// portfolio attaches one internal/exchange client per member. The value
	// must be private to this engine — it carries the engine's import
	// cursor.
	Exchange LemmaExchange
	// NoInprocess disables the Boolean solver's inprocessing passes
	// (subsumption, failed-literal probing) when the solver supports the
	// toggle (ablation knob; the differential suites run both sides).
	NoInprocess bool
	// NoTheoryCache disables the theory-verdict cache that memoises
	// theoryCheck results per asserted-atom projection (ablation knob).
	NoTheoryCache bool
	// Trace, when non-nil, receives a structured Event per engine
	// iteration. Use WriterTrace to reproduce the stand-alone tool's -v
	// text output.
	Trace TraceFunc
	// NoPolyAR disables the convex-abstraction-refinement fallback
	// (internal/polyar) that re-examines assignments the penalty-descent
	// nonlinear solver left undecided. With the fallback on (the default),
	// many would-be lossy blocks become definitive sat/unsat verdicts;
	// this knob is the ablation switch and the escape hatch.
	NoPolyAR bool
	// PolyAR sets the fallback's region budget; the zero value means
	// polyar's default. Ignored when NoPolyAR.
	PolyAR polyar.Options
}

// Knob is one on/off ablation switch of Config.
type Knob struct {
	// Name is the knob's wire name: the absolverd query parameter. The
	// absolver CLI flag is the same name with '-' for '_'.
	Name string
	// Usage is the one-line help text of the CLI flag.
	Usage string
	// Field returns the knob's switch inside c.
	Field func(c *Config) *bool
}

// Knobs lists every on/off switch of Config. The CLI flags, the absolverd
// query parameters and the OR-composition onto portfolio strategies
// (WithKnobs) all loop over it, so a new knob is one Config field plus one
// line here.
var Knobs = []Knob{
	{"restart", "restart the Boolean solver per iteration", func(c *Config) *bool { return &c.RestartBoolean }},
	{"no_iis", "disable conflict-set minimisation", func(c *Config) *bool { return &c.NoIIS }},
	{"no_lemmas", "disable theory-lemma grounding", func(c *Config) *bool { return &c.NoGroundLemmas }},
	{"no_cache", "disable the theory-verdict cache", func(c *Config) *bool { return &c.NoTheoryCache }},
	{"no_inprocess", "disable SAT inprocessing (subsumption, failed-literal probing)", func(c *Config) *bool { return &c.NoInprocess }},
	{"no_polyar", "disable the PolyAR abstraction-refinement fallback for undecided nonlinear checks", func(c *Config) *bool { return &c.NoPolyAR }},
	{"check_models", "re-certify every SAT model before reporting it", func(c *Config) *bool { return &c.CheckModels }},
}

// KnobSet is a set of Knobs entries, bit i standing for Knobs[i]. Unlike
// Config it is comparable, so request parameters can carry it by value.
type KnobSet uint32

// KnobSet returns the set of knobs c switches on.
func (c Config) KnobSet() KnobSet {
	var k KnobSet
	for i, kn := range Knobs {
		if *kn.Field(&c) {
			k |= 1 << i
		}
	}
	return k
}

// WithKnobs returns c with every knob in k switched on as well. Knobs only
// ever add their restriction (logical OR): a portfolio strategy defined by
// a knob, such as "restart", keeps it when k lacks that knob.
func (c Config) WithKnobs(k KnobSet) Config {
	for i, kn := range Knobs {
		if k&(1<<i) != 0 {
			*kn.Field(&c) = true
		}
	}
	return c
}

// EventKind classifies an engine trace event.
type EventKind int

// Trace event kinds, one per theory-check outcome.
const (
	// EventSat reports the iteration that found a consistent model.
	EventSat EventKind = iota
	// EventConflict reports a theory conflict turned into a blocking clause.
	EventConflict
	// EventLossyBlock reports an undecidable assignment blocked lossily
	// (the verdict degrades from unsat to unknown).
	EventLossyBlock
	// EventImport reports peer lemmas accepted from the exchange at the
	// top of an iteration (Event.Imported carries the count).
	EventImport
	// EventInprocess reports SAT inprocessing work observed during the
	// iteration's Boolean query (Event.Subsumed/Probed/Compactions carry
	// the deltas).
	EventInprocess
	// EventPolyAR reports a nonlinear verdict the penalty solver left
	// undecided that the convex-abstraction-refinement fallback rescued
	// to a definitive answer (Event.Regions/Pruned carry that call's
	// refinement work; the rescued verdict follows as its own event).
	EventPolyAR
)

// String returns the kind's trace-line name.
func (k EventKind) String() string {
	switch k {
	case EventSat:
		return "sat"
	case EventConflict:
		return "conflict"
	case EventLossyBlock:
		return "lossy-block"
	case EventImport:
		return "import"
	case EventInprocess:
		return "inprocess"
	case EventPolyAR:
		return "polyar"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one engine iteration report delivered to Config.Trace.
type Event struct {
	// Iteration is the 1-based SAT↔theory iteration number.
	Iteration int
	// Kind is the theory-check outcome.
	Kind EventKind
	// ClauseLen is the blocking-clause length (conflict kinds only).
	ClauseLen int
	// Imported is the number of peer lemmas accepted (EventImport only).
	Imported int
	// CacheHit marks a theory verdict served from the theory-verdict cache
	// instead of a solver run.
	CacheHit bool
	// Subsumed, Probed and Compactions carry the SAT inprocessing deltas of
	// an EventInprocess: clauses subsumed or strengthened, failed-literal
	// probes run, and arena compaction passes.
	Subsumed    int64
	Probed      int64
	Compactions int64
	// Regions and Pruned carry one EventPolyAR's refinement work: regions
	// visited and regions discharged as solution-free.
	Regions int
	Pruned  int
}

// TraceFunc receives engine iteration events. Callbacks run synchronously
// on the solving goroutine; keep them cheap.
type TraceFunc func(Event)

// WriterTrace adapts an io.Writer to a TraceFunc, formatting each event
// exactly as the stand-alone tool's historical -v lines, e.g.
// "c iter 3: conflict (clause of 2 literals)".
func WriterTrace(w io.Writer) TraceFunc {
	return func(ev Event) {
		fmt.Fprintf(w, "c iter %d: %s", ev.Iteration, ev.Kind)
		switch {
		case ev.Kind == EventImport:
			fmt.Fprintf(w, " (%d peer lemmas)", ev.Imported)
		case ev.Kind == EventInprocess:
			fmt.Fprintf(w, " (%d subsumed, %d probes, %d compactions)", ev.Subsumed, ev.Probed, ev.Compactions)
		case ev.Kind == EventPolyAR:
			fmt.Fprintf(w, " (%d regions, %d pruned)", ev.Regions, ev.Pruned)
		case ev.Kind != EventSat:
			fmt.Fprintf(w, " (clause of %d literals)", ev.ClauseLen)
		}
		if ev.CacheHit {
			fmt.Fprint(w, " [cached]")
		}
		fmt.Fprintln(w)
	}
}

func (c Config) withDefaults() Config {
	if c.Bool == nil {
		c.Bool = NewCDCLSolver()
	}
	if c.Linear == nil {
		c.Linear = NewSimplexSolver()
	}
	if c.Nonlinear == nil {
		c.Nonlinear = NewPenaltySolver()
	}
	return c
}

// Stats aggregates engine counters and per-stage wall time.
type Stats struct {
	Iterations      int
	LinearChecks    int
	NonlinearChecks int
	ConflictClauses int
	LossyBlocks     int
	NESplits        int
	// LemmasPublished counts theory-conflict clauses this engine offered to
	// the lemma exchange that the store accepted (Config.Exchange).
	LemmasPublished int
	// LemmasImported counts peer lemmas this engine added to its Boolean
	// skeleton.
	LemmasImported int
	// LemmasDeduped counts peer lemmas dropped because this engine already
	// knew an equivalent clause.
	LemmasDeduped int
	// TheoryCacheHits counts theory checks answered from the verdict cache
	// without running the linear/nonlinear solvers.
	TheoryCacheHits int
	// TheoryCacheMisses counts theory checks that ran the solvers and
	// populated the cache.
	TheoryCacheMisses int
	// SessionSolves counts solve calls served through a Session (push/pop
	// incremental solving). Session results carry per-call deltas, so each
	// call contributes exactly 1 and merged stats count calls, not engines.
	SessionSolves int
	// ClausesSubsumed, ProbedLiterals and ArenaCompactions mirror the SAT
	// solver's inprocessing/arena counters (clauses deleted or strengthened
	// by subsumption, failed-literal probes run, mark-and-relocate passes).
	// They are snapshots of the Boolean solver's cumulative counters taken
	// after each Boolean query, so within one engine they are totals, and
	// Merge sums them across engines like every other counter.
	ClausesSubsumed  int
	ProbedLiterals   int
	ArenaCompactions int
	// NLPUnknown counts theory checks the penalty-descent/HC4 nonlinear
	// solver left undecided (no verified witness, no refutation) — the
	// engine's only unknown-prone verdict source and the denominator of
	// the nonlinear-v2 north-star metric.
	NLPUnknown int
	// NLPUnknownRescued counts those undecided checks the PolyAR fallback
	// converted into a definitive sat or unsat verdict.
	NLPUnknownRescued int
	// PolyARRegions, PolyARPruned and PolyARWitnesses total the fallback's
	// refinement work: regions visited, regions discharged as
	// solution-free, and verified SAT witnesses found.
	PolyARRegions   int
	PolyARPruned    int
	PolyARWitnesses int
	BoolTime        time.Duration
	LinearTime      time.Duration
	NonlinearTime   time.Duration
	// WallTime is the engine's total wall-clock time inside Solve /
	// SolveContext. In a portfolio run each engine reports its own
	// WallTime; merged Stats carry the sum over engines (total work),
	// which exceeds elapsed time when engines run in parallel.
	WallTime time.Duration
}

// StatField names one field of Stats: an int counter or a time.Duration
// phase.
type StatField[T int | time.Duration] struct {
	// Name is the stable snake_case key. A counter appears under it in
	// Counters, the JSON API, /metrics (absolverd_engine_<name>_total) and
	// -stats; a phase as <name>_ms in the JSON API and as
	// absolverd_engine_<name>_seconds_total in /metrics.
	Name string
	// Field returns the field inside s.
	Field func(s *Stats) *T
}

// StatCounters and StatPhases name every field of Stats. Merge, the
// session delta, Counters, Phases, the JSON API, /metrics and -stats all
// loop over them, so a new counter is one Stats field plus one line here.
var (
	StatCounters = []StatField[int]{
		{"iterations", func(s *Stats) *int { return &s.Iterations }},
		{"linear_checks", func(s *Stats) *int { return &s.LinearChecks }},
		{"nonlinear_checks", func(s *Stats) *int { return &s.NonlinearChecks }},
		{"conflict_clauses", func(s *Stats) *int { return &s.ConflictClauses }},
		{"lossy_blocks", func(s *Stats) *int { return &s.LossyBlocks }},
		{"ne_splits", func(s *Stats) *int { return &s.NESplits }},
		{"lemmas_published", func(s *Stats) *int { return &s.LemmasPublished }},
		{"lemmas_imported", func(s *Stats) *int { return &s.LemmasImported }},
		{"lemmas_deduped", func(s *Stats) *int { return &s.LemmasDeduped }},
		{"theory_cache_hits", func(s *Stats) *int { return &s.TheoryCacheHits }},
		{"theory_cache_misses", func(s *Stats) *int { return &s.TheoryCacheMisses }},
		{"session_solves", func(s *Stats) *int { return &s.SessionSolves }},
		{"clauses_subsumed", func(s *Stats) *int { return &s.ClausesSubsumed }},
		{"probed_literals", func(s *Stats) *int { return &s.ProbedLiterals }},
		{"arena_compactions", func(s *Stats) *int { return &s.ArenaCompactions }},
		{"nlp_unknown", func(s *Stats) *int { return &s.NLPUnknown }},
		{"nlp_unknown_rescued", func(s *Stats) *int { return &s.NLPUnknownRescued }},
		{"polyar_regions", func(s *Stats) *int { return &s.PolyARRegions }},
		{"polyar_pruned", func(s *Stats) *int { return &s.PolyARPruned }},
		{"polyar_witnesses", func(s *Stats) *int { return &s.PolyARWitnesses }},
	}
	StatPhases = []StatField[time.Duration]{
		{"bool", func(s *Stats) *time.Duration { return &s.BoolTime }},
		{"linear", func(s *Stats) *time.Duration { return &s.LinearTime }},
		{"nonlinear", func(s *Stats) *time.Duration { return &s.NonlinearTime }},
		{"wall", func(s *Stats) *time.Duration { return &s.WallTime }},
	}
)

// Merge accumulates o into s, summing every counter and duration. It is
// how a portfolio run aggregates per-engine statistics: each engine
// goroutine owns its Stats exclusively while solving, and Merge is called
// only after that engine has delivered its result over a channel, so the
// aggregation is race-free by construction (happens-before via channel
// receive) without any locking in the hot solving paths.
func (s *Stats) Merge(o Stats) { s.add(&o, 1) }

// add adds sign·o to s, entry by entry.
func (s *Stats) add(o *Stats, sign int) {
	for _, c := range StatCounters {
		*c.Field(s) += sign * *c.Field(o)
	}
	for _, p := range StatPhases {
		*p.Field(s) += time.Duration(sign) * *p.Field(o)
	}
}

// Counters returns the stats' integer counters keyed by their
// StatCounters names — the aggregation hook for exporters (the absolverd
// /metrics endpoint renders these as Prometheus counters). The key set is
// fixed: every counter appears even when zero, so exporters emit a stable
// series set. Durations are in Phases.
func (s Stats) Counters() map[string]int64 {
	m := make(map[string]int64, len(StatCounters))
	for _, c := range StatCounters {
		m[c.Name] = int64(*c.Field(&s))
	}
	return m
}

// Phases returns the stats' durations keyed by their StatPhases names.
func (s Stats) Phases() map[string]time.Duration {
	m := make(map[string]time.Duration, len(StatPhases))
	for _, p := range StatPhases {
		m[p.Name] = *p.Field(&s)
	}
	return m
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	Model  *Model
	Stats  Stats
}

const (
	// maxIterations bounds SAT↔theory iterations per solve.
	maxIterations = 1000000
	// maxNESplits bounds the disequality case-split tree per theory check.
	maxNESplits = 4096
	// theoryCacheSize caps the number of cached theory verdicts; at
	// capacity the cache is cleared and rebuilt.
	theoryCacheSize = 8192
)

// ErrIterationLimit is returned when a solve exceeds its SAT↔theory
// iteration bound (one million).
var ErrIterationLimit = errors.New("core: iteration limit exceeded")

// ErrTimeout is returned when Config.Timeout elapses before a verdict.
var ErrTimeout = errors.New("core: timeout")

// Engine runs the control loop of Sec. 4 over one problem.
type Engine struct {
	p         *Problem
	cfg       Config
	st        Stats
	boolReady bool
	// blocking accumulates conflict clauses for restart mode.
	blocking [][]int
	lossy    bool
	intVars  map[string]bool
	lower    map[string]float64
	upper    map[string]float64
	lemmas   [][]int
	// lemmaLog is the provenance-tagged clause log (Config.RecordLemmas).
	lemmaLog []Lemma
	// bvars is the sorted list of bound Boolean variables; theoryCheck and
	// the verdict cache both key off this projection order.
	bvars []int
	// sharedSeen holds the canonical keys of every clause the engine knows,
	// for exchange dedup (maintained only when Config.Exchange is set).
	sharedSeen map[string]bool
	// tcache memoises theory verdicts per asserted-atom projection.
	tcache map[string]theoryVerdict
	// lin memoises each literal's linear form (see linear); like tcache
	// it is dropped when a new integer variable is marked.
	lin []*linLit
	// assumps are assumption literals (DIMACS) applied to every Boolean
	// query of the next solve — a Session sets them to its frame selectors
	// plus the caller's literals. Requires an AssumingBoolSolver.
	assumps []int
	// failedAssumps is the assumption-failure core of the last unsat
	// Boolean answer (subset of assumps sufficient for the refutation).
	failedAssumps []int
	// blockGuard, when non-zero, is a selector variable (1-based) prepended
	// negated to every lossy/model-blocking clause, making those blocks
	// retractable by a later unit (-blockGuard). Theory-conflict and ground
	// lemmas are never guarded: they are facts about the bindings, valid
	// forever.
	blockGuard int
}

// NewEngine prepares an engine for p. The problem must not be mutated
// while the engine is in use.
func NewEngine(p *Problem, cfg Config) *Engine {
	e := &Engine{p: p, cfg: cfg.withDefaults()}
	if e.cfg.NoInprocess {
		if ip, ok := e.cfg.Bool.(interface{ SetInprocess(on bool) }); ok {
			ip.SetInprocess(false)
		}
	}
	e.intVars = p.IntVars()
	e.lower, e.upper = boundsMaps(p.Bounds)
	e.bvars = make([]int, 0, len(p.Bindings))
	for v := range p.Bindings {
		e.bvars = append(e.bvars, v)
	}
	sort.Ints(e.bvars)
	if !e.cfg.NoGroundLemmas {
		e.lemmas = GroundPairLemmas(p)
		for _, cl := range e.lemmas {
			e.recordLemma(cl, LemmaGround)
			e.noteOwnClause(cl)
		}
	}
	return e
}

// Stats returns the counters accumulated so far.
func (e *Engine) Stats() Stats { return e.st }

// Solve runs the lazy combination loop: Boolean model → theory check →
// conflict refinement, until a consistent model or exhaustion. It is
// SolveContext over the background context (Config.Timeout still applies).
func (e *Engine) Solve() (Result, error) {
	return e.SolveContext(context.Background())
}

// SolveContext is Solve with cooperative cancellation: every long-running
// inner loop — the CDCL search, simplex pivoting, branch-and-bound,
// disequality case splitting, and nonlinear descent — polls ctx at a short
// interval, so cancellation returns promptly with StatusUnknown and
// ctx.Err(). A Config.Timeout composes with the caller's deadline
// (whichever fires first); expiry of the configured timeout alone is still
// reported as ErrTimeout.
func (e *Engine) SolveContext(ctx context.Context) (Result, error) {
	start := time.Now()
	res, err := e.solve(ctx)
	e.st.WallTime += time.Since(start)
	res.Stats = e.st
	return res, err
}

// cancelErr maps a cancellation error for the caller: a deadline that only
// the engine's own Config.Timeout can have produced is reported as the
// historical ErrTimeout; cancellations originating from the caller's
// context pass through unchanged.
func (e *Engine) cancelErr(outer context.Context, err error) error {
	if e.cfg.Timeout > 0 && outer.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	if err == nil {
		// Defensive: a sub-solver reported cancellation the context no
		// longer shows (cannot happen with the stock solvers).
		return context.Canceled
	}
	return err
}

func (e *Engine) solve(outer context.Context) (Result, error) {
	if err := e.p.Validate(); err != nil {
		return Result{}, err
	}
	e.failedAssumps = nil
	ctx := outer
	if e.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(outer, e.cfg.Timeout)
		defer cancel()
	}
	for iter := 0; iter < maxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return Result{Status: StatusUnknown, Stats: e.st}, e.cancelErr(outer, err)
		}
		e.st.Iterations++
		if imported, err := e.importShared(); err != nil {
			return Result{Stats: e.st}, err
		} else if imported > 0 && e.cfg.Trace != nil {
			e.cfg.Trace(Event{Iteration: iter + 1, Kind: EventImport, Imported: imported})
		}
		model, ok, err := e.nextBoolModel(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return Result{Status: StatusUnknown, Stats: e.st}, e.cancelErr(outer, err)
			}
			return Result{Stats: e.st}, err
		}
		if !ok {
			if e.lossy {
				return Result{Status: StatusUnknown, Stats: e.st}, nil
			}
			return Result{Status: StatusUnsat, Stats: e.st}, nil
		}
		verdict, cached := e.theoryCheckCached(ctx, model)
		if verdict.kind == thCanceled {
			return Result{Status: StatusUnknown, Stats: e.st}, e.cancelErr(outer, ctx.Err())
		}
		if e.cfg.Trace != nil {
			kind := map[theoryKind]EventKind{thSat: EventSat, thConflict: EventConflict, thLossyBlock: EventLossyBlock}[verdict.kind]
			e.cfg.Trace(Event{Iteration: iter + 1, Kind: kind, ClauseLen: len(verdict.conflict), CacheHit: cached})
		}
		switch verdict.kind {
		case thSat:
			m := &Model{Bool: model, Real: verdict.env}
			if e.cfg.CheckModels {
				if err := CertifyModel(e.p, *m); err != nil {
					return Result{Status: StatusUnknown, Stats: e.st}, err
				}
			}
			return Result{Status: StatusSat, Model: m, Stats: e.st}, nil
		case thConflict:
			if err := e.block(verdict.conflict, LemmaConflict); err != nil {
				return Result{Stats: e.st}, err
			}
		case thLossyBlock:
			e.lossy = true
			e.st.LossyBlocks++
			if err := e.block(verdict.conflict, LemmaLossy); err != nil {
				return Result{Stats: e.st}, err
			}
		}
	}
	return Result{Status: StatusUnknown, Stats: e.st}, ErrIterationLimit
}

// AllModels enumerates satisfying models (the LSAT use-case: "due to its
// internal bookkeeping it is able to compute all models"). Projection: two
// models are distinct when they differ on projectVars (1-based DIMACS
// variables; nil = all Boolean variables). The callback may return
// ErrStopEnumeration to end early. Returns the number of models reported
// and the final status (StatusUnsat when the space was exhausted cleanly,
// StatusUnknown when lossy blocks may have hidden models).
func (e *Engine) AllModels(projectVars []int, max int, report func(Model) error) (int, Status, error) {
	return e.AllModelsContext(context.Background(), projectVars, max, report)
}

// AllModelsContext is AllModels with cooperative cancellation: the context
// is polled between models and inside every Solve, so a cancelled
// enumeration stops promptly, returning the models reported so far with
// StatusUnknown and ctx.Err(). Config.Timeout, when set, bounds each
// individual model search, not the whole enumeration.
func (e *Engine) AllModelsContext(ctx context.Context, projectVars []int, max int, report func(Model) error) (int, Status, error) {
	if projectVars == nil {
		projectVars = make([]int, e.p.NumVars)
		for i := range projectVars {
			projectVars[i] = i + 1
		}
	} else {
		// Validate the caller's projection up front: out-of-range variables
		// fail before any solving, and duplicates collapse to one entry (a
		// duplicate would put the same literal twice into every model-block
		// clause).
		seen := make(map[int]bool, len(projectVars))
		clean := make([]int, 0, len(projectVars))
		for _, v := range projectVars {
			if v < 1 || v > e.p.NumVars {
				return 0, StatusUnknown, fmt.Errorf("core: projection variable %d out of range [1,%d]", v, e.p.NumVars)
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			clean = append(clean, v)
		}
		projectVars = clean
	}
	count := 0
	for {
		if max > 0 && count >= max {
			return count, StatusSat, nil
		}
		if err := ctx.Err(); err != nil {
			return count, StatusUnknown, err
		}
		res, err := e.SolveContext(ctx)
		if err != nil {
			return count, res.Status, err
		}
		if res.Status != StatusSat {
			return count, res.Status, nil
		}
		count++
		if report != nil {
			if err := report(*res.Model); err != nil {
				if errors.Is(err, ErrStopEnumeration) {
					return count, StatusSat, nil
				}
				return count, StatusSat, err
			}
		}
		// Block this model on the projection.
		cl := make([]int, 0, len(projectVars))
		for _, v := range projectVars {
			if v < 1 || v > len(res.Model.Bool) {
				return count, StatusUnknown, fmt.Errorf("core: projection variable %d out of range", v)
			}
			if res.Model.Bool[v-1] {
				cl = append(cl, -v)
			} else {
				cl = append(cl, v)
			}
		}
		if err := e.block(cl, LemmaModelBlock); err != nil {
			return count, StatusUnknown, err
		}
	}
}

// ErrStopEnumeration ends AllModels early without error.
var ErrStopEnumeration = errors.New("core: enumeration stopped by callback")

// nextBoolModel obtains the next Boolean model, honouring restart mode.
func (e *Engine) nextBoolModel(ctx context.Context) ([]bool, bool, error) {
	start := time.Now()
	defer func() {
		e.st.BoolTime += time.Since(start)
		e.captureSatStats()
	}()
	if e.cfg.RestartBoolean || !e.boolReady {
		clauses := e.p.Clauses
		extra := len(e.lemmas)
		if e.cfg.RestartBoolean {
			extra += len(e.blocking)
		}
		if extra > 0 {
			clauses = make([][]int, 0, len(e.p.Clauses)+extra)
			clauses = append(clauses, e.p.Clauses...)
			clauses = append(clauses, e.lemmas...)
			if e.cfg.RestartBoolean {
				clauses = append(clauses, e.blocking...)
			}
		}
		if err := e.cfg.Bool.Reset(e.p.NumVars, clauses); err != nil {
			return nil, false, err
		}
		e.applyPolarityHints()
		e.boolReady = true
	}
	if len(e.assumps) > 0 {
		as, ok := e.cfg.Bool.(AssumingBoolSolver)
		if !ok {
			return nil, false, fmt.Errorf("core: Boolean solver %s does not support assumptions", e.cfg.Bool.Name())
		}
		model, sat, failed, err := as.SolveAssuming(ctx, e.assumps)
		if err != nil {
			return nil, false, err
		}
		if !sat {
			e.failedAssumps = failed
			return nil, false, nil
		}
		return e.padModel(model), true, nil
	}
	model, ok, err := e.cfg.Bool.Solve(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	return e.padModel(model), true, nil
}

// padModel grows a Boolean model to the problem's current variable count —
// incremental sessions add variables after the solver was reset, so a
// model may be shorter than NumVars (fresh variables default to false).
func (e *Engine) padModel(model []bool) []bool {
	if len(model) >= e.p.NumVars {
		return model
	}
	grown := make([]bool, e.p.NumVars)
	copy(grown, model)
	return grown
}

// captureSatStats snapshots the Boolean solver's cumulative
// inprocessing/arena counters into the engine stats (the solver keeps
// totals across Resets, so assignment — not addition — is correct within
// one engine) and emits an EventInprocess trace when the counters moved.
func (e *Engine) captureSatStats() {
	ss, ok := e.cfg.Bool.(interface{ Stats() sat.Stats })
	if !ok {
		return
	}
	st := ss.Stats()
	dSub := st.ClausesSubsumed - int64(e.st.ClausesSubsumed)
	dProbe := st.ProbedLiterals - int64(e.st.ProbedLiterals)
	dComp := st.ArenaCompactions - int64(e.st.ArenaCompactions)
	e.st.ClausesSubsumed = int(st.ClausesSubsumed)
	e.st.ProbedLiterals = int(st.ProbedLiterals)
	e.st.ArenaCompactions = int(st.ArenaCompactions)
	if e.cfg.Trace != nil && (dSub > 0 || dProbe > 0 || dComp > 0) {
		e.cfg.Trace(Event{
			Iteration:   e.st.Iterations,
			Kind:        EventInprocess,
			Subsumed:    dSub,
			Probed:      dProbe,
			Compactions: dComp,
		})
	}
}

// freezeVar exempts a 0-based Boolean variable from the solver's
// inprocessing when the solver supports freezing (sessions freeze their
// frame selectors). A solver without the hook simply does not inprocess —
// or does so soundly without the belt-and-braces guard.
func (e *Engine) freezeVar(v int) {
	if fz, ok := e.cfg.Bool.(interface{ FreezeVar(v int) }); ok {
		fz.FreezeVar(v)
	}
}

// applyPolarityHints biases the Boolean search towards theory-cheap
// assignments when the solver supports polarity control: equality atoms
// prefer true (a pinned value is one row; its negation is a disequality
// needing a case split), disequality atoms prefer false for the same
// reason.
func (e *Engine) applyPolarityHints() {
	ps, ok := e.cfg.Bool.(interface{ SetPolarity(v int, neg bool) })
	if !ok {
		return
	}
	for v, a := range e.p.Bindings {
		switch a.Op {
		case expr.CmpEQ:
			ps.SetPolarity(v, false) // try true first
		case expr.CmpNE:
			ps.SetPolarity(v, true) // try false first: ¬(x≠c) is the cheap equality x=c
		}
	}
}

// block records a conflict clause both with the Boolean solver and the
// restart-mode accumulator, logging it under kind when Config.RecordLemmas
// is set.
func (e *Engine) block(clause []int, kind LemmaKind) error {
	if e.blockGuard != 0 && (kind == LemmaLossy || kind == LemmaModelBlock) {
		// Inside a session frame, lossy and model blocks hold only relative
		// to the frame's assertions: guard them on the frame selector so a
		// later Pop retracts them with one unit clause. An empty clause
		// guards to the unit (-sel) — "this frame is closed" — instead of
		// the permanent forced-unsat pair below.
		guarded := make([]int, 0, len(clause)+1)
		guarded = append(guarded, -e.blockGuard)
		guarded = append(guarded, clause...)
		e.recordLemma(guarded, kind)
		e.noteOwnClause(guarded)
		e.blocking = append(e.blocking, guarded)
		e.st.ConflictClauses++
		if !e.cfg.RestartBoolean {
			return e.cfg.Bool.AddBlocking(guarded)
		}
		return nil
	}
	e.recordLemma(clause, kind)
	e.noteOwnClause(clause)
	if kind == LemmaConflict {
		// A theory conflict is a fact about the problem, valid for every
		// peer solving a clone of it; lossy and model blocks are not.
		e.publishShared(clause)
	}
	if len(clause) == 0 {
		// Theory refuted independently of any assumption: force UNSAT by
		// adding an unsatisfiable pair on variable 1.
		if e.p.NumVars == 0 {
			e.p.NumVars = 1
		}
		e.blocking = append(e.blocking, []int{1}, []int{-1})
		e.st.ConflictClauses++
		if !e.cfg.RestartBoolean {
			if err := e.cfg.Bool.AddBlocking([]int{1}); err != nil {
				return err
			}
			return e.cfg.Bool.AddBlocking([]int{-1})
		}
		return nil
	}
	e.blocking = append(e.blocking, clause)
	e.st.ConflictClauses++
	if !e.cfg.RestartBoolean {
		return e.cfg.Bool.AddBlocking(clause)
	}
	return nil
}

// assertedAtom pairs a literal with the atom it asserts under the current
// Boolean model.
type assertedAtom struct {
	lit  int // DIMACS literal that is true in the model
	atom expr.Atom
}

type theoryKind int

const (
	thSat theoryKind = iota
	thConflict
	thLossyBlock
	// thCanceled reports that a sub-solver stopped on context cancellation
	// before reaching a verdict; the engine surfaces StatusUnknown with the
	// context's error.
	thCanceled
)

type theoryVerdict struct {
	kind     theoryKind
	env      expr.Env
	conflict []int
}

// theoryCheck implements the solver-interface layer: extract the asserted
// atoms from the Boolean model, dispatch the linear part (with disequality
// case-splitting), then — if the output pin is still "?" — the nonlinear
// part, and assemble either a witness or a conflict clause.
func (e *Engine) theoryCheck(ctx context.Context, model []bool) theoryVerdict {
	// Iterate bindings in sorted variable order (e.bvars): map iteration
	// order would leak into row order, IIS literal order and blocking
	// clauses, making seeded runs irreproducible (testkit's
	// reproduce-a-failing-seed workflow and the portfolio determinism
	// contract both rely on this).
	asserted := make([]assertedAtom, 0, len(e.bvars))
	for _, v := range e.bvars {
		a := e.p.Bindings[v]
		if model[v] {
			asserted = append(asserted, assertedAtom{lit: v + 1, atom: a})
		} else {
			asserted = append(asserted, assertedAtom{lit: -(v + 1), atom: a.Negate()})
		}
	}
	if len(asserted) == 0 {
		return theoryVerdict{kind: thSat, env: e.defaultEnv(nil)}
	}

	// Partition into linear rows, linear disequalities, and nonlinear atoms.
	rows := make([]lp.Constraint, 0, len(asserted))
	var neqs []assertedAtom
	var nonlinear []assertedAtom
	for _, aa := range asserted {
		l := e.linear(aa)
		if !l.ok {
			nonlinear = append(nonlinear, aa)
			continue
		}
		if aa.atom.Op == expr.CmpNE {
			neqs = append(neqs, aa)
			continue
		}
		rows = append(rows, l.row)
	}

	// Linear stage.
	start := time.Now()
	st, x, conflictLits := e.checkLinearWithNE(ctx, rows, neqs)
	e.st.LinearTime += time.Since(start)
	if st == lp.Canceled {
		return theoryVerdict{kind: thCanceled}
	}
	if st == lp.Infeasible {
		if e.cfg.NoIIS || conflictLits == nil {
			conflictLits = allLits(asserted)
		}
		return theoryVerdict{kind: thConflict, conflict: negate(conflictLits)}
	}
	if st == lp.IterLimit {
		// Cannot decide this assignment: lossy block.
		return theoryVerdict{kind: thLossyBlock, conflict: negate(allLits(asserted))}
	}

	if len(nonlinear) == 0 {
		env := e.defaultEnv(x)
		if e.acceptWitness(asserted, env) {
			return theoryVerdict{kind: thSat, env: env}
		}
		// The completed environment broke an atom the witness left
		// unconstrained (e.g. a disequality over a variable with no weak
		// row), or the linear plug-in's witness left the bounds. Escalate
		// to the nonlinear solver, which handles the full conjunction
		// natively.
	}

	// Nonlinear stage: the output pin is "?" — consult the nonlinear
	// solvers on the joint system (nonlinear atoms plus the linear
	// conjunction, since they share variables).
	atoms := make([]expr.Atom, 0, len(asserted))
	lits := make([]int, 0, len(asserted))
	for _, aa := range nonlinear {
		atoms = append(atoms, aa.atom)
		lits = append(lits, aa.lit)
	}
	for _, aa := range neqs {
		atoms = append(atoms, aa.atom)
		lits = append(lits, aa.lit)
	}
	for _, r := range rows {
		// Re-assert linear atoms in atom form for the joint check.
		atoms = append(atoms, atomOfLit(e.p, r.Tag))
		lits = append(lits, r.Tag)
	}

	startNL := time.Now()
	defer func() { e.st.NonlinearTime += time.Since(startNL) }()
	e.st.NonlinearChecks++
	v := e.escalate(ctx, atoms, asserted, x)
	switch v.kind {
	case thConflict:
		core := lits
		if !e.cfg.NoIIS {
			core = e.minimizeNonlinearConflict(ctx, atoms, lits)
		}
		v.conflict = negate(core)
	case thLossyBlock:
		v.conflict = negate(allLits(asserted))
	}
	return v
}

// escalate runs the nonlinear solvers in the paper's Sec. 4 fallback
// order, each only while the ones before it left the check undecided:
//
//  1. Config.Nonlinear with the integer variables pinned to the linear
//     stage's rounded values (the nonlinear solver is integrality-blind).
//     Only a witness counts here: a refutation under pinned integers says
//     nothing about other integer values.
//  2. Config.Nonlinear over the problem's bounds.
//  3. PolyAR's convex abstraction refinement, unless Config.NoPolyAR. A
//     definitive answer here is an NLPUnknown rescue.
//
// A witness counts only once acceptWitness has passed it; a rejected one
// leaves the check undecided, like Unknown. The verdict's kind is thSat
// (with the accepted environment), thConflict (the joint atom set is
// refuted; the caller builds the clause), thLossyBlock (undecided) or
// thCanceled. Sound by construction: PolyAR prunes a region only when its
// LP relaxation (a superset of the true solution set) is empty.
//
// PolyAR stays an engine stage rather than a member of Config.Nonlinear
// so that replacing or wrapping the nonlinear plug-in keeps it.
func (e *Engine) escalate(ctx context.Context, atoms []expr.Atom, asserted []assertedAtom, x map[string]float64) theoryVerdict {
	hint := envFromLP(x)
	if box := e.pinnedBox(x); box != nil {
		v := e.cfg.Nonlinear.Check(ctx, atoms, box, hint)
		if ctx.Err() != nil {
			return theoryVerdict{kind: thCanceled}
		}
		if env, ok := e.nonlinearWitness(asserted, v.Status, v.X); ok {
			return theoryVerdict{kind: thSat, env: env}
		}
	}
	v := e.cfg.Nonlinear.Check(ctx, atoms, e.p.Bounds, hint)
	if ctx.Err() != nil {
		return theoryVerdict{kind: thCanceled}
	}
	if env, ok := e.nonlinearWitness(asserted, v.Status, v.X); ok {
		return theoryVerdict{kind: thSat, env: env}
	}
	if v.Status == nlp.Infeasible {
		return theoryVerdict{kind: thConflict}
	}

	e.st.NLPUnknown++
	if e.cfg.NoPolyAR {
		return theoryVerdict{kind: thLossyBlock}
	}
	res := polyar.Solve(ctx, atoms, e.p.Bounds, e.intVars, e.cfg.PolyAR)
	e.st.PolyARRegions += res.Stats.Regions
	e.st.PolyARPruned += res.Stats.Pruned
	e.st.PolyARWitnesses += res.Stats.Witnesses
	if ctx.Err() != nil {
		return theoryVerdict{kind: thCanceled}
	}
	env, ok := e.nonlinearWitness(asserted, res.Status, res.X)
	if !ok && res.Status != nlp.Infeasible {
		return theoryVerdict{kind: thLossyBlock}
	}
	e.st.NLPUnknownRescued++
	e.tracePolyAR(res.Stats)
	if ok {
		return theoryVerdict{kind: thSat, env: env}
	}
	return theoryVerdict{kind: thConflict}
}

// pinnedBox returns the problem's bounds with every integer variable the
// linear witness x assigns frozen at its rounded value, or nil when there
// is nothing to pin.
func (e *Engine) pinnedBox(x map[string]float64) expr.Box {
	var pinned expr.Box
	for v := range e.intVars {
		if val, ok := x[v]; ok {
			if pinned == nil {
				pinned = e.p.Bounds.Clone()
			}
			pinned[v] = interval.Point(math.Round(val))
		}
	}
	return pinned
}

// nonlinearWitness completes a nonlinear solver's witness x into a full
// environment (defaultEnv for the variables it leaves out, integer
// variables rounded) and reports whether the result passes acceptWitness.
// A status other than Feasible is never a witness.
func (e *Engine) nonlinearWitness(asserted []assertedAtom, st nlp.Status, x expr.Env) (expr.Env, bool) {
	if st != nlp.Feasible {
		return nil, false
	}
	env := e.defaultEnv(nil)
	for k, v := range x {
		env[k] = v
	}
	for v := range e.intVars {
		if val, ok := env[v]; ok {
			env[v] = math.Round(val)
		}
	}
	return env, e.acceptWitness(asserted, env)
}

func (e *Engine) tracePolyAR(st polyar.Stats) {
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace(Event{
		Iteration: e.st.Iterations,
		Kind:      EventPolyAR,
		Regions:   st.Regions,
		Pruned:    st.Pruned,
	})
}

// checkLinearWithNE decides the conjunction of weak linear rows plus linear
// disequalities by case-splitting each violated disequality into its two
// strict sides (the paper: "either Σ aᵢxᵢ < c, or Σ aᵢxᵢ > c must be
// satisfiable"). Returns the status, a witness when feasible, and the
// literals of a conflicting subset when infeasible (nil = caller blocks
// everything).
func (e *Engine) checkLinearWithNE(ctx context.Context, rows []lp.Constraint, neqs []assertedAtom) (lp.Status, map[string]float64, []int) {
	base := e.checkRows(ctx, rows)
	if base.Status == lp.Infeasible {
		return lp.Infeasible, nil, tagsToLits(rows, base.IIS)
	}
	if base.Status != lp.Feasible {
		return base.Status, nil, nil
	}
	if len(neqs) == 0 {
		return lp.Feasible, base.X, nil
	}

	// Fast path: all disequalities already hold at the witness.
	violated := e.violatedNE(neqs, base.X)
	if len(violated) == 0 {
		return lp.Feasible, base.X, nil
	}

	// DFS over case splits of violated disequalities.
	budget := maxNESplits
	st, x, conflict := e.neSplit(ctx, rows, neqs, &budget)
	if st == lp.Feasible {
		return lp.Feasible, x, nil
	}
	if st == lp.Canceled {
		return lp.Canceled, nil, nil
	}
	if st == lp.IterLimit || budget <= 0 {
		return lp.IterLimit, nil, nil
	}
	return lp.Infeasible, nil, dedupLits(conflict)
}

// neSplit recursively splits the first violated disequality ("either
// Σ aᵢxᵢ < c, or Σ aᵢxᵢ > c must be satisfiable"). On infeasibility it
// returns the union of the two branches' conflict literals — each branch's
// IIS maps split rows back to the disequality's literal via the row tag.
func (e *Engine) neSplit(ctx context.Context, rows []lp.Constraint, neqs []assertedAtom, budget *int) (lp.Status, map[string]float64, []int) {
	if err := ctx.Err(); err != nil {
		return lp.Canceled, nil, nil
	}
	if *budget <= 0 {
		return lp.IterLimit, nil, nil
	}
	*budget--
	res := e.checkRows(ctx, rows)
	if res.Status == lp.Infeasible {
		lits := tagsToLits(rows, res.IIS)
		if lits == nil {
			for _, r := range rows {
				lits = append(lits, r.Tag)
			}
		}
		return lp.Infeasible, nil, lits
	}
	if res.Status != lp.Feasible {
		return res.Status, nil, nil
	}
	violated := e.violatedNE(neqs, res.X)
	if len(violated) == 0 {
		return lp.Feasible, res.X, nil
	}
	e.st.NESplits++
	aa := violated[0]
	var conflict []int
	for _, row := range e.linear(aa).sides {
		st, x, c := e.neSplit(ctx, append(rows[:len(rows):len(rows)], row), neqs, budget)
		if st == lp.Feasible {
			return st, x, nil
		}
		if st == lp.IterLimit || st == lp.Canceled {
			return st, nil, nil
		}
		conflict = append(conflict, c...)
	}
	return lp.Infeasible, nil, conflict
}

// dedupLits removes duplicate literals, preserving order.
func dedupLits(lits []int) []int {
	seen := make(map[int]bool, len(lits))
	out := lits[:0]
	for _, l := range lits {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// checkRows dispatches a weak-row conjunction to the linear plug-in. Each
// row is a literal's memoised row (see linear), tagged with the literal.
func (e *Engine) checkRows(ctx context.Context, rows []lp.Constraint) LinearVerdict {
	e.st.LinearChecks++
	ints := map[string]bool{}
	for _, r := range rows {
		for _, v := range e.lin[litSlot(r.Tag)].ints {
			ints[v] = true
		}
	}
	return e.cfg.Linear.Check(ctx, rows, e.lower, e.upper, ints)
}

// verifyAsserted checks every asserted atom at env with the engine's
// acceptance tolerances.
func verifyAsserted(asserted []assertedAtom, env expr.Env) bool {
	for _, aa := range asserted {
		ok, err := holdsForCheck(aa.atom, env)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// acceptWitness is the acceptance test for a nonlinear solver's witness:
// every asserted atom holds and, as Problem.Check demands of a model,
// every value respects the problem's bounds.
func (e *Engine) acceptWitness(asserted []assertedAtom, env expr.Env) bool {
	if _, out := outOfBounds(e.p.Bounds, env); out {
		return false
	}
	return verifyAsserted(asserted, env)
}

// violatedNE returns the disequalities that fail at x. Each left-hand
// side is summed in sorted variable order, so the tolerance test cannot
// flip with map iteration order.
func (e *Engine) violatedNE(neqs []assertedAtom, x map[string]float64) []assertedAtom {
	var out []assertedAtom
	for _, aa := range neqs {
		l := e.linear(aa)
		lhs := 0.0
		for i, v := range l.vars {
			lhs += l.coeffs[i] * x[v]
		}
		if math.Abs(lhs-l.bound) <= 1e-9 {
			out = append(out, aa)
		}
	}
	return out
}

// linLit is an asserted literal's linear form, built once per engine.
type linLit struct {
	ok bool // the atom is linear
	// row is the literal's lp row, tagged with the literal; for a
	// disequality, sides holds its < and > rows instead.
	row   lp.Constraint
	sides [2]lp.Constraint
	// vars and coeffs are the form's terms in sorted variable order, and
	// bound its right-hand side; ints are the integer-marked vars.
	vars   []string
	coeffs []float64
	bound  float64
	ints   []string
}

// litSlot is literal lit's index in Engine.lin.
func litSlot(lit int) int {
	if lit < 0 {
		return -2*lit + 1
	}
	return 2 * lit
}

// linear returns aa's linear form, memoised per literal: theoryCheck,
// neSplit and violatedNE see the same literals check after check. The
// rows depend on intVars (integralRow), so bindIncremental drops the memo
// when it marks a new integer variable.
func (e *Engine) linear(aa assertedAtom) *linLit {
	i := litSlot(aa.lit)
	if i >= len(e.lin) {
		e.lin = append(e.lin, make([]*linLit, i+1-len(e.lin))...)
	}
	if l := e.lin[i]; l != nil {
		return l
	}
	l := &linLit{}
	if la, ok := expr.LinearizeAtom(aa.atom); ok {
		l.ok, l.bound = true, la.Bound
		l.vars = la.Form.Vars()
		l.coeffs = make([]float64, len(l.vars))
		for j, v := range l.vars {
			l.coeffs[j] = la.Form.Coeffs[v]
			if e.intVars[v] {
				l.ints = append(l.ints, v)
			}
		}
		if aa.atom.Op == expr.CmpNE {
			for j, side := range []expr.CmpOp{expr.CmpLT, expr.CmpGT} {
				sideLA := la
				sideLA.Op = side
				l.sides[j] = linearRow(sideLA, e.intVars)
				l.sides[j].Tag = aa.lit
			}
		} else {
			l.row = linearRow(la, e.intVars)
			l.row.Tag = aa.lit
		}
	}
	e.lin[i] = l
	return l
}

// minimizeNonlinearConflict shrinks the refuted atom set using the cheap
// interval-propagation refutation as the oracle (deletion filter). When
// the full set is not propagation-refutable (the verdict came from a
// richer argument), the full literal set is returned.
func (e *Engine) minimizeNonlinearConflict(ctx context.Context, atoms []expr.Atom, lits []int) []int {
	refuted := func(sub []expr.Atom) bool { return nlp.Refutes(ctx, sub, e.p.Bounds) }
	if !refuted(atoms) {
		return lits
	}
	keepAtoms := append([]expr.Atom(nil), atoms...)
	keepLits := append([]int(nil), lits...)
	for i := 0; i < len(keepAtoms); {
		if ctx.Err() != nil {
			// Cancelled mid-minimisation: the unminimised remainder is still
			// a sound (if larger) conflict.
			return keepLits
		}
		trial := make([]expr.Atom, 0, len(keepAtoms)-1)
		trial = append(trial, keepAtoms[:i]...)
		trial = append(trial, keepAtoms[i+1:]...)
		if refuted(trial) {
			keepAtoms = trial
			keepLits = append(keepLits[:i], keepLits[i+1:]...)
		} else {
			i++
		}
	}
	return keepLits
}

// linearRow converts a normalised linear atom into an lp row, relaxing
// strict inequalities: by a unit step when the row is integral over
// integer-marked variables (regardless of the atom's declared domain — a
// Real-domain atom over an elsewhere-integer variable still only admits
// integer solutions), by lp.Epsilon otherwise.
func linearRow(la expr.LinearAtom, intVars map[string]bool) lp.Constraint {
	row := lp.Constraint{Coeffs: la.Form.Coeffs, RHS: la.Bound}
	delta := lp.Epsilon
	if integralRow(la, intVars) {
		delta = 1
	}
	switch la.Op {
	case expr.CmpLT:
		row.Rel, row.RHS = lp.LE, la.Bound-delta
	case expr.CmpLE:
		row.Rel = lp.LE
	case expr.CmpGT:
		row.Rel, row.RHS = lp.GE, la.Bound+delta
	case expr.CmpGE:
		row.Rel = lp.GE
	case expr.CmpEQ:
		row.Rel = lp.EQ
	default:
		// CmpNE never reaches here (handled by case splitting).
		row.Rel = lp.EQ
	}
	return row
}

// integralRow reports whether every coefficient and the bound are integers
// and every variable is integer-constrained — the condition under which
// "< c" tightens to "≤ c−1".
func integralRow(la expr.LinearAtom, intVars map[string]bool) bool {
	if la.Bound != math.Trunc(la.Bound) {
		return false
	}
	for v, c := range la.Form.Coeffs {
		if c != math.Trunc(c) || !intVars[v] {
			return false
		}
	}
	return true
}

// tagsToLits maps IIS row indices back to literals via row tags. It
// returns nil, so the caller blocks the whole assignment, when iis is nil
// or names an index outside rows: dropping that index would drop a
// literal from the conflict clause and make it unsound.
func tagsToLits(rows []lp.Constraint, iis []int) []int {
	if iis == nil {
		return nil
	}
	out := make([]int, 0, len(iis))
	for _, i := range iis {
		if i < 0 || i >= len(rows) {
			return nil
		}
		out = append(out, rows[i].Tag)
	}
	return out
}

func allLits(asserted []assertedAtom) []int {
	out := make([]int, len(asserted))
	for i, aa := range asserted {
		out[i] = aa.lit
	}
	return out
}

// negate builds the blocking clause ¬(l₁ ∧ … ∧ lₙ).
func negate(lits []int) []int {
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = -l
	}
	return out
}

// atomOfLit returns the atom asserted by the literal under the problem's
// bindings (negated atom for negative literals).
func atomOfLit(p *Problem, lit int) expr.Atom {
	if lit > 0 {
		return p.Bindings[lit-1]
	}
	return p.Bindings[-lit-1].Negate()
}

// envFromLP converts an LP witness map into an expression environment.
func envFromLP(x map[string]float64) expr.Env {
	if x == nil {
		return nil
	}
	env := make(expr.Env, len(x))
	for k, v := range x {
		env[k] = v
	}
	return env
}

// defaultEnv assembles a complete arithmetic environment: LP values where
// available, bound midpoints otherwise, zero for unconstrained variables.
func (e *Engine) defaultEnv(x map[string]float64) expr.Env {
	env := expr.Env{}
	for _, v := range e.p.ArithVars() {
		if x != nil {
			if val, ok := x[v]; ok {
				env[v] = val
				continue
			}
		}
		if iv, ok := e.p.Bounds[v]; ok && !iv.IsEmpty() {
			env[v] = iv.Mid()
			if e.intVars[v] {
				env[v] = math.Round(env[v])
				env[v] = iv.Clamp(env[v])
			}
			continue
		}
		env[v] = 0
	}
	return env
}
