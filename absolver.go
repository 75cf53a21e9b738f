// Package absolver is a Go reproduction of ABsolver (Bauer, Pister,
// Tautschnig: "Tool-support for the analysis of hybrid systems and models",
// DATE 2007): an extensible multi-domain constraint solver for
// AB-satisfiability problems — Boolean combinations of linear and nonlinear
// arithmetic constraints, as they arise in the analysis of hybrid and
// embedded control systems modelled with block diagrams.
//
// The package is a façade over the engine and its substrates:
//
//   - a CDCL SAT solver with AllSAT enumeration (internal/sat),
//   - a linear feasibility checker: bound propagation, phase-1 simplex,
//     IIS extraction and branch-and-bound (internal/lp),
//   - a nonlinear feasibility solver combining interval constraint
//     propagation with multi-start penalty descent (internal/nlp),
//   - the 3-valued circuit representation (internal/circuit),
//   - the lazy combination engine with pluggable solver interfaces
//     (internal/core),
//   - the extended DIMACS input language (internal/dimacs),
//   - an SMT-LIB 1.2 subset reader (internal/smtlib),
//   - a Simulink-style block-diagram front end with a Lustre intermediate
//     representation (internal/simulink, internal/lustre).
//
// # Quick start
//
//	p, err := absolver.ParseDIMACSString(input)   // extended DIMACS
//	res, err := absolver.Solve(p)
//	if res.Status == absolver.StatusSat {
//	    fmt.Println(res.Model.Real)               // arithmetic witness
//	}
//
// For full control instantiate an Engine with a Config selecting and
// tuning the sub-solvers — the paper's "most appropriate solver for a
// given task can be integrated and used".
package absolver

import (
	"context"
	"io"
	"strings"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/expr"
	"absolver/internal/lustre"
	"absolver/internal/portfolio"
	"absolver/internal/simulink"
	"absolver/internal/smtlib"
)

// Core engine types, re-exported.
type (
	// Problem is an AB-satisfiability problem: CNF clauses over Boolean
	// variables, bindings from variables to arithmetic atoms, and
	// background variable bounds.
	Problem = core.Problem
	// Model is a satisfying valuation: Boolean assignment plus arithmetic
	// witness.
	Model = core.Model
	// Engine runs the lazy SAT/linear/nonlinear combination loop.
	Engine = core.Engine
	// Config selects and tunes the sub-solvers.
	Config = core.Config
	// Result is an engine verdict with statistics.
	Result = core.Result
	// Status is sat / unsat / unknown.
	Status = core.Status
	// Stats carries engine counters and per-stage timings; Stats.Merge
	// aggregates across portfolio engines.
	Stats = core.Stats
	// Event is one engine iteration report delivered to Config.Trace.
	Event = core.Event
	// EventKind classifies a trace event (sat / conflict / lossy-block).
	EventKind = core.EventKind
	// TraceFunc receives engine iteration events.
	TraceFunc = core.TraceFunc
	// Atom is an arithmetic comparison bound to a Boolean variable.
	Atom = expr.Atom
	// Domain marks atoms as integer or real valued.
	Domain = expr.Domain
)

// Engine verdicts.
const (
	StatusSat     = core.StatusSat
	StatusUnsat   = core.StatusUnsat
	StatusUnknown = core.StatusUnknown
)

// Atom domains.
const (
	Real = expr.Real
	Int  = expr.Int
)

// Trace event kinds.
const (
	EventSat        = core.EventSat
	EventConflict   = core.EventConflict
	EventLossyBlock = core.EventLossyBlock
)

// Sentinel errors.
var (
	// ErrTimeout reports that Config.Timeout elapsed before a verdict.
	ErrTimeout = core.ErrTimeout
	// ErrIterationLimit reports that a solve exceeded its SAT↔theory
	// iteration bound.
	ErrIterationLimit = core.ErrIterationLimit
	// ErrModelRejected reports that a SAT model failed the independent
	// certificate check (Config.CheckModels).
	ErrModelRejected = core.ErrModelRejected
)

// Certificate and lemma-audit types, re-exported.
type (
	// Lemma is one learned clause with its provenance (Engine.Lemmas,
	// recorded under Config.RecordLemmas).
	Lemma = core.Lemma
	// LemmaKind classifies a learned clause's soundness obligation.
	LemmaKind = core.LemmaKind
)

// Lemma provenances.
const (
	LemmaGround     = core.LemmaGround
	LemmaConflict   = core.LemmaConflict
	LemmaLossy      = core.LemmaLossy
	LemmaModelBlock = core.LemmaModelBlock
	LemmaImported   = core.LemmaImported
)

// LemmaExchange is the engine hook for cross-engine lemma sharing
// (Config.Exchange); portfolio races wire internal/exchange clients
// through it.
type LemmaExchange = core.LemmaExchange

// CertifyModel independently re-validates a SAT model against p: every
// clause, binding, bound and integrality constraint is replayed through
// expression evaluation, and the problem is re-evaluated as a 3-valued
// circuit under Kleene semantics. A failure returns an error wrapping
// ErrModelRejected. Config.CheckModels runs this on every model the engine
// returns.
func CertifyModel(p *Problem, m Model) error { return core.CertifyModel(p, m) }

// WriterTrace adapts an io.Writer into a TraceFunc producing the
// stand-alone tool's historical -v text lines.
func WriterTrace(w io.Writer) TraceFunc { return core.WriterTrace(w) }

// Plug-in interfaces for sub-solvers (the extensibility mechanism of the
// paper's Sec. 4) and their default implementations.
type (
	// BoolSolver is the propositional plug-in (zChaff / LSAT role).
	BoolSolver = core.BoolSolver
	// LinearSolver is the linear-arithmetic plug-in (COIN role).
	LinearSolver = core.LinearSolver
	// NonlinearSolver is the nonlinear plug-in (IPOPT role).
	NonlinearSolver = core.NonlinearSolver
)

// NewCDCLSolver returns the default Boolean solver.
func NewCDCLSolver() *core.CDCLSolver { return core.NewCDCLSolver() }

// NewExternalCDCLSolver returns a Boolean solver that emulates driving an
// external SAT process (serialise + re-parse per query); combine with
// Config.RestartBoolean for the paper's external-combination mode.
func NewExternalCDCLSolver() *core.ExternalCDCLSolver { return core.NewExternalCDCLSolver() }

// NewLinearChain builds a fallback chain of linear solvers — the paper's
// "list of solvers ... if the preceding solvers thereof failed to provide
// a decent result".
func NewLinearChain(solvers ...LinearSolver) *core.LinearChain {
	return core.NewLinearChain(solvers...)
}

// NewNonlinearChain builds a fallback chain of nonlinear solvers.
func NewNonlinearChain(solvers ...NonlinearSolver) *core.NonlinearChain {
	return core.NewNonlinearChain(solvers...)
}

// TestVector is a generated test case: an atom-decision profile (a path
// through the model's condition structure) plus concrete inputs driving it.
type TestVector = core.TestVector

// GenerateTestVectors enumerates theory-consistent paths with witnesses —
// the paper's Sec. 6 use-case ("common coverage metrics like path coverage
// can be obtained for free").
func GenerateTestVectors(p *Problem, cfg Config, max int) ([]TestVector, Status, error) {
	return core.GenerateTestVectors(p, cfg, max)
}

// Session is the incremental solving surface: one long-lived engine whose
// learned clauses, theory-verdict cache, lemma log and exchange client
// persist across a sequence of related queries. Push opens an assertion
// frame, Assert/AssertClause add constraints to it, Solve answers under
// the current stack, and Pop retracts the innermost frame without
// discarding any still-sound learned knowledge. Sessions are
// single-strategy (no portfolio, no RestartBoolean) and not safe for
// concurrent use.
//
//	s, _ := absolver.NewSession(p, absolver.Config{})
//	base, _ := s.Solve(ctx)          // warm up on the base problem
//	s.Push()
//	v, _ := s.Assert(atom)           // try an extra constraint...
//	res, _ := s.Solve(ctx)           // ...reusing all prior search effort
//	s.Pop()                          // retract it; lemmas are kept
//	_ = base; _ = v; _ = res
type Session = core.Session

// NewSession prepares an incremental session for p (cloned; the caller's
// copy is never mutated). Config.RestartBoolean and non-assumption-capable
// Boolean solvers are rejected: a session exists to keep exactly the state
// restart mode discards.
func NewSession(p *Problem, cfg Config) (*Session, error) { return core.NewSession(p, cfg) }

// NewSimplexSolver returns the default linear solver.
func NewSimplexSolver() *core.SimplexSolver { return core.NewSimplexSolver() }

// NewPenaltySolver returns the default nonlinear solver.
func NewPenaltySolver() *core.PenaltySolver { return core.NewPenaltySolver() }

// NewProblem returns an empty AB problem.
func NewProblem() *Problem { return core.NewProblem() }

// NewEngine prepares an engine for p under cfg. A zero Config selects the
// default solvers.
func NewEngine(p *Problem, cfg Config) *Engine { return core.NewEngine(p, cfg) }

// Solve decides p with the default configuration.
func Solve(p *Problem) (Result, error) {
	return core.NewEngine(p, core.Config{}).Solve()
}

// SolveContext decides p with the default configuration under a caller
// context: cancelling ctx makes the engine return promptly with
// StatusUnknown and ctx.Err(). For full control use
// NewEngine(p, cfg).SolveContext(ctx).
func SolveContext(ctx context.Context, p *Problem) (Result, error) {
	return core.NewEngine(p, core.Config{}).SolveContext(ctx)
}

// Portfolio types, re-exported.
type (
	// Strategy names one engine configuration entering a portfolio race.
	Strategy = portfolio.Strategy
	// PortfolioOutcome is a portfolio race's aggregate answer.
	PortfolioOutcome = portfolio.Outcome
	// PortfolioEngineResult is one engine's individual outcome in a race.
	PortfolioEngineResult = portfolio.EngineResult
	// PortfolioOptions tunes a race beyond the strategy list (lemma
	// sharing on/off, exchange sizing).
	PortfolioOptions = portfolio.Options
)

// DefaultStrategies returns n distinct engine configurations suitable for
// PortfolioSolve, with fresh solver instances on every call.
func DefaultStrategies(n int) []Strategy { return portfolio.DefaultStrategies(n) }

// PortfolioSolve races one engine per strategy over clones of p; the first
// definitive SAT/UNSAT verdict wins and the losers are cancelled and
// drained before the call returns. Members share learned theory-conflict
// clauses through a lemma exchange (PortfolioSolveWith can turn that off).
// Which engine wins is nondeterministic when several finish close together
// — the verdict is always sound, but the winner's identity and the
// reported model may vary between runs.
func PortfolioSolve(ctx context.Context, p *Problem, strategies []Strategy) PortfolioOutcome {
	return portfolio.Solve(ctx, p, strategies)
}

// PortfolioSolveWith is PortfolioSolve with explicit options (e.g. NoShare
// to disable the cross-member lemma exchange).
func PortfolioSolveWith(ctx context.Context, p *Problem, strategies []Strategy, opts PortfolioOptions) PortfolioOutcome {
	return portfolio.SolveWith(ctx, p, strategies, opts)
}

// ParseAtom parses an arithmetic comparison such as
// "a * x + 3.5 / (4 - y) + 2 * y >= 7.1" over the given domain.
func ParseAtom(src string, dom Domain) (Atom, error) { return expr.ParseAtom(src, dom) }

// ParseDIMACS reads a problem in ABsolver's extended DIMACS format
// (standard CNF plus "c def int|real <var> <atom>" and
// "c bound <name> <lo> <hi>" comment lines).
func ParseDIMACS(r io.Reader) (*Problem, error) { return dimacs.Parse(r) }

// ParseDIMACSString is ParseDIMACS over a string.
func ParseDIMACSString(s string) (*Problem, error) { return dimacs.ParseString(s) }

// WriteDIMACS renders a problem in the extended DIMACS format.
func WriteDIMACS(w io.Writer, p *Problem) error { return dimacs.Write(w, p) }

// ParseSMTLIB reads an SMT-LIB 1.2 benchmark and lowers it to an AB
// problem (the automatic conversion of the paper's Sec. 5.2).
func ParseSMTLIB(src string) (*Problem, error) {
	b, err := smtlib.Parse(src)
	if err != nil {
		return nil, err
	}
	return b.ToProblem(), nil
}

// ParseSimulinkModel reads a block-diagram model in the textual format of
// package simulink.
func ParseSimulinkModel(r io.Reader) (*simulink.Model, error) {
	return simulink.ParseModel(r)
}

// ConvertSimulink runs the paper's Fig. 3 tool-chain: block diagram →
// Lustre → AB problem. Variable bounds must be attached by the caller.
func ConvertSimulink(m *simulink.Model) (*Problem, error) {
	prog, err := lustre.FromSimulink(m)
	if err != nil {
		return nil, err
	}
	// Round-trip through the textual representation, as the tool-chain
	// does via SCADE's Lustre files.
	prog2, err := lustre.Parse(lustre.Format(prog))
	if err != nil {
		return nil, err
	}
	return lustre.ExtractProblem(prog2)
}

// ParseLustre reads a mini-Lustre program and extracts the AB problem of
// its main node.
func ParseLustre(src string) (*Problem, error) {
	prog, err := lustre.Parse(src)
	if err != nil {
		return nil, err
	}
	return lustre.ExtractProblem(prog)
}

// AllModels enumerates satisfying models of p (the LSAT use-case:
// consistency-based diagnosis, test-case generation). projectVars selects
// the 1-based Boolean variables over which models are considered distinct
// (nil = all); max bounds the enumeration (0 = unbounded). The callback may
// return core.ErrStopEnumeration to end early.
func AllModels(p *Problem, cfg Config, projectVars []int, max int, report func(Model) error) (int, Status, error) {
	return AllModelsContext(context.Background(), p, cfg, projectVars, max, report)
}

// AllModelsContext is AllModels under a caller context: cancellation stops
// the enumeration promptly, returning the models reported so far with
// StatusUnknown and ctx.Err(). The enumeration runs over one warm Session
// (model-blocking clauses are frame-guarded and retracted at the end)
// whenever the configuration permits; restart mode falls back to a plain
// engine.
func AllModelsContext(ctx context.Context, p *Problem, cfg Config, projectVars []int, max int, report func(Model) error) (int, Status, error) {
	if s, err := core.NewSession(p, cfg); err == nil {
		return s.AllModels(ctx, projectVars, max, report)
	}
	return core.NewEngine(p, cfg).AllModelsContext(ctx, projectVars, max, report)
}

// FormatProblem renders p as extended DIMACS text.
func FormatProblem(p *Problem) (string, error) {
	var sb strings.Builder
	if err := dimacs.Write(&sb, p); err != nil {
		return "", err
	}
	return sb.String(), nil
}
