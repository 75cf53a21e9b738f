package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/nlp"
)

// promptness is a generous backstop: with the handshake-based triggers
// below nothing in these tests sleeps or races a timer, so a cancelled
// solve that takes anywhere near this long has a real polling bug.
const promptness = 30 * time.Second

// The cancellation tests must not depend on wall-clock timing (a sleep
// racing the solver flakes under -race on loaded CI machines). Instead,
// each test wraps one of the engine's plug-in solvers with a shim that
// cancels the context from *inside* a solver call: the engine is then
// provably mid-stage when cancellation fires, every run, on any machine.

// cancelOnNthNonlinear cancels at the entry of its nth Check call, then
// delegates; the wrapped solver observes the already-cancelled context.
// The engine drives solvers from a single goroutine, so the counter needs
// no synchronisation.
type cancelOnNthNonlinear struct {
	inner  NonlinearSolver
	cancel context.CancelFunc
	n      int
	calls  int
}

func (c *cancelOnNthNonlinear) Name() string { return "cancel-shim:" + c.inner.Name() }

func (c *cancelOnNthNonlinear) Check(ctx context.Context, atoms []expr.Atom, box expr.Box, hint expr.Env) NonlinearVerdict {
	c.calls++
	if c.calls >= c.n {
		c.cancel()
	}
	return c.inner.Check(ctx, atoms, box, hint)
}

// cancelOnNthLinear is the LinearSolver analogue.
type cancelOnNthLinear struct {
	inner  LinearSolver
	cancel context.CancelFunc
	n      int
	calls  int
}

func (c *cancelOnNthLinear) Name() string { return "cancel-shim:" + c.inner.Name() }

func (c *cancelOnNthLinear) Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) LinearVerdict {
	c.calls++
	if c.calls >= c.n {
		c.cancel()
	}
	return c.inner.Check(ctx, rows, lower, upper, ints)
}

// cancelOnNthBool is the BoolSolver analogue: cancellation fires at the
// entry of the nth Solve, so the CDCL search starts on a cancelled
// context and must surface it from its own polling loop.
type cancelOnNthBool struct {
	inner  BoolSolver
	cancel context.CancelFunc
	n      int
	calls  int
}

func (c *cancelOnNthBool) Name() string { return "cancel-shim:" + c.inner.Name() }

func (c *cancelOnNthBool) Reset(numVars int, clauses [][]int) error {
	return c.inner.Reset(numVars, clauses)
}

func (c *cancelOnNthBool) Solve(ctx context.Context) ([]bool, bool, error) {
	c.calls++
	if c.calls >= c.n {
		c.cancel()
	}
	return c.inner.Solve(ctx)
}

func (c *cancelOnNthBool) AddBlocking(clause []int) error { return c.inner.AddBlocking(clause) }

// blockingNonlinear parks inside Check until the context is done — the
// deterministic stand-in for "a solver stage that outlives any deadline".
type blockingNonlinear struct{}

func (blockingNonlinear) Name() string { return "blocking" }

func (blockingNonlinear) Check(ctx context.Context, atoms []expr.Atom, box expr.Box, hint expr.Env) NonlinearVerdict {
	<-ctx.Done()
	return NonlinearVerdict{Status: nlp.Unknown}
}

// nonlinearProblem needs the nonlinear stage to decide it (a product atom
// the linear stage cannot handle), guaranteeing the wrapped solver runs.
func nonlinearProblem(t testing.TB) *Problem {
	t.Helper()
	p := NewProblem()
	p.AddClause(1)
	a, err := expr.ParseAtom("x * y >= 1", expr.Real)
	if err != nil {
		t.Fatal(err)
	}
	p.Bind(0, a)
	p.SetBounds("x", -100, 100)
	p.SetBounds("y", -100, 100)
	return p
}

func TestSolveContextCancelMidNonlinear(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shim := &cancelOnNthNonlinear{inner: NewPenaltySolver(), cancel: cancel, n: 1}
	eng := NewEngine(nonlinearProblem(t), Config{Nonlinear: shim})
	start := time.Now()
	res, err := eng.SolveContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v, want unknown", res.Status)
	}
	if shim.calls == 0 {
		t.Fatal("nonlinear stage never ran: cancellation was not mid-solve")
	}
	if elapsed > promptness {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
}

func TestSolveContextOuterDeadline(t *testing.T) {
	// The nonlinear stage blocks until the caller's deadline expires, so
	// the test is a pure handshake: no solver race, no flaky margins.
	eng := NewEngine(nonlinearProblem(t), Config{Nonlinear: blockingNonlinear{}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.SolveContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded (caller deadline, not ErrTimeout)", err)
	}
	if err == ErrTimeout {
		t.Fatal("caller deadline must not masquerade as Config.Timeout")
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v", res.Status)
	}
	if elapsed := time.Since(start); elapsed > promptness {
		t.Fatalf("deadline solve took %v", elapsed)
	}
}

func TestConfigTimeoutStillErrTimeout(t *testing.T) {
	cfg := Config{Nonlinear: blockingNonlinear{}, Timeout: 30 * time.Millisecond}
	eng := NewEngine(nonlinearProblem(t), cfg)
	res, err := eng.SolveContext(context.Background())
	if err != ErrTimeout { // sentinel equality: internal/bench compares with ==
		t.Fatalf("err = %v, want ErrTimeout sentinel", err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Stats.WallTime <= 0 {
		t.Fatal("WallTime not accounted")
	}
}

func TestAllModelsContextCancel(t *testing.T) {
	// 2^19 models over 20 variables: far too many to enumerate, so the
	// cancellation issued by the report callback must end the run. This is
	// already a handshake — the callback cancels after the 5th model.
	p := NewProblem()
	cl := make([]int, 20)
	for i := range cl {
		cl[i] = i + 1
	}
	p.AddClause(cl...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	eng := NewEngine(p, Config{})
	start := time.Now()
	count, status, err := eng.AllModelsContext(ctx, nil, 0, func(Model) error {
		seen++
		if seen == 5 {
			cancel()
		}
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if status != StatusUnknown {
		t.Fatalf("status = %v (cancelled enumeration proves nothing)", status)
	}
	if count != 5 {
		t.Fatalf("count = %d, want the 5 models reported before cancellation", count)
	}
	if elapsed > promptness {
		t.Fatalf("cancelled enumeration took %v", elapsed)
	}
}

func TestSolveContextCancelMidNESplit(t *testing.T) {
	// Integer pigeonhole via disequalities: 8 variables over 6 values, all
	// pairwise distinct. Every Boolean model asserts all 28 disequalities,
	// so the engine spends its time deep in the NE case-split recursion —
	// the exact loop the context must interrupt. The linear shim cancels
	// at its 10th call, which lands well inside the recursion.
	p := NewProblem()
	n := 8
	v := 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, err := expr.ParseAtom(fmt.Sprintf("h%d - h%d != 0", i, j), expr.Int)
			if err != nil {
				t.Fatal(err)
			}
			p.AddClause(v)
			p.Bind(v-1, a)
			v++
		}
	}
	for i := 0; i < n; i++ {
		p.SetBounds(fmt.Sprintf("h%d", i), 0, 5)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shim := &cancelOnNthLinear{inner: NewSimplexSolver(), cancel: cancel, n: 10}
	cfg := Config{NoGroundLemmas: true, Linear: shim}
	eng := NewEngine(p, cfg)
	start := time.Now()
	res, err := eng.SolveContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v", res.Status)
	}
	if shim.calls < 10 {
		t.Fatalf("linear stage ran %d times; cancellation cannot have been mid-split", shim.calls)
	}
	if elapsed > promptness {
		t.Fatalf("cancelled NE-split solve took %v", elapsed)
	}
}

func TestSolveContextCancelMidCDCL(t *testing.T) {
	// Pigeonhole principle PHP(10,9): pure CNF, exponentially hard for
	// CDCL, no theory atoms. The Boolean shim cancels at the entry of the
	// first Solve, so the search starts on a cancelled context; only its
	// internal polling can notice — exactly the path under test. Without
	// working in-search polling this instance takes effectively forever.
	p := NewProblem()
	pigeons, holes := 10, 9
	at := func(i, j int) int { return i*holes + j + 1 }
	for i := 0; i < pigeons; i++ {
		cl := make([]int, holes)
		for j := 0; j < holes; j++ {
			cl[j] = at(i, j)
		}
		p.AddClause(cl...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				p.AddClause(-at(i, j), -at(k, j))
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shim := &cancelOnNthBool{inner: NewCDCLSolver(), cancel: cancel, n: 1}
	eng := NewEngine(p, Config{Bool: shim})
	start := time.Now()
	res, err := eng.SolveContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v", res.Status)
	}
	if elapsed > promptness {
		t.Fatalf("cancelled CDCL solve took %v", elapsed)
	}
}

func TestSolveContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine(nonlinearProblem(t), Config{}).SolveContext(ctx)
	if !errors.Is(err, context.Canceled) || res.Status != StatusUnknown {
		t.Fatalf("res = %v err = %v", res.Status, err)
	}
}

func TestSolveContextBackgroundUnaffected(t *testing.T) {
	// The context plumbing must not change verdicts on the normal path.
	p := NewProblem()
	p.AddClause(1)
	a, _ := expr.ParseAtom("x >= 5", expr.Real)
	p.Bind(0, a)
	res, err := NewEngine(p, Config{}).SolveContext(context.Background())
	if err != nil || res.Status != StatusSat {
		t.Fatalf("res = %v err = %v", res.Status, err)
	}
	if res.Stats.WallTime <= 0 {
		t.Fatal("WallTime not recorded")
	}
}
