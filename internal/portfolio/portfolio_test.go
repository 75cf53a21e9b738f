package portfolio

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/lp"
)

func satProblem(t *testing.T) *core.Problem {
	t.Helper()
	p := core.NewProblem()
	p.AddClause(1)
	a, err := expr.ParseAtom("x >= 5", expr.Real)
	if err != nil {
		t.Fatal(err)
	}
	p.Bind(0, a)
	return p
}

func unsatProblem(t *testing.T) *core.Problem {
	t.Helper()
	p := core.NewProblem()
	p.AddClause(1)
	p.AddClause(2)
	a1, _ := expr.ParseAtom("x >= 5", expr.Real)
	a2, _ := expr.ParseAtom("x <= 4", expr.Real)
	p.Bind(0, a1)
	p.Bind(1, a2)
	return p
}

func TestPortfolioSat(t *testing.T) {
	out := Solve(context.Background(), satProblem(t), DefaultStrategies(3))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Result.Status != core.StatusSat {
		t.Fatalf("status = %v", out.Result.Status)
	}
	if out.Winner == "" {
		t.Fatal("no winner recorded")
	}
	if out.Result.Model == nil || out.Result.Model.Real["x"] < 5-1e-9 {
		t.Fatalf("model = %+v", out.Result.Model)
	}
	if len(out.Engines) != 3 {
		t.Fatalf("engines = %d", len(out.Engines))
	}
	winners := 0
	for _, er := range out.Engines {
		if er.Winner {
			winners++
			if er.Strategy != out.Winner {
				t.Fatalf("winner mismatch: %q vs %q", er.Strategy, out.Winner)
			}
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d", winners)
	}
	if out.Stats.Iterations < out.Result.Stats.Iterations {
		t.Fatal("merged stats smaller than winner's own")
	}
}

func TestPortfolioUnsat(t *testing.T) {
	out := Solve(context.Background(), unsatProblem(t), DefaultStrategies(2))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Result.Status != core.StatusUnsat {
		t.Fatalf("status = %v", out.Result.Status)
	}
}

func TestPortfolioDoesNotMutateProblem(t *testing.T) {
	p := satProblem(t)
	clauses := len(p.Clauses)
	Solve(context.Background(), p, DefaultStrategies(4))
	if len(p.Clauses) != clauses {
		t.Fatalf("problem mutated: %d clauses, had %d", len(p.Clauses), clauses)
	}
}

// blockingBool is a Boolean solver that parks in Solve until its context is
// cancelled — a stand-in for a configuration that is hopeless on the given
// problem. entered is closed when Solve is first reached, released when it
// returns, so a test can prove the losing engine both started and stopped.
type blockingBool struct {
	entered  chan struct{}
	released chan struct{}
}

func (b *blockingBool) Name() string             { return "blocking" }
func (b *blockingBool) Reset(int, [][]int) error { return nil }
func (b *blockingBool) AddBlocking([]int) error  { return nil }
func (b *blockingBool) Solve(ctx context.Context) ([]bool, bool, error) {
	close(b.entered)
	<-ctx.Done()
	close(b.released)
	return nil, false, ctx.Err()
}

// gateBool delegates to a real Boolean solver but holds its first Solve
// until the gate channel closes, so a test can force the losing engine to
// be provably mid-Solve before the winner finishes.
type gateBool struct {
	inner core.BoolSolver
	gate  <-chan struct{}
}

func (g *gateBool) Name() string                    { return g.inner.Name() }
func (g *gateBool) Reset(nv int, cls [][]int) error { return g.inner.Reset(nv, cls) }
func (g *gateBool) AddBlocking(clause []int) error  { return g.inner.AddBlocking(clause) }
func (g *gateBool) Solve(ctx context.Context) ([]bool, bool, error) {
	<-g.gate
	return g.inner.Solve(ctx)
}

func TestPortfolioCancelsLoser(t *testing.T) {
	slow := &blockingBool{entered: make(chan struct{}), released: make(chan struct{})}
	strategies := []Strategy{
		{Name: "fast", Config: core.Config{Bool: &gateBool{inner: core.NewCDCLSolver(), gate: slow.entered}}},
		{Name: "slow", Config: core.Config{Bool: slow}},
	}
	start := time.Now()
	out := Solve(context.Background(), satProblem(t), strategies)
	elapsed := time.Since(start)
	if out.Result.Status != core.StatusSat || out.Winner != "fast" {
		t.Fatalf("status = %v winner = %q", out.Result.Status, out.Winner)
	}
	// Solve drains every engine before returning, so reaching this point at
	// all proves the loser's goroutine terminated; the channel makes the
	// cancellation path explicit.
	select {
	case <-slow.released:
	default:
		t.Fatal("losing engine's Solve never returned")
	}
	loser := out.Engines[1]
	if loser.Err == nil || !errors.Is(loser.Err, context.Canceled) {
		t.Fatalf("loser err = %v, want context.Canceled", loser.Err)
	}
	if loser.Result.Status != core.StatusUnknown {
		t.Fatalf("loser status = %v", loser.Result.Status)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("portfolio took %v despite an instant winner", elapsed)
	}
}

func TestPortfolioOuterCancellation(t *testing.T) {
	slow := &blockingBool{entered: make(chan struct{}), released: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-slow.entered
		cancel()
	}()
	out := Solve(ctx, unsatProblem(t), []Strategy{
		{Name: "only", Config: core.Config{Bool: slow}},
	})
	if out.Result.Status != core.StatusUnknown {
		t.Fatalf("status = %v", out.Result.Status)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("err = %v", out.Err)
	}
}

func TestDefaultStrategies(t *testing.T) {
	if got := len(DefaultStrategies(0)); got != 1 {
		t.Fatalf("n=0 -> %d strategies", got)
	}
	ss := DefaultStrategies(9)
	if len(ss) != 9 {
		t.Fatalf("n=9 -> %d strategies", len(ss))
	}
	seen := map[string]bool{}
	for _, s := range ss {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("bad or duplicate strategy name %q", s.Name)
		}
		seen[s.Name] = true
	}
	// Fresh solver instances per call: racing two sets concurrently must be
	// safe, which the -race runs of the other tests exercise; here just
	// check distinct pointers where configs carry instances.
	a, b := DefaultStrategies(3), DefaultStrategies(3)
	if a[2].Config.Nonlinear == b[2].Config.Nonlinear {
		t.Fatal("DefaultStrategies shares solver instances between calls")
	}
}

// panickingLinear panics on its first check, after closing entered.
type panickingLinear struct{ entered chan struct{} }

func (panickingLinear) Name() string { return "panicking" }

func (s panickingLinear) Check(context.Context, []lp.Constraint, map[string]float64, map[string]float64, map[string]bool) core.LinearVerdict {
	close(s.entered)
	panic("linear solver bug")
}

// gatedLinear delegates to the simplex solver once the panicking member
// has entered its check, so the panic always happens before the race is
// decided.
type gatedLinear struct {
	core.LinearSolver
	entered chan struct{}
}

func (s gatedLinear) Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) core.LinearVerdict {
	<-s.entered
	return s.LinearSolver.Check(ctx, rows, lower, upper, ints)
}

// TestPanickingMemberLosesRace: a member whose solver panics reports the
// panic as its own error, and the healthy member's verdict still wins.
func TestPanickingMemberLosesRace(t *testing.T) {
	entered := make(chan struct{})
	out := Solve(context.Background(), satProblem(t), []Strategy{
		{Name: "broken", Config: core.Config{Linear: panickingLinear{entered}}},
		{Name: "healthy", Config: core.Config{Linear: gatedLinear{core.NewSimplexSolver(), entered}}},
	})
	if out.Err != nil || out.Result.Status != core.StatusSat || out.Winner != "healthy" {
		t.Fatalf("outcome = %v winner %q err %v, want sat from healthy", out.Result.Status, out.Winner, out.Err)
	}
	err := out.Engines[0].Err
	if err == nil || !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "linear solver bug") {
		t.Fatalf("broken member's error = %v, want the strategy name and the panic value", err)
	}
}
