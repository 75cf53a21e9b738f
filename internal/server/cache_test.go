package server_test

import (
	"context"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/server"
	"absolver/internal/server/api"
)

// Variants of satDIMACS that are canonically the same problem: the clause
// literals are permuted, a clause is repeated, and binding whitespace
// differs. The verdict cache must treat them as one identity.
const (
	satDIMACSPermuted = "p cnf 2 1\n2 1 0\nc def real 1 x >= 1\n"
	satDIMACSRepeated = "p cnf 2 2\n1 2 0\n1 2 0\nc def real 1   x >= 1\n"
)

func cacheCounters(t *testing.T, c interface {
	Metrics(context.Context) (map[string]float64, error)
}) (hits, misses, satSolves float64) {
	t.Helper()
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return m["absolverd_cache_hits_total"], m["absolverd_cache_misses_total"],
		m[`absolverd_solves_total{verdict="sat"}`]
}

func TestCacheHitOnCanonicallyIdenticalProblems(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()

	first, err := c.Solve(ctx, satDIMACS, api.SolveParams{})
	if err != nil || first.Status != "sat" {
		t.Fatalf("first: %v %+v", err, first)
	}
	for _, variant := range []string{satDIMACS, satDIMACSPermuted, satDIMACSRepeated} {
		resp, err := c.Solve(ctx, variant, api.SolveParams{})
		if err != nil || resp.Status != "sat" {
			t.Fatalf("variant %q: %v %+v", variant, err, resp)
		}
		// A cached answer replays the original response verbatim.
		if resp.Stats.Iterations != first.Stats.Iterations {
			t.Fatalf("variant %q got fresh stats %+v, want cached %+v", variant, resp.Stats, first.Stats)
		}
	}
	hits, misses, sat := cacheCounters(t, c)
	if hits != 3 || misses != 1 || sat != 1 {
		t.Fatalf("hits=%g misses=%g sat_solves=%g, want 3/1/1", hits, misses, sat)
	}
}

func TestCacheDistinguishesDistinctProblems(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	if _, err := c.Solve(ctx, satDIMACS, api.SolveParams{}); err != nil {
		t.Fatal(err)
	}
	// Same clause skeleton, different bound: a different canonical identity.
	resp, err := c.Solve(ctx, "p cnf 2 1\n1 2 0\nc def real 1 x >= 2\n", api.SolveParams{})
	if err != nil || resp.Status != "sat" {
		t.Fatalf("distinct: %v %+v", err, resp)
	}
	hits, misses, _ := cacheCounters(t, c)
	if hits != 0 || misses != 2 {
		t.Fatalf("hits=%g misses=%g, want 0/2", hits, misses)
	}
}

func TestCacheBypassWithNoCache(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		resp, err := c.Solve(ctx, satDIMACS, api.SolveParams{Knobs: core.Config{NoTheoryCache: true}.KnobSet()})
		if err != nil || resp.Status != "sat" {
			t.Fatalf("solve %d: %v %+v", i, err, resp)
		}
	}
	hits, misses, sat := cacheCounters(t, c)
	// no_cache requests never touch the cache in either direction.
	if hits != 0 || misses != 0 || sat != 2 {
		t.Fatalf("hits=%g misses=%g sat_solves=%g, want 0/0/2", hits, misses, sat)
	}
	// ...and they must not have seeded the cache for later requests.
	if _, err := c.Solve(ctx, satDIMACS, api.SolveParams{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := cacheCounters(t, c); hits != 0 || misses != 1 {
		t.Fatalf("post-bypass hits=%g misses=%g, want 0/1", hits, misses)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2, CacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Solve(ctx, satDIMACS, api.SolveParams{}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, sat := cacheCounters(t, c)
	if hits != 0 || misses != 0 || sat != 2 {
		t.Fatalf("hits=%g misses=%g sat_solves=%g, want 0/0/2 with the cache disabled", hits, misses, sat)
	}
}

func TestCacheHitRecertifiesUnderCheckModels(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	first, err := c.Solve(ctx, satDIMACS, api.SolveParams{Knobs: core.Config{CheckModels: true}.KnobSet()})
	if err != nil || first.Status != "sat" || first.Model == nil {
		t.Fatalf("first: %v %+v", err, first)
	}
	// The hit passes through CertifyModel against the incoming problem and
	// serves the cached witness.
	second, err := c.Solve(ctx, satDIMACSPermuted, api.SolveParams{Knobs: core.Config{CheckModels: true}.KnobSet()})
	if err != nil || second.Status != "sat" || second.Model == nil {
		t.Fatalf("second: %v %+v", err, second)
	}
	if second.Model.Real["x"] != first.Model.Real["x"] {
		t.Fatalf("hit did not replay the cached witness: %+v vs %+v", second.Model, first.Model)
	}
	hits, _, sat := cacheCounters(t, c)
	if hits != 1 || sat != 1 {
		t.Fatalf("hits=%g sat_solves=%g, want 1/1", hits, sat)
	}
	// A cached unsat verdict needs no certificate and is served as-is.
	if _, err := c.Solve(ctx, unsatDIMACS, api.SolveParams{}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve(ctx, unsatDIMACS, api.SolveParams{Knobs: core.Config{CheckModels: true}.KnobSet()})
	if err != nil || resp.Status != "unsat" {
		t.Fatalf("cached unsat under check_models: %v %+v", err, resp)
	}
}

func TestCacheNeverStoresUnknown(t *testing.T) {
	// An unknown produced by a stingy deadline must not poison a later
	// request for the same problem under a laxer deadline: unknown is
	// budget-relative and never enters the cache.
	_, c := newTestServer(t, server.Config{
		Workers: 1, QueueDepth: 2,
		SolveDelay: 200 * time.Millisecond,
	})
	ctx := context.Background()
	resp, err := c.Solve(ctx, satDIMACS, api.SolveParams{Timeout: 30 * time.Millisecond})
	if err != nil || resp.Status != "unknown" {
		t.Fatalf("deadline solve: %v %+v", err, resp)
	}
	resp, err = c.Solve(ctx, satDIMACS, api.SolveParams{})
	if err != nil || resp.Status != "sat" {
		t.Fatalf("lax retry: %v %+v, want a real sat solve", err, resp)
	}
	hits, misses, _ := cacheCounters(t, c)
	if hits != 0 || misses != 2 {
		t.Fatalf("hits=%g misses=%g, want 0/2: unknown must not be cached", hits, misses)
	}
}
