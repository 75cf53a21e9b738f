// Package exchange is a concurrency-safe store of learned theory lemmas
// shared between the engines of a portfolio race. A theory-conflict clause
// is a fact about the problem, not about the engine that found it: the
// conjunction of atoms it blocks is infeasible under the problem's bounds,
// so every engine racing over a clone of the same problem may add the
// clause to its Boolean skeleton without re-running the theory check that
// produced it. Exchanging such clauses is the classic parallel-SMT/SAT
// speedup (GridSAT-style clause sharing): one member's simplex or penalty
// run prunes every member's Boolean search.
//
// The store is sharded by a hash of the clause's canonical key — the
// sorted, deduplicated literal set — so concurrent publishers contend on
// shard mutexes rather than one global lock, and it is size-capped so a
// degenerate run cannot accumulate unbounded clauses. Each engine attaches
// through its own Client, which keeps per-shard read cursors (imports are
// incremental, never a full scan) and skips clauses the same client
// published (an engine never re-imports its own lemmas).
//
// Sharing is sound but not deterministic: which lemmas an engine sees at a
// given iteration depends on the interleaving of the racing goroutines. A
// portfolio with a single member degenerates to no exchange at all (its
// client only ever skips its own clauses), so single-strategy runs stay
// bit-for-bit reproducible.
package exchange

import (
	"strconv"
	"sync"
	"sync/atomic"
)

const (
	// numShards is the number of lock shards; more shards reduce publisher
	// contention.
	numShards = 16
	// maxLemmas caps the total number of stored clauses across all shards.
	// Publishes beyond the cap are dropped — the store never evicts, so an
	// imported cursor is always valid.
	maxLemmas = 1 << 14
	// maxClauseLen drops clauses longer than this many literals. Long
	// blocking clauses prune almost nothing for peers (they exclude a
	// single near-total assignment) while costing every importer memory
	// and propagation work; sharing is for short, general lemmas.
	maxClauseLen = 32
)

// Stats is a snapshot of store-level counters.
type Stats struct {
	// Published counts clauses accepted into the store.
	Published int
	// Deduped counts publishes dropped because an equivalent clause (same
	// canonical literal set) was already stored.
	Deduped int
	// Dropped counts publishes rejected by the size or length caps.
	Dropped int
}

// shard is one lock-striped slice of the store.
type shard struct {
	mu sync.Mutex
	// seen maps canonical keys to their index in clauses.
	seen map[string]int
	// clauses is append-only: cursors held by clients index into it.
	clauses [][]int
	// owner[i] is the id of the client that published clauses[i].
	owner []uint64
}

// Exchange is the shared store. Construct with New; the zero value is not
// usable.
type Exchange struct {
	shards []shard
	// lemmaCap and clauseLenCap are maxLemmas and maxClauseLen, except in
	// tests that shrink them.
	lemmaCap, clauseLenCap int
	// size is the total clause count across shards. Publishers reserve a
	// slot with a CAS against lemmaCap before inserting (and release it on
	// a duplicate), so the count never exceeds the cap even under
	// concurrent publishes.
	size atomic.Int64
	// nextClient allocates client ids.
	nextClient atomic.Uint64

	published atomic.Int64
	deduped   atomic.Int64
	dropped   atomic.Int64
}

// New builds an empty exchange.
func New() *Exchange { return newExchange(maxLemmas, maxClauseLen) }

func newExchange(lemmaCap, clauseLenCap int) *Exchange {
	ex := &Exchange{shards: make([]shard, numShards), lemmaCap: lemmaCap, clauseLenCap: clauseLenCap}
	for i := range ex.shards {
		ex.shards[i].seen = map[string]int{}
	}
	return ex
}

// Stats returns a snapshot of the store counters. Safe to call
// concurrently with publishers and importers.
func (ex *Exchange) Stats() Stats {
	return Stats{
		Published: int(ex.published.Load()),
		Deduped:   int(ex.deduped.Load()),
		Dropped:   int(ex.dropped.Load()),
	}
}

// Len returns the number of stored clauses.
func (ex *Exchange) Len() int { return int(ex.size.Load()) }

// NewClient attaches a new participant. Each engine of a portfolio gets
// its own client; a Client must not be used from more than one goroutine
// at a time (the store itself is safe for any number of clients).
func (ex *Exchange) NewClient() *Client {
	return &Client{
		ex:      ex,
		id:      ex.nextClient.Add(1),
		cursors: make([]int, len(ex.shards)),
	}
}

// Canon returns the canonical form of a clause — sorted ascending,
// duplicate literals removed — and its string key. Clause order and
// duplication are artefacts of how a conflict was derived; the canonical
// literal set is what identifies the lemma.
func Canon(clause []int) (canon []int, key string) {
	canon = append(make([]int, 0, len(clause)), clause...)
	// Insertion sort: conflict clauses are short (a handful of literals),
	// where this beats sort.Ints and allocates nothing.
	for i := 1; i < len(canon); i++ {
		for j := i; j > 0 && canon[j-1] > canon[j]; j-- {
			canon[j-1], canon[j] = canon[j], canon[j-1]
		}
	}
	out := canon[:0]
	for i, l := range canon {
		if i == 0 || l != canon[i-1] {
			out = append(out, l)
		}
	}
	canon = out
	var b []byte
	for _, l := range canon {
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, ',')
	}
	return canon, string(b)
}

// publish stores the canonical clause under key for owner id. It reports
// whether the clause was accepted (false: duplicate or capped).
func (ex *Exchange) publish(id uint64, canon []int, key string) bool {
	if len(canon) == 0 || len(canon) > ex.clauseLenCap {
		ex.dropped.Add(1)
		return false
	}
	// Reserve a slot against the cap with a CAS loop before touching the
	// shard: a plain load-then-insert would let concurrent publishers all
	// pass the check and overshoot the cap together. With reservation,
	// size never exceeds the cap — Len() ≤ lemmaCap is an invariant, not
	// a steady-state approximation — and a reservation that turns out to be
	// a duplicate is released below.
	for {
		n := ex.size.Load()
		if int(n) >= ex.lemmaCap {
			ex.dropped.Add(1)
			return false
		}
		if ex.size.CompareAndSwap(n, n+1) {
			break
		}
	}
	sh := &ex.shards[shardOf(key, len(ex.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.seen[key]; dup {
		ex.size.Add(-1) // release the reserved slot
		ex.deduped.Add(1)
		return false
	}
	sh.seen[key] = len(sh.clauses)
	sh.clauses = append(sh.clauses, canon)
	sh.owner = append(sh.owner, id)
	ex.published.Add(1)
	return true
}

// shardOf hashes a canonical key onto a shard index (FNV-1a).
func shardOf(key string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Client is one participant's handle on the exchange. Methods must not be
// called concurrently on the same Client.
type Client struct {
	ex      *Exchange
	id      uint64
	cursors []int
}

// Publish canonicalises the clause and stores it unless an equivalent
// clause is already present or a cap rejects it. Reports acceptance. The
// clause is copied; the caller keeps ownership of its slice.
func (c *Client) Publish(clause []int) bool {
	canon, key := Canon(clause)
	return c.ex.publish(c.id, canon, key)
}

// Import returns the clauses published by other clients since the last
// Import on this client, in shard order. The returned slices are shared
// with the store and with every other importer: callers must treat them as
// immutable. Returns nil when there is nothing new.
func (c *Client) Import() [][]int {
	var out [][]int
	for i := range c.ex.shards {
		sh := &c.ex.shards[i]
		sh.mu.Lock()
		for ; c.cursors[i] < len(sh.clauses); c.cursors[i]++ {
			if sh.owner[c.cursors[i]] == c.id {
				continue
			}
			out = append(out, sh.clauses[c.cursors[i]])
		}
		sh.mu.Unlock()
	}
	return out
}
