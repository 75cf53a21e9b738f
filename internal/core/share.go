package core

import (
	"context"
	"sort"
	"strconv"

	"absolver/internal/expr"
)

// LemmaExchange is the engine's hook into a cross-engine lemma store (the
// portfolio wires internal/exchange clients through it). The engine
// publishes every theory-conflict clause it derives — such a clause states
// a fact about the problem (the blocked atom conjunction is infeasible
// under the problem's bounds), so it is sound for every engine solving a
// clone of the same problem — and imports peers' clauses at the top of
// each lazy-loop iteration.
//
// The engine calls both methods from its own goroutine only; a value given
// to one engine must not be shared with another (each engine needs its own
// import cursor). Implementations must tolerate Publish and Import being
// interleaved arbitrarily with other engines' calls on sibling values.
// Import results must be treated as immutable by the engine — they may be
// shared with the store and with other importers.
type LemmaExchange interface {
	// Publish offers a learned clause to peers; reports acceptance.
	Publish(clause []int) bool
	// Import returns peers' clauses not yet seen by this hook.
	Import() [][]int
}

// litSetKey canonicalises a clause into a dedup key: the sorted,
// deduplicated literal set rendered as text. Two clauses with the same key
// block the same assignments, so the engine keeps only one.
func litSetKey(clause []int) string {
	lits := append(make([]int, 0, len(clause)), clause...)
	sort.Ints(lits)
	var b []byte
	for i, l := range lits {
		if i > 0 && l == lits[i-1] {
			continue
		}
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, ',')
	}
	return string(b)
}

// noteOwnClause records a clause the engine itself learned, so a peer's
// equivalent lemma is not re-imported. Only maintained when an exchange is
// attached — without one the key set is dead weight.
func (e *Engine) noteOwnClause(clause []int) {
	if e.cfg.Exchange == nil {
		return
	}
	if e.sharedSeen == nil {
		e.sharedSeen = map[string]bool{}
	}
	e.sharedSeen[litSetKey(clause)] = true
}

// publishShared offers a theory-conflict clause to the exchange.
func (e *Engine) publishShared(clause []int) {
	if e.cfg.Exchange == nil || len(clause) == 0 {
		return
	}
	if e.cfg.Exchange.Publish(clause) {
		e.st.LemmasPublished++
	}
}

// importShared pulls peers' lemmas into the Boolean skeleton at the top of
// a lazy-loop iteration. Clauses the engine already knows (its own log, or
// an earlier import) are dropped and counted as deduped; accepted clauses
// are added like blocking clauses — immediately in incremental mode, via
// the next Reset in restart mode. Returns the number of clauses accepted
// this call.
func (e *Engine) importShared() (int, error) {
	if e.cfg.Exchange == nil {
		return 0, nil
	}
	accepted := 0
	for _, cl := range e.cfg.Exchange.Import() {
		key := litSetKey(cl)
		if e.sharedSeen[key] {
			e.st.LemmasDeduped++
			continue
		}
		if e.sharedSeen == nil {
			e.sharedSeen = map[string]bool{}
		}
		e.sharedSeen[key] = true
		e.st.LemmasImported++
		accepted++
		e.recordLemma(cl, LemmaImported)
		// Mirror the clause-feeding paths of block(): restart mode re-adds
		// e.lemmas on every Reset; incremental mode needs an explicit add
		// once the solver is live.
		e.lemmas = append(e.lemmas, cl)
		if !e.cfg.RestartBoolean && e.boolReady {
			if err := e.cfg.Bool.AddBlocking(cl); err != nil {
				return accepted, err
			}
		}
	}
	return accepted, nil
}

// ---------------------------------------------------------------------------
// Theory-verdict cache.

// copyVerdict deep-copies a theory verdict so cache entries never alias
// slices or maps handed to the caller (models are caller-owned; conflict
// clauses are retained by the Boolean solver).
func copyVerdict(v theoryVerdict) theoryVerdict {
	out := theoryVerdict{kind: v.kind}
	if v.env != nil {
		out.env = make(expr.Env, len(v.env))
		for k, val := range v.env {
			out.env[k] = val
		}
	}
	if v.conflict != nil {
		out.conflict = append(make([]int, 0, len(v.conflict)), v.conflict...)
	}
	return out
}

// modelKey projects a Boolean model onto the binding variables, in sorted
// variable order. Two models with equal keys assert the same atom
// conjunction, so their theory verdicts are identical — the projection is
// exactly what theoryCheck consumes.
func (e *Engine) modelKey(model []bool) string {
	b := make([]byte, len(e.bvars))
	for i, v := range e.bvars {
		if model[v] {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// theoryCheckCached memoises theoryCheck on the asserted-atom projection of
// the model. Revisited projections — common under AllModels enumeration
// (models differing only on unbound variables) and Boolean restarts — skip
// the simplex, case-split and penalty solvers entirely. Cancelled checks
// are never cached; at capacity the cache is cleared wholesale (epoch
// reset), which keeps the hot recent projections rebuilding cheaply rather
// than tracking per-entry recency.
func (e *Engine) theoryCheckCached(ctx context.Context, model []bool) (theoryVerdict, bool) {
	if e.cfg.NoTheoryCache {
		return e.theoryCheck(ctx, model), false
	}
	key := e.modelKey(model)
	if v, ok := e.tcache[key]; ok {
		e.st.TheoryCacheHits++
		return copyVerdict(v), true
	}
	v := e.theoryCheck(ctx, model)
	if v.kind == thCanceled {
		return v, false
	}
	e.st.TheoryCacheMisses++
	if e.tcache == nil || len(e.tcache) >= theoryCacheSize {
		e.tcache = make(map[string]theoryVerdict, 64)
	}
	e.tcache[key] = copyVerdict(v)
	return v, false
}
