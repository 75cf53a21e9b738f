package polyar

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"absolver/internal/expr"
	"absolver/internal/interval"
	"absolver/internal/lp"
	"absolver/internal/nlp"
)

// Options bound one Solve call. The zero value means defaults.
type Options struct {
	// MaxRegions caps how many regions are processed before the solver
	// gives up with Unknown. Default 512.
	MaxRegions int
}

func (o Options) withDefaults() Options {
	if o.MaxRegions == 0 {
		o.MaxRegions = 512
	}
	return o
}

// Fixed budgets of one Solve call. Infinite box sides are clamped to
// ±nlp.DefaultRange so regions stay bisectable; searching a clamped box
// forfeits the Infeasible verdict (a clamped refutation only covers the
// clamped part). Witnesses must clear strict atoms and disequalities by
// nlp.StrictMargin/2 and weak atoms within nlp.Tol, as nlp's do.
const (
	// propagationRounds bounds the initial HC4 contraction sweeps.
	propagationRounds = 40
	// minWidth is the relative width below which a variable is no longer
	// bisected.
	minWidth = 1e-5
	// lpMaxIter bounds simplex pivots per region LP.
	lpMaxIter = 2000
	// maxWorkers caps the goroutine pool that drains each frontier wave;
	// the pool is min(GOMAXPROCS, maxWorkers).
	maxWorkers = 8
)

// Stats counts per-call refinement work.
type Stats struct {
	// Regions is the number of regions processed (the refinement-tree
	// nodes actually visited).
	Regions int
	// Pruned counts regions discharged as containing no solution
	// (interval-refuted, integrally empty, or LP-infeasible).
	Pruned int
	// Witnesses counts verified SAT witnesses found (0 or 1 per call:
	// the first witness ends the search).
	Witnesses int
}

// Result is a Solve verdict. Status is nlp.Feasible with X holding a
// verified model, nlp.Infeasible when every region of the full box was
// pruned, or nlp.Unknown when budgets ran out first.
type Result struct {
	Status nlp.Status
	X      expr.Env
	Stats  Stats
}

// Solve decides the conjunction of atoms over box by convex abstraction
// refinement; ints marks integer-valued variables (handled with the
// incomplete integral tightening of Borralleras et al.: ceil/floor bound
// snapping, integral bisection and rounded witness probing). The search
// is budgeted by opt and ctx; both exhaust to Unknown, never to a wrong
// verdict.
func Solve(ctx context.Context, atoms []expr.Atom, box expr.Box, ints map[string]bool, opt Options) Result {
	opt = opt.withDefaults()
	s := &solver{atoms: atoms, ints: ints, opt: opt, workers: min(runtime.GOMAXPROCS(0), maxWorkers)}

	if len(atoms) == 0 {
		return Result{Status: nlp.Feasible, X: expr.Env{}}
	}

	// Working box: only variables the atoms mention; the rest of the
	// problem box is irrelevant here.
	vars := map[string]struct{}{}
	for _, a := range atoms {
		for _, v := range a.Vars() {
			vars[v] = struct{}{}
		}
	}
	s.vars = make([]string, 0, len(vars))
	for v := range vars {
		s.vars = append(s.vars, v)
	}
	sort.Strings(s.vars)

	root := expr.Box{}
	for _, v := range s.vars {
		if iv, ok := box[v]; ok {
			root[v] = iv
		} else {
			root[v] = interval.Whole()
		}
	}

	// HC4-contract the true (unclamped) box first: an emptied interval
	// here refutes the conjunction over the original bounds.
	emptied, canceled := nlp.Contract(ctx, atoms, root, propagationRounds)
	if canceled {
		return Result{Status: nlp.Unknown, Stats: s.stats()}
	}
	if emptied {
		s.pruned.Add(1)
		s.regions.Add(1)
		return Result{Status: nlp.Infeasible, Stats: s.stats()}
	}
	if !s.snapIntegral(root) {
		s.pruned.Add(1)
		s.regions.Add(1)
		return Result{Status: nlp.Infeasible, Stats: s.stats()}
	}

	// Clamp infinite sides so every region is bisectable. A clamped box
	// no longer covers the whole space: pruning everything then proves
	// nothing, so the verdict degrades to Unknown (exhaustive=false).
	exhaustive := true
	for _, v := range s.vars {
		iv := root[v]
		r := nlp.DefaultRange
		if math.IsInf(iv.Lo, -1) {
			iv.Lo = math.Min(-r, iv.Hi-r)
			exhaustive = false
		}
		if math.IsInf(iv.Hi, 1) {
			iv.Hi = math.Max(r, iv.Lo+r)
			exhaustive = false
		}
		root[v] = iv
	}
	s.exhaustive = exhaustive

	s.rx = compileRelaxation(atoms, s.vars)
	return s.refine(ctx, root)
}

// solver carries one Solve call's shared state.
type solver struct {
	atoms []expr.Atom
	ints  map[string]bool
	vars  []string
	opt   Options
	// workers is the size of the goroutine pool that drains each wave.
	workers int
	// rx is the relaxation, compiled once; each worker refills it into
	// its own region buffers.
	rx *relaxation

	regions atomic.Int64
	pruned  atomic.Int64

	// exhaustive stays true only while pruning the whole frontier still
	// refutes the original box (no clamping, no budget cut, no stuck or
	// undecided region).
	exhaustive bool
}

func (s *solver) stats() Stats {
	return Stats{Regions: int(s.regions.Load()), Pruned: int(s.pruned.Load())}
}

// outcome is one region's processing result.
type outcome struct {
	witness  expr.Env
	children []expr.Box
	stuck    bool // feasible-looking but no variable left to bisect
	canceled bool
}

// refine runs breadth-first waves over the region frontier. Within a wave
// the pool of s.workers goroutines steals region indexes from a shared
// atomic cursor; the wave always completes and its results are read in
// frontier order, which keeps verdicts, witnesses and stats deterministic
// for a fixed option set regardless of goroutine scheduling.
func (s *solver) refine(ctx context.Context, root expr.Box) Result {
	frontier := []expr.Box{root}
	budget := s.opt.MaxRegions
	regions := make([]*region, s.workers)
	for w := range regions {
		regions[w] = regionPool.Get().(*region)
		defer regionPool.Put(regions[w])
	}
	for len(frontier) > 0 && budget > 0 {
		wave := frontier
		if len(wave) > budget {
			wave = wave[:budget]
			s.exhaustive = false
		}
		rest := frontier[len(wave):]
		budget -= len(wave)

		results := make([]outcome, len(wave))
		var cursor atomic.Int64
		workers := min(s.workers, len(wave))
		var wg sync.WaitGroup
		// The first panic of a worker is carried back to this goroutine
		// and re-raised once the wave is done, where the caller's recover
		// (absolverd's job runner, a portfolio member) can see it; left in
		// the worker it would end the process.
		var panicked sync.Once
		var fault string
		for w := 0; w < workers; w++ {
			wg.Add(1)
			g := regions[w]
			go func() {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						panicked.Do(func() { fault = fmt.Sprintf("polyar: region worker panicked: %v\n%s", v, debug.Stack()) })
					}
				}()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(wave) {
						return
					}
					results[i] = s.process(ctx, wave[i], g)
				}
			}()
		}
		wg.Wait()
		if fault != "" {
			panic(fault)
		}

		next := make([]expr.Box, 0, 2*len(wave))
		for _, r := range results {
			if r.canceled {
				return Result{Status: nlp.Unknown, Stats: s.stats()}
			}
			if r.witness != nil {
				st := s.stats()
				st.Witnesses++
				return Result{Status: nlp.Feasible, X: r.witness, Stats: st}
			}
			if r.stuck {
				s.exhaustive = false
			}
			next = append(next, r.children...)
		}
		frontier = append(next, rest...)
	}
	if len(frontier) > 0 {
		s.exhaustive = false
	}
	if s.exhaustive {
		return Result{Status: nlp.Infeasible, Stats: s.stats()}
	}
	return Result{Status: nlp.Unknown, Stats: s.stats()}
}

// process decides one region: interval refutation, integral emptiness and
// LP infeasibility prune it; a verified point inside it is a witness;
// otherwise it bisects.
func (s *solver) process(ctx context.Context, box expr.Box, g *region) outcome {
	s.regions.Add(1)
	if ctx.Err() != nil {
		return outcome{canceled: true}
	}

	// Integral snap: inherited bisection bounds may be fractional.
	if !s.snapIntegral(box) {
		s.pruned.Add(1)
		return outcome{}
	}

	// Interval truth prepass: a False atom prunes the region; all-True
	// means any point works — take the midpoint.
	allTrue := true
	for _, a := range s.atoms {
		switch a.IntervalHolds(box) {
		case expr.False:
			s.pruned.Add(1)
			return outcome{}
		case expr.Unknown:
			allTrue = false
		}
	}
	if allTrue {
		if w := s.verify(s.midpoint(box)); w != nil {
			return outcome{witness: w}
		}
	}

	// LP discharge of the region's convex relaxation.
	g.fill(s.rx, box)
	st := g.lp.Solve(ctx, &g.rows, lpMaxIter)
	if regionHook != nil {
		regionHook(s.rx, g, st)
	}
	switch st {
	case lp.Infeasible:
		s.pruned.Add(1)
		return outcome{}
	case lp.Feasible:
		if w := s.verify(s.projected(g, box)); w != nil {
			return outcome{witness: w}
		}
		if !allTrue {
			if w := s.verify(s.midpoint(box)); w != nil {
				return outcome{witness: w}
			}
		}
	case lp.Canceled:
		return outcome{canceled: true}
		// IterLimit: can't prune, can't certify — bisect.
	}

	v, ok := s.bisectVar(box)
	if !ok {
		return outcome{stuck: true}
	}
	iv := box[v]
	var lo, hi interval.Interval
	if s.ints[v] {
		m := math.Floor(iv.Mid())
		lo = interval.Interval{Lo: iv.Lo, Hi: m}
		hi = interval.Interval{Lo: m + 1, Hi: iv.Hi}
	} else {
		m := iv.Mid()
		lo = interval.Interval{Lo: iv.Lo, Hi: m}
		hi = interval.Interval{Lo: m, Hi: iv.Hi}
	}
	left, right := box.Clone(), box.Clone()
	left[v] = lo
	right[v] = hi
	return outcome{children: []expr.Box{left, right}}
}

// regionHook, when set (by tests only), observes every region LP after
// it is solved.
var regionHook func(rx *relaxation, g *region, st lp.Status)

// regionPool recycles the workers' region buffers across Solve calls.
var regionPool = sync.Pool{New: func() any { return new(region) }}

// snapIntegral tightens integer variables to integral bounds in place;
// false means some integer interval emptied (no integral point).
func (s *solver) snapIntegral(box expr.Box) bool {
	for v := range s.ints {
		iv, ok := box[v]
		if !ok {
			continue
		}
		iv.Lo = math.Ceil(iv.Lo - 1e-9)
		iv.Hi = math.Floor(iv.Hi + 1e-9)
		if iv.Lo > iv.Hi {
			return false
		}
		box[v] = iv
	}
	return true
}

// midpoint is the region's centre, integer variables rounded inward.
func (s *solver) midpoint(box expr.Box) expr.Env {
	env := make(expr.Env, len(s.vars))
	for _, v := range s.vars {
		iv := box[v]
		m := iv.Mid()
		if s.ints[v] {
			m = iv.Clamp(math.Round(m))
		}
		env[v] = m
	}
	return env
}

// projected restricts the region LP's point to the problem variables,
// clamped into the region and rounded on integer variables.
func (s *solver) projected(g *region, box expr.Box) expr.Env {
	env := make(expr.Env, len(s.vars))
	for i, v := range s.vars {
		iv := box[v]
		val, ok := g.lp.Value(s.rx.varSlot[i])
		if !ok {
			val = iv.Mid()
		}
		val = iv.Clamp(val)
		if s.ints[v] {
			val = iv.Clamp(math.Round(val))
		}
		env[v] = val
	}
	return env
}

// verify accepts env as a witness iff every original atom holds with the
// same margins nlp's verifier demands (strict atoms and disequalities
// clear the bound by nlp.StrictMargin/2, weak atoms within nlp.Tol), so the
// engine's own model certification accepts it too.
func (s *solver) verify(env expr.Env) expr.Env {
	for _, a := range s.atoms {
		var ok bool
		var err error
		switch a.Op {
		case expr.CmpLT, expr.CmpGT:
			ok, err = a.HoldsTol(env, -nlp.StrictMargin/2)
		case expr.CmpNE:
			ok, err = a.HoldsTol(env, nlp.StrictMargin/2)
		default:
			ok, err = a.HoldsTol(env, nlp.Tol)
		}
		if err != nil || !ok {
			return nil
		}
	}
	return env
}

// bisectVar picks the widest-relative-width variable still worth
// splitting: integers need at least two integral points, reals a relative
// width above minWidth.
func (s *solver) bisectVar(box expr.Box) (string, bool) {
	best, bestW := "", 0.0
	for _, v := range s.vars {
		iv := box[v]
		w := iv.Width()
		if math.IsInf(w, 0) || w <= 0 {
			continue
		}
		rel := w / math.Max(1, math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi)))
		if s.ints[v] {
			if w < 1 {
				continue
			}
			// Integer splits stay useful down to unit width; bias them
			// ahead of equally-wide reals so integral structure resolves
			// first (the Borralleras-style integral branching).
			rel = math.Max(rel, 1)
		} else if rel <= minWidth {
			continue
		}
		if rel > bestW {
			best, bestW = v, rel
		}
	}
	return best, best != ""
}
