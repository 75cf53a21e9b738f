package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// reconcileTol bounds how much of a stage's time the decorators may
// miss, as a share of the engine's total wall time. The engine's stage
// timers also cover its bookkeeping around the solver calls (building LP
// rows and splitting disequalities, polarity hints), so a decorator's
// busy time is never larger than its stage; the shortfall measured on the
// workloads is under 1% of engine wall time. The nonlinear stage's
// uncovered time is PolyAR, reported as polyar.busy_s, so there only the
// upper check applies.
const reconcileTol = 0.05

// perLayer fills the traced run's per-layer metrics. Busy times and
// counts are totals over the traced timed phase.
func perLayer(m map[string]metric, w *engineDeck, info setupInfo, plain, tr *phase) error {
	var l layers
	for i := range tr.out {
		l.merge(tr.out[i].layers)
	}
	st := l.stats
	put := func(k string, v float64, unit string) { m[k] = metric{v, unit} }
	sec := func(d time.Duration) float64 { return d.Seconds() }

	put("sat.calls", float64(l.satCalls), "count")
	put("sat.busy_s", sec(l.satBusy+l.satBlockBusy), "s")
	put("sat.subsumed", float64(st.ClausesSubsumed), "count")
	put("sat.probed", float64(st.ProbedLiterals), "count")
	put("sat.compactions", float64(st.ArenaCompactions), "count")
	put("lp.calls", float64(l.lpCalls), "count")
	put("lp.busy_s", sec(l.lpBusy), "s")
	put("lp.infeasible_ratio", ratio(float64(l.lpInfeasible), float64(l.lpCalls)), "ratio")
	put("lp.iis_rows_mean", ratio(float64(l.lpIISRows), float64(l.lpInfeasible)), "rows")
	put("nlp.calls", float64(l.nlpCalls), "count")
	put("nlp.busy_s", sec(l.nlpBusy), "s")
	put("nlp.unknown_ratio", ratio(float64(st.NLPUnknown), float64(st.NonlinearChecks)), "ratio")
	polyar := st.NonlinearTime - l.nlpBusy
	put("polyar.busy_s", sec(polyar), "s")
	put("polyar.regions", float64(st.PolyARRegions), "count")
	put("polyar.pruned_ratio", ratio(float64(st.PolyARPruned), float64(st.PolyARRegions)), "ratio")
	put("polyar.rescued_ratio", ratio(float64(st.NLPUnknownRescued), float64(st.NLPUnknown)), "ratio")
	put("core.bool_time_s", sec(st.BoolTime), "s")
	put("core.linear_time_s", sec(st.LinearTime), "s")
	put("core.nonlinear_time_s", sec(st.NonlinearTime), "s")
	put("core.self_s", sec(st.WallTime-st.BoolTime-st.LinearTime-st.NonlinearTime), "s")
	put("core.iterations", float64(st.Iterations), "count")
	put("core.theory_cache_hit_ratio", ratio(float64(st.TheoryCacheHits), float64(st.TheoryCacheHits+st.TheoryCacheMisses)), "ratio")
	put("core.lossy_blocks", float64(st.LossyBlocks), "count")
	put("parse.busy_s", sec(info.parse), "s")
	put("parse.mb_per_s", ratio(float64(info.parseBytes)/(1<<20), sec(info.parse)), "MB/s")
	put("trace.overhead_ratio", ratio(plain.window(w).rate(), tr.window(w).rate())-1, "ratio")

	fmt.Fprintf(os.Stderr, "perfbench: traced phase %d verdicts; per-layer busy vs the engine's own stage times:\n", len(tr.out))
	if l.solves > 0 {
		fmt.Fprintf(os.Stderr, "  sat  decorator %.3fs (+AddBlocking %.3fs)  Stats.BoolTime      %.3fs\n", sec(l.satBusy), sec(l.satBlockBusy), sec(st.BoolTime))
		fmt.Fprintf(os.Stderr, "  lp   decorator %.3fs                      Stats.LinearTime    %.3fs\n", sec(l.lpBusy), sec(st.LinearTime))
		fmt.Fprintf(os.Stderr, "  nlp  decorator %.3fs + polyar %.3fs       Stats.NonlinearTime %.3fs\n", sec(l.nlpBusy), sec(polyar), sec(st.NonlinearTime))
		for _, c := range []struct {
			layer      string
			dec, stage time.Duration
			covers     bool // the decorator covers the stage but for bookkeeping
		}{
			{"sat", l.satBusy, st.BoolTime, true},
			{"lp", l.lpBusy, st.LinearTime, true},
			{"nlp", l.nlpBusy, st.NonlinearTime, false},
		} {
			slack := time.Duration(l.solves) * time.Microsecond
			if c.dec > c.stage+slack || (c.covers && float64(c.stage-c.dec) > reconcileTol*float64(st.WallTime)) {
				return fmt.Errorf("%s: decorator busy %v does not reconcile with the engine's %v (tolerance %.0f%% of engine wall %v)",
					c.layer, c.dec, c.stage, 100*reconcileTol, st.WallTime)
			}
		}
		slowest(tr, w)
	}
	return nil
}

// slowest prints the layer split of the traced phase's three slowest
// instances: where a long instance's time goes.
func slowest(tr *phase, d *engineDeck) {
	idx := make([]int, 0, len(tr.out))
	for i := range tr.out {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return tr.out[idx[a]].latency > tr.out[idx[b]].latency })
	if len(idx) > 3 {
		idx = idx[:3]
	}
	for _, i := range idx {
		o := &tr.out[i]
		l, st := o.layers, o.layers.stats
		fmt.Fprintf(os.Stderr, "  slow %s: wall %.3fs sat %.3fs lp %.3fs nlp %.3fs polyar %.3fs core %.3fs; %d iterations, %d lp / %d nlp checks, %d polyar regions\n",
			d.names[o.item], st.WallTime.Seconds(),
			(l.satBusy + l.satBlockBusy).Seconds(), l.lpBusy.Seconds(), l.nlpBusy.Seconds(),
			(st.NonlinearTime - l.nlpBusy).Seconds(), (st.WallTime - st.BoolTime - st.LinearTime - st.NonlinearTime).Seconds(),
			st.Iterations, st.LinearChecks, st.NonlinearChecks, st.PolyARRegions)
	}
}
