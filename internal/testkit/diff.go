package testkit

import (
	"errors"
	"fmt"
	"strings"

	"absolver/internal/core"
)

// Differential checking runs the reference oracle against one or more
// engine variants. A variant is a core.KnobSet switched on over the
// harness's base configuration (Config.CheckModels and
// Config.RecordLemmas), so every variant certifies its SAT models and has
// its learned lemmas audited. No variant means the default engine alone;
// core.Config{NoPolyAR: true}.KnobSet() is the PolyAR ablation,
// core.Config{NoInprocess: true}.KnobSet() the inprocessing one, and so
// on for every core.Knobs entry.

// DiffReport summarises one one-shot differential run for aggregate
// assertions (how many instances the oracle decided, how the verdicts
// distribute per variant).
type DiffReport struct {
	Seed     int64
	Fragment Fragment
	// Oracle is the reference verdict.
	Oracle Verdict
	// Engine holds each variant's verdict, in the order the variants were
	// given (StatusUnknown when the engine could not decide or hit its
	// iteration limit).
	Engine []core.Status
	// Rescued holds each variant's count of theory checks the PolyAR
	// fallback turned from unknown into a definitive answer.
	Rescued []int
	// Lemmas is the number of learned clauses audited, over all variants.
	Lemmas int
}

// RunDifferential is one full differential check: generate the (seed,
// fragment) instance, decide it with the reference oracle, solve it with
// every engine variant (the default engine when none is given), and
// cross-examine the outcomes:
//
//   - each definitive engine verdict must agree with a definitive oracle
//     verdict and with every other variant's definitive verdict;
//   - every SAT model passed the engine's own certificate check (a
//     rejection surfaces as ErrModelRejected and fails the run);
//   - every conflict/ground lemma each variant learned is replayed
//     against the oracle (AuditLemmas) — on UNSAT runs this audits the
//     clauses that closed the search space.
//
// A nil oracle uses defaults. The returned error, when non-nil, describes
// a genuine soundness disagreement reproducible from (seed, fragment,
// variants).
func RunDifferential(seed int64, frag Fragment, o *Oracle, variants ...core.KnobSet) (DiffReport, error) {
	if len(variants) == 0 {
		variants = []core.KnobSet{0}
	}
	rep := DiffReport{Seed: seed, Fragment: frag}
	p := Generate(seed, frag)

	ov, err := o.Decide(p)
	if err != nil {
		return rep, fmt.Errorf("oracle: seed=%d frag=%v: %v", seed, frag, err)
	}
	rep.Oracle = ov

	labels := make([]string, len(variants))
	for i, k := range variants {
		labels[i] = "engine[" + variantName(k) + "]"
		eng := core.NewEngine(p.Clone(), variantConfig(k))
		res, err := eng.Solve()
		st, err := engineStatus(res, err)
		if err != nil {
			return rep, fmt.Errorf("%s: seed=%d frag=%v: %v", labels[i], seed, frag, err)
		}
		rep.Engine = append(rep.Engine, st)
		rep.Rescued = append(rep.Rescued, res.Stats.NLPUnknownRescued)

		lemmas := eng.Lemmas()
		rep.Lemmas += len(lemmas)
		if err := o.AuditLemmas(p, lemmas); err != nil {
			return rep, fmt.Errorf("audit: seed=%d frag=%v %s=%v: %v", seed, frag, labels[i], st, err)
		}
	}
	if err := disagreement(labels, rep.Engine, ov); err != nil {
		return rep, fmt.Errorf("disagreement: seed=%d frag=%v: %v", seed, frag, err)
	}
	return rep, nil
}

// variantConfig is the engine configuration of variant k.
func variantConfig(k core.KnobSet) core.Config {
	return core.Config{CheckModels: true, RecordLemmas: true}.WithKnobs(k)
}

// variantName renders a variant as its knob wire names joined by '+'
// ("default" for the empty set), for messages and logs.
func variantName(k core.KnobSet) string {
	var names []string
	for i, kn := range core.Knobs {
		if k&(1<<i) != 0 {
			names = append(names, kn.Name)
		}
	}
	if len(names) == 0 {
		return "default"
	}
	return strings.Join(names, "+")
}

// engineStatus normalises a solve outcome: iteration-limit exhaustion is
// an inconclusive answer, a certificate rejection or any other engine
// error is a bug.
func engineStatus(res core.Result, err error) (core.Status, error) {
	if err != nil {
		if errors.Is(err, core.ErrIterationLimit) {
			return core.StatusUnknown, nil
		}
		return core.StatusUnknown, err
	}
	return res.Status, nil
}

// disagreement cross-examines verdicts on one problem, each named by its
// label: every definitive verdict must agree with a definitive oracle
// verdict and with every other definitive verdict.
func disagreement(labels []string, got []core.Status, ov Verdict) error {
	for i, s := range got {
		if (s == core.StatusSat && ov == Unsat) || (s == core.StatusUnsat && ov == Sat) {
			return fmt.Errorf("%s %v, oracle %v", labels[i], s, ov)
		}
		for j, t := range got[:i] {
			if definitive(s) && definitive(t) && s != t {
				return fmt.Errorf("%s %v vs %s %v", labels[j], t, labels[i], s)
			}
		}
	}
	return nil
}

func definitive(s core.Status) bool { return s == core.StatusSat || s == core.StatusUnsat }
