package testkit

import (
	"testing"

	"absolver/internal/core"
)

// polyarSeedsPerFragment sizes the PolyAR differential: 2 nonlinear-capable
// fragments × 500 seeds, each solved by two variants (with and without the
// fallback) plus the oracle. Smaller than the main differential because
// every seed costs two engine runs.
const polyarSeedsPerFragment = 500

// TestDifferentialPolyAR is the PolyAR ablation differential: across the
// nonlinear and mixed-integer fragments, the engine with the PolyAR
// fallback and the engine without it must both agree with the reference
// oracle (and with each other) on every definitive verdict, and enabling
// the fallback must not increase — and on the nonlinear fragment must
// strictly decrease — the number of unknown verdicts.
func TestDifferentialPolyAR(t *testing.T) {
	variants := []core.KnobSet{0, core.Config{NoPolyAR: true}.KnobSet()}
	for _, frag := range []Fragment{FragNonlinear, FragMixedInt} {
		frag := frag
		t.Run(frag.String(), func(t *testing.T) {
			t.Parallel()
			unknownWith, unknownWithout, rescued := 0, 0, 0
			for seed := int64(0); seed < polyarSeedsPerFragment; seed++ {
				rep, err := RunDifferential(seed, frag, nil, variants...)
				if err != nil {
					t.Fatalf("reproduce with %s: %v", reproCall("RunDifferential", seed, frag, variants...), err)
				}
				if rep.Engine[0] == core.StatusUnknown {
					unknownWith++
				}
				if rep.Engine[1] == core.StatusUnknown {
					unknownWithout++
				}
				rescued += rep.Rescued[0]
			}
			t.Logf("%s: unknown with polyar %d/%d, without %d/%d, %d theory checks rescued",
				frag, unknownWith, polyarSeedsPerFragment, unknownWithout, polyarSeedsPerFragment, rescued)
			if unknownWith > unknownWithout {
				t.Errorf("polyar increased unknowns: %d with vs %d without", unknownWith, unknownWithout)
			}
			if frag == FragNonlinear {
				// The fallback exists to kill unknowns on this fragment; a
				// zero here means the wiring regressed to a no-op.
				if rescued == 0 {
					t.Errorf("polyar rescued no theory checks on %s — fallback not firing", frag)
				}
				if unknownWith >= unknownWithout && unknownWithout > 0 {
					t.Errorf("polyar failed to lower the unknown rate: %d with vs %d without", unknownWith, unknownWithout)
				}
			}
		})
	}
}
