package polyar

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"absolver/internal/lp"
)

// RecordRegions installs a region observer for the duration of a test:
// every region LP, in the order the workers solve them, is rendered by
// regionLine and passed to f. The returned function uninstalls it.
func RecordRegions(f func(line string)) (restore func()) {
	regionHook = func(rx *relaxation, g *region, st lp.Status) { f(regionLine(rx, g, st)) }
	return func() { regionHook = nil }
}

// regionLine renders one region LP: its status and pivot count, a hash of
// the relaxation's exact bits (rows in emission order with terms in name
// order, then the variable bounds in name order) and a hash of the LP
// point's exact bits in name order. Slots are in name order, so slot
// order is name order throughout.
func regionLine(rx *relaxation, g *region, st lp.Status) string {
	rows := fnv.New64a()
	for i := 0; i < g.rows.NumRows(); i++ {
		c := g.rows.Row(i)
		for _, t := range c.Terms {
			fmt.Fprintf(rows, "%s:%016x,", rx.names[t.Var], math.Float64bits(t.Coeff))
		}
		fmt.Fprintf(rows, "%v:%016x:%d;", c.Rel, math.Float64bits(c.RHS), c.Tag)
	}
	fmt.Fprint(rows, "lo|")
	for j, v := range rx.names {
		if lo, _ := g.rows.Bounds(j); !math.IsInf(lo, -1) {
			hashValue(rows, v, lo)
		}
	}
	fmt.Fprint(rows, "hi|")
	for j, v := range rx.names {
		if _, hi := g.rows.Bounds(j); !math.IsInf(hi, 1) {
			hashValue(rows, v, hi)
		}
	}
	x := fnv.New64a()
	fmt.Fprint(x, "x|")
	if st == lp.Feasible {
		for j, v := range rx.names {
			if val, ok := g.lp.Value(j); ok {
				hashValue(x, v, val)
			}
		}
	}
	return fmt.Sprintf("%v pivots=%d rows=%016x x=%016x", st, g.lp.Pivots(), rows.Sum64(), x.Sum64())
}

func hashValue(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "%s=%016x;", name, math.Float64bits(v))
}
