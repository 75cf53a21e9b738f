package nlp_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"absolver/internal/bench"
	"absolver/internal/core"
	"absolver/internal/testkit"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/search_pin.txt from the current search")

const pinFile = "testdata/search_pin.txt"

// TestNonlinearSearchIdentity pins the nonlinear search: Table 1 and
// testkit's nonlinear fragment at seeds 0..299, each solved by the engine's
// default configuration. Every line records the verdict, the nonlinear
// counters in the clear, a hash of every Counters() entry and a hash of
// the model's exact float bits. A change to the penalty solver, HC4 or
// PolyAR that alters one witness, one descent trajectory or one fallback
// shows here even when every verdict survives. Car steering takes seconds,
// so -short skips it.
//
// The goldens are amd64 values: other architectures may fuse
// multiply-adds and so take different floating-point paths.
func TestNonlinearSearchIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updatePin {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	want := map[string]string{}
	if !*updatePin {
		raw, err := os.ReadFile(pinFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			name, _, _ := strings.Cut(line, "\t")
			want[name] = line
		}
	}
	var got []string
	check := func(name string, p *core.Problem) {
		res, err := core.NewEngine(p, core.Config{}).Solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line := pinLine(name, res)
		got = append(got, line)
		if !*updatePin && want[name] != line {
			t.Errorf("search drifted:\n got  %s\n want %s", line, want[name])
		}
	}
	for _, in := range bench.Table1Instances() {
		if testing.Short() && in.Name == "Car steering" {
			continue
		}
		p, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		check(in.Name, p)
	}
	for seed := int64(0); seed < 300; seed++ {
		check(fmt.Sprintf("testkit.Generate(%d, FragNonlinear)", seed), testkit.Generate(seed, testkit.FragNonlinear))
	}
	if *updatePin {
		if err := os.WriteFile(pinFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// pinLine renders one solve as a tab-separated golden line.
func pinLine(name string, res core.Result) string {
	c := res.Stats.Counters()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, c[k])
	}
	return fmt.Sprintf("%s\t%v\tnonlinear_checks=%d nlp_unknown=%d polyar=%d/%d/%d\tcounters=%016x\tmodel=%016x",
		name, res.Status, c["nonlinear_checks"], c["nlp_unknown"],
		c["polyar_regions"], c["polyar_pruned"], c["polyar_witnesses"],
		h.Sum64(), modelHash(res.Model))
}

// modelHash hashes the Boolean assignment and the exact bits of every
// real value in name order; a nil model hashes to zero.
func modelHash(m *core.Model) uint64 {
	if m == nil {
		return 0
	}
	h := fnv.New64a()
	for _, b := range m.Bool {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	names := make([]string, 0, len(m.Real))
	for k := range m.Real {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(h, "%s=%016x;", k, math.Float64bits(m.Real[k]))
	}
	return h.Sum64()
}
