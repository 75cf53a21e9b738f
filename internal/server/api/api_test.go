package api

import (
	"encoding/json"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"absolver/internal/core"
)

// TestParamsRoundTrip pins the wire format: Values and ParseParams must
// invert each other for every field.
func TestParamsRoundTrip(t *testing.T) {
	want := SolveParams{
		Format: FormatSMTLIB, Portfolio: 4, NoShare: true,
		Knobs: core.Config{
			RestartBoolean: true, NoIIS: true, NoGroundLemmas: true,
			NoTheoryCache: true, CheckModels: true,
		}.KnobSet(),
		Timeout: 90 * time.Second, Stream: true,
	}
	got, err := ParseParams(want.Values())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}

	// Every knob travels alone under its table name.
	for i, kn := range core.Knobs {
		want := SolveParams{Format: FormatDIMACS, Knobs: 1 << i}
		v := want.Values()
		if v.Get(kn.Name) != "true" || len(v) != 1 {
			t.Errorf("knob %s renders as %v", kn.Name, v)
		}
		got, err := ParseParams(v)
		if err != nil {
			t.Fatalf("knob %s: %v", kn.Name, err)
		}
		if got != want {
			t.Errorf("knob %s round trip: got %+v, want %+v", kn.Name, got, want)
		}
	}

	// Zero value round-trips to the defaulted format.
	got, err = ParseParams(SolveParams{}.Values())
	if err != nil {
		t.Fatal(err)
	}
	if got != (SolveParams{Format: FormatDIMACS}) {
		t.Fatalf("zero round trip: %+v", got)
	}
}

func TestParseParamsForgiving(t *testing.T) {
	// Bare boolean keys (curl's ?restart) mean true.
	v, _ := url.ParseQuery("restart&no_cache=1&timeout=5s")
	p, err := ParseParams(v)
	if err != nil {
		t.Fatal(err)
	}
	if p.Knobs != (core.Config{RestartBoolean: true, NoTheoryCache: true}).KnobSet() || p.Timeout != 5*time.Second {
		t.Fatalf("bare keys: %+v", p)
	}
}

func TestParseParamsRejects(t *testing.T) {
	for _, raw := range []string{
		"format=tptp", "portfolio=-1", "portfolio=two",
		"restart=maybe", "timeout=fast", "timeout=-3s",
	} {
		v, _ := url.ParseQuery(raw)
		if _, err := ParseParams(v); err == nil {
			t.Errorf("%q accepted, want error", raw)
		}
	}
}

// TestExitCodes pins the HTTP body's exit_code field to the CLI contract
// (docs/exit-codes.md).
func TestExitCodes(t *testing.T) {
	cases := map[core.Status]int{
		core.StatusSat:     ExitSat,
		core.StatusUnsat:   ExitUnsat,
		core.StatusUnknown: ExitUnknown,
	}
	for status, want := range cases {
		if got := ExitCode(status); got != want {
			t.Errorf("ExitCode(%v) = %d, want %d", status, got, want)
		}
	}
	if ExitSat != 0 || ExitInternal != 1 || ExitUsage != 2 || ExitUnsat != 10 || ExitUnknown != 20 {
		t.Error("exit code constants drifted from docs/exit-codes.md")
	}
}

// TestStatsJSONRoundTrip pins the stats wire format: every core.Stats
// counter and phase survives Marshal/Unmarshal, counters travel as
// integers under their table names and phases as <name>_ms float
// milliseconds, and every key clients already read keeps its name.
func TestStatsJSONRoundTrip(t *testing.T) {
	var in core.Stats
	for i, c := range core.StatCounters {
		*c.Field(&in) = 1000 + 7*i
	}
	for i, p := range core.StatPhases {
		*p.Field(&in) = time.Duration(i+1)*time.Second + time.Duration(123456+i)
	}
	b, err := json.Marshal(Stats(in))
	if err != nil {
		t.Fatal(err)
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"iterations", "linear_checks", "nonlinear_checks", "conflict_clauses",
		"lossy_blocks", "ne_splits", "lemmas_published", "lemmas_imported",
		"lemmas_deduped", "theory_cache_hits", "theory_cache_misses",
		"session_solves", "nlp_unknown", "nlp_unknown_rescued",
		"polyar_regions", "polyar_pruned", "polyar_witnesses",
		"clauses_subsumed", "probed_literals", "arena_compactions",
		"bool_ms", "linear_ms", "nonlinear_ms", "wall_ms",
	} {
		if _, ok := raw[k]; !ok {
			t.Errorf("stats JSON lacks key %q: %s", k, b)
		}
	}
	if len(raw) != len(core.StatCounters)+len(core.StatPhases) {
		t.Errorf("stats JSON has %d keys, want %d: %s", len(raw), len(core.StatCounters)+len(core.StatPhases), b)
	}
	for _, c := range core.StatCounters {
		if got, want := string(raw[c.Name]), strconv.Itoa(*c.Field(&in)); got != want {
			t.Errorf("%s = %s, want the integer %s", c.Name, got, want)
		}
	}
	for _, p := range core.StatPhases {
		var ms float64
		if err := json.Unmarshal(raw[p.Name+"_ms"], &ms); err != nil {
			t.Fatalf("%s_ms: %v", p.Name, err)
		}
		if want := float64(*p.Field(&in)) / float64(time.Millisecond); ms != want {
			t.Errorf("%s_ms = %v, want %v", p.Name, ms, want)
		}
	}

	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	out := core.Stats(back)
	if got, want := out.Counters(), in.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("counters round trip:\n got %v\nwant %v", got, want)
	}
	for _, p := range core.StatPhases {
		if d := *p.Field(&out) - *p.Field(&in); d <= -time.Millisecond || d >= time.Millisecond {
			t.Errorf("%s round trip: got %v, want %v", p.Name, *p.Field(&out), *p.Field(&in))
		}
	}
}
