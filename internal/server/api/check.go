package api

// Wire types for POST /v1/check — the model-checking endpoint. The body
// is a Lustre program (or a Simulink model with format=simulink); the
// response is NDJSON: one CheckEvent of type "depth" per base/induction
// solve as it completes, closed by exactly one event of type "result" or
// "error". See docs/model-checking.md.

import (
	"fmt"
	"net/url"
	"strconv"
	"time"
)

// Program body formats accepted by POST /v1/check.
const (
	// FormatLustre is the mini-Lustre dialect (default).
	FormatLustre = "lustre"
	// FormatSimulink is the textual block-diagram format, translated
	// through lustre.FromSimulink before checking.
	FormatSimulink = "simulink"
)

// CheckParams are the knobs of one check request, travelling as query
// parameters (the body carries the program text).
type CheckParams struct {
	// Format is the program body's language: FormatLustre (default) or
	// FormatSimulink.
	Format string
	// K bounds the unrolling depth; 0 selects the checker default.
	K int
	// Property names the Boolean flow to verify (default: the sole
	// Boolean output).
	Property string
	// NoInduction restricts the run to plain BMC (no proofs).
	NoInduction bool
	// Timeout bounds queue wait + check; 0 selects the server default.
	Timeout time.Duration
}

// Values renders the parameters as URL query values (zero fields are
// omitted).
func (p CheckParams) Values() url.Values {
	v := url.Values{}
	if p.Format != "" && p.Format != FormatLustre {
		v.Set("format", p.Format)
	}
	if p.K > 0 {
		v.Set("k", strconv.Itoa(p.K))
	}
	if p.Property != "" {
		v.Set("prop", p.Property)
	}
	if p.NoInduction {
		v.Set("no_induction", "true")
	}
	if p.Timeout > 0 {
		v.Set("timeout", p.Timeout.String())
	}
	return v
}

// ParseCheckParams reads check parameters from URL query values.
func ParseCheckParams(v url.Values) (CheckParams, error) {
	var p CheckParams
	p.Format = v.Get("format")
	switch p.Format {
	case "":
		p.Format = FormatLustre
	case FormatLustre, FormatSimulink:
	default:
		return p, fmt.Errorf("unknown format %q (want %q or %q)", p.Format, FormatLustre, FormatSimulink)
	}
	if s := v.Get("k"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad k %q: want a non-negative integer", s)
		}
		p.K = n
	}
	p.Property = v.Get("prop")
	if err := parseBool(v, "no_induction", &p.NoInduction); err != nil {
		return p, err
	}
	if s := v.Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return p, fmt.Errorf("bad timeout %q: want a Go duration", s)
		}
		p.Timeout = d
	}
	return p, nil
}

// Check verdicts (CheckResponse.Verdict).
const (
	CheckProved       = "proved"
	CheckFalsified    = "falsified"
	CheckBoundReached = "bound_reached"
)

// CheckTrace is a counterexample: one input valuation per instant
// 0..Step, with the property failing at Step.
type CheckTrace struct {
	Property string               `json:"property"`
	Step     int                  `json:"step"`
	Inputs   []map[string]float64 `json:"inputs"`
}

// CheckResponse is the final payload of a check request.
type CheckResponse struct {
	// Verdict is "proved", "falsified", or "bound_reached".
	Verdict string `json:"verdict"`
	// K is the proof depth (proved), the violation instant (falsified),
	// or the exhausted bound (bound_reached).
	K int `json:"k"`
	// ExitCode keeps scripted clients of the CLI and of the service in
	// one vocabulary: 0 proved, 10 falsified, 20 bound reached.
	ExitCode int `json:"exit_code"`
	// Property is the flow that was verified.
	Property string `json:"property,omitempty"`
	// Induction reports that the proof came from a k-induction step case.
	Induction bool `json:"induction,omitempty"`
	// Certified reports that the counterexample replayed concretely.
	Certified bool `json:"certified,omitempty"`
	// Depths is the number of unrolling depths explored.
	Depths int `json:"depths"`
	// Reason explains a bound_reached verdict.
	Reason string `json:"reason,omitempty"`
	// Trace is the counterexample (falsified only).
	Trace *CheckTrace `json:"trace,omitempty"`
	// Stats carries the engine counters of the whole run.
	Stats Stats `json:"stats"`
}

// CheckDepth is one per-depth solver verdict, streamed as it happens.
type CheckDepth struct {
	Depth int `json:"depth"`
	// Phase is "base" (BMC) or "induction" (k-induction step case).
	Phase string `json:"phase"`
	// Status is the solver verdict for the phase: "sat", "unsat",
	// "unknown", or "error".
	Status string `json:"status"`
}

// Check stream event types (the "type" field of each NDJSON line).
const (
	// CheckEventDepth carries one per-depth solver verdict.
	CheckEventDepth = "depth"
)

// CheckEvent is one NDJSON line of a check response. The terminal line is
// Type EventResult (Result set) or EventError (Error set).
type CheckEvent struct {
	Type string `json:"type"`
	// Depth is the per-depth report (Type == CheckEventDepth).
	Depth *CheckDepth `json:"depth,omitempty"`
	// Result is the final verdict (Type == EventResult).
	Result *CheckResponse `json:"result,omitempty"`
	// Error is the failure diagnostic (Type == EventError).
	Error string `json:"error,omitempty"`
}

// CheckExitCode maps a check verdict to the stand-alone tool's exit code.
func CheckExitCode(verdict string) int {
	switch verdict {
	case CheckProved:
		return ExitSat
	case CheckFalsified:
		return ExitUnsat
	}
	return ExitUnknown
}
