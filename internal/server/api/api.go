// Package api defines the wire types of the absolverd HTTP service — the
// solve request parameters, the JSON response and stream-event envelopes,
// and the stable HTTP↔exit-code mapping — shared by the server and the Go
// client so neither depends on the other's internals.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"

	"absolver/internal/core"
)

// Problem body formats accepted by POST /v1/solve.
const (
	// FormatDIMACS is ABsolver's extended DIMACS input language (default).
	FormatDIMACS = "dimacs"
	// FormatSMTLIB is the SMT-LIB 1.2 benchmark subset.
	FormatSMTLIB = "smtlib"
)

// SolveParams are the engine knobs of one solve request. On the wire they
// travel as query parameters of POST /v1/solve (the body carries the
// problem text); Values/ParseParams convert both ways.
type SolveParams struct {
	// Format is the problem body's language: FormatDIMACS (default) or
	// FormatSMTLIB.
	Format string
	// Portfolio races N differently-configured engines; 0 = single engine.
	Portfolio int
	// NoShare disables cross-engine lemma sharing in a portfolio race.
	NoShare bool
	// Knobs are the engine's on/off switches, each travelling as its
	// core.Knobs name.
	Knobs core.KnobSet
	// Timeout bounds queue wait + solve for this request; 0 selects the
	// server's default, values above the server's maximum are clamped.
	Timeout time.Duration
	// Stream requests NDJSON trace streaming instead of a single JSON
	// response.
	Stream bool
	// ExchangeURL, when set, attaches the solve's engine to a remote lemma
	// relay at that URL (cluster workers sharing theory lemmas across
	// cubes). Servers only honour it when configured to allow outbound
	// exchange connections; others reject the request.
	ExchangeURL string
	// ExchangeNode names this engine on the relay; it scopes the import
	// cursor and owner-skip, so every concurrently attached engine needs a
	// distinct name. Ignored without ExchangeURL.
	ExchangeNode string
}

// Values renders the parameters as URL query values (zero fields are
// omitted).
func (p SolveParams) Values() url.Values {
	v := url.Values{}
	if p.Format != "" && p.Format != FormatDIMACS {
		v.Set("format", p.Format)
	}
	if p.Portfolio > 0 {
		v.Set("portfolio", strconv.Itoa(p.Portfolio))
	}
	setBool := func(key string, b bool) {
		if b {
			v.Set(key, "true")
		}
	}
	setBool("no_share", p.NoShare)
	setBool("stream", p.Stream)
	for i, kn := range core.Knobs {
		setBool(kn.Name, p.Knobs&(1<<i) != 0)
	}
	if p.Timeout > 0 {
		v.Set("timeout", p.Timeout.String())
	}
	if p.ExchangeURL != "" {
		v.Set("exchange_url", p.ExchangeURL)
		if p.ExchangeNode != "" {
			v.Set("exchange_node", p.ExchangeNode)
		}
	}
	return v
}

// ParseParams reads solve parameters from URL query values, rejecting
// unknown formats and malformed numbers/durations/booleans.
func ParseParams(v url.Values) (SolveParams, error) {
	var p SolveParams
	p.Format = v.Get("format")
	switch p.Format {
	case "":
		p.Format = FormatDIMACS
	case FormatDIMACS, FormatSMTLIB:
	default:
		return p, fmt.Errorf("unknown format %q (want %q or %q)", p.Format, FormatDIMACS, FormatSMTLIB)
	}
	if s := v.Get("portfolio"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad portfolio %q: want a non-negative integer", s)
		}
		p.Portfolio = n
	}
	for key, dst := range map[string]*bool{"no_share": &p.NoShare, "stream": &p.Stream} {
		if err := parseBool(v, key, dst); err != nil {
			return p, err
		}
	}
	for i, kn := range core.Knobs {
		var on bool
		if err := parseBool(v, kn.Name, &on); err != nil {
			return p, err
		}
		if on {
			p.Knobs |= 1 << i
		}
	}
	if s := v.Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return p, fmt.Errorf("bad timeout %q: want a Go duration", s)
		}
		p.Timeout = d
	}
	p.ExchangeURL = v.Get("exchange_url")
	p.ExchangeNode = v.Get("exchange_node")
	if p.ExchangeNode != "" && p.ExchangeURL == "" {
		return p, fmt.Errorf("exchange_node without exchange_url")
	}
	return p, nil
}

// parseBool reads the boolean query parameter key into dst, leaving dst
// alone when key is absent. A bare key ("?restart") means true.
func parseBool(v url.Values, key string, dst *bool) error {
	s := v.Get(key)
	if s == "" {
		if _, present := v[key]; present {
			*dst = true
		}
		return nil
	}
	b, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("bad %s %q: want a boolean", key, s)
	}
	*dst = b
	return nil
}

// Stats is the JSON rendering of core.Stats: each core.StatCounters entry
// under its name as an integer, each core.StatPhases entry as <name>_ms in
// float milliseconds. Convert with api.Stats(st) and core.Stats(s).
type Stats core.Stats

// MarshalJSON renders every counter and phase, zero or not.
func (s Stats) MarshalJSON() ([]byte, error) {
	st := core.Stats(s)
	m := make(map[string]any, len(core.StatCounters)+len(core.StatPhases))
	for _, c := range core.StatCounters {
		m[c.Name] = *c.Field(&st)
	}
	for _, p := range core.StatPhases {
		m[p.Name+"_ms"] = float64(*p.Field(&st)) / float64(time.Millisecond)
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads the keys MarshalJSON writes; absent keys read as
// zero and unknown keys are ignored.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	st := (*core.Stats)(s)
	*st = core.Stats{}
	for _, c := range core.StatCounters {
		*c.Field(st) = int(m[c.Name])
	}
	for _, p := range core.StatPhases {
		*p.Field(st) = time.Duration(math.Round(m[p.Name+"_ms"] * float64(time.Millisecond)))
	}
	return nil
}

// Model is the JSON rendering of a satisfying valuation.
type Model struct {
	// Bool is the Boolean assignment, index i holding variable i+1.
	Bool []bool `json:"bool"`
	// Real is the arithmetic witness by variable name.
	Real map[string]float64 `json:"real,omitempty"`
}

// ModelFrom converts an engine model to the wire form.
func ModelFrom(m core.Model) *Model {
	out := &Model{Bool: m.Bool}
	if len(m.Real) > 0 {
		out.Real = m.Real
	}
	return out
}

// SolveResponse is the JSON body of a completed solve (HTTP 200) and the
// payload of the final "result" stream event.
type SolveResponse struct {
	// Status is the verdict: "sat", "unsat", or "unknown".
	Status string `json:"status"`
	// ExitCode is the stand-alone tool's exit code for this verdict
	// (0 sat / 10 unsat / 20 unknown), keeping scripted clients of the CLI
	// and of the service in one vocabulary.
	ExitCode int `json:"exit_code"`
	// Reason classifies a non-definitive verdict: "timeout", "canceled",
	// or an engine diagnostic. Empty on sat/unsat.
	Reason string `json:"reason,omitempty"`
	// Model is the satisfying valuation (sat only).
	Model *Model `json:"model,omitempty"`
	// Winner names the winning portfolio strategy (portfolio runs only).
	Winner string `json:"winner,omitempty"`
	// Stats carries the engine counters of this solve (portfolio runs:
	// summed over members).
	Stats Stats `json:"stats"`
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	// Error is the human-readable diagnostic.
	Error string `json:"error"`
	// ExitCode is the stand-alone tool's exit code for this failure class
	// (2 usage/input error, 20 transient/unknown, 1 internal).
	ExitCode int `json:"exit_code"`
}

// Stream event types (the "type" field of each NDJSON line).
const (
	// EventTrace is one engine iteration report.
	EventTrace = "trace"
	// EventResult is the final event carrying the SolveResponse.
	EventResult = "result"
	// EventError is the final event of a failed solve.
	EventError = "error"
)

// StreamEvent is one NDJSON line of a streaming solve.
type StreamEvent struct {
	Type string `json:"type"`
	// Trace fields (Type == EventTrace), mirroring core.Event.
	Iteration int    `json:"iteration,omitempty"`
	Kind      string `json:"kind,omitempty"`
	ClauseLen int    `json:"clause_len,omitempty"`
	Imported  int    `json:"imported,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	// Regions/Pruned carry a polyar event's refinement work.
	Regions int `json:"regions,omitempty"`
	Pruned  int `json:"pruned,omitempty"`
	// Result is the final verdict (Type == EventResult).
	Result *SolveResponse `json:"result,omitempty"`
	// Error is the failure diagnostic (Type == EventError).
	Error string `json:"error,omitempty"`
}

// TraceEvent converts an engine trace event to its stream form.
func TraceEvent(ev core.Event) StreamEvent {
	return StreamEvent{
		Type:      EventTrace,
		Iteration: ev.Iteration,
		Kind:      ev.Kind.String(),
		ClauseLen: ev.ClauseLen,
		Imported:  ev.Imported,
		CacheHit:  ev.CacheHit,
		Regions:   ev.Regions,
		Pruned:    ev.Pruned,
	}
}

// ---------------------------------------------------------------------------
// POST /v1/batch wire types. The request body is NDJSON: one BatchRequest
// header line carrying the shared base problem, then one BatchInstance line
// per related instance (clause deltas + assumption literals). The response
// is NDJSON too: one BatchEvent of type "item" per instance as it is
// solved over the shared warm session, closed by one "end" event.

// BatchRequest is the first NDJSON line of a batch request.
type BatchRequest struct {
	// Base is the shared base problem's text (in the format named by the
	// request's format parameter; extended DIMACS by default).
	Base string `json:"base"`
}

// BatchInstance is one NDJSON instance line: the delta against the shared
// base. Clauses are asserted in a fresh session frame (retracted after the
// instance's solve); Assume literals hold for the solve only.
type BatchInstance struct {
	// ID is an optional caller-chosen label echoed in the item result.
	ID string `json:"id,omitempty"`
	// Clauses are extra DIMACS clauses asserted for this instance.
	Clauses [][]int `json:"clauses,omitempty"`
	// Assume are assumption literals for this instance's solve.
	Assume []int `json:"assume,omitempty"`
}

// BatchItemResult is one instance's outcome within a batch.
type BatchItemResult struct {
	// Index is the 0-based position of the instance in the request.
	Index int `json:"index"`
	// ID echoes the instance's label.
	ID string `json:"id,omitempty"`
	// Result is the verdict (its Stats are this instance's per-call delta,
	// so summing item stats never double-counts the shared session).
	Result *SolveResponse `json:"result,omitempty"`
	// Error is the per-instance failure diagnostic (Result is nil then).
	Error string `json:"error,omitempty"`
}

// BatchSummary closes a batch response.
type BatchSummary struct {
	// Total is the number of instances in the request.
	Total int `json:"total"`
	// Solved counts instances with a definitive sat/unsat verdict.
	Solved int `json:"solved"`
	// Errors counts instances that failed.
	Errors int `json:"errors"`
}

// Batch stream event types (the "type" field of each response line).
const (
	// EventItem carries one instance's result.
	EventItem = "item"
	// EventEnd closes the stream with the batch summary.
	EventEnd = "end"
)

// BatchEvent is one NDJSON line of a batch response.
type BatchEvent struct {
	Type string `json:"type"`
	// Item is the instance outcome (Type == EventItem).
	Item *BatchItemResult `json:"item,omitempty"`
	// Summary closes the batch (Type == EventEnd).
	Summary *BatchSummary `json:"summary,omitempty"`
	// Error is a batch-level failure (Type == EventError).
	Error string `json:"error,omitempty"`
}

// Exit codes shared with the stand-alone tool (docs/exit-codes.md).
const (
	ExitSat      = 0
	ExitInternal = 1
	ExitUsage    = 2
	ExitUnsat    = 10
	ExitUnknown  = 20
)

// ExitCode maps an engine verdict to the stand-alone tool's exit code.
func ExitCode(s core.Status) int {
	switch s {
	case core.StatusSat:
		return ExitSat
	case core.StatusUnsat:
		return ExitUnsat
	}
	return ExitUnknown
}
