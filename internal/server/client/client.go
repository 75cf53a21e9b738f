// Package client is the Go client of the absolverd HTTP service: plain and
// streaming solves, metrics scraping, and health probes. The load and
// robustness suite drives the daemon through it, and service tooling can
// embed it to pipe problems into a running absolverd.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"absolver/internal/server/api"
)

// Client talks to one absolverd instance.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8753".
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Error is a non-200 service answer.
type Error struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// ExitCode is the stand-alone tool's exit code for this failure class.
	ExitCode int
	// Message is the service diagnostic.
	Message string
	// RetryAfter is the server's backoff hint (429/503 responses).
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("absolverd: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsQueueFull reports whether err is the service's admission-control
// rejection (HTTP 429).
func IsQueueFull(err error) bool {
	var se *Error
	return asError(err, &se) && se.StatusCode == http.StatusTooManyRequests
}

func asError(err error, target **Error) bool {
	for err != nil {
		if se, ok := err.(*Error); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// drainBody discards a bounded amount of unread response body. The
// net/http transport only reuses a keep-alive connection whose body was
// read to EOF; a JSON decode stops at the end of the value, so without an
// explicit drain every error response (and every Solve) would burn its
// connection — exactly the overhead a cluster coordinator's request rate
// cannot afford. The bound keeps a pathological server from feeding us
// forever.
func drainBody(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, 1<<20))
}

// parseRetryAfter reads a Retry-After header: integer seconds or an HTTP
// date per RFC 9110. An unparseable value falls back to one second rather
// than zero — a zero backoff would make every retry loop built on this
// client hot-loop against a server that explicitly asked for restraint.
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
		return time.Second
	}
	return time.Second
}

// errorFromResponse decodes a non-200 body into *Error, draining the rest
// of the body so the connection can be reused.
func errorFromResponse(resp *http.Response) error {
	e := &Error{
		StatusCode: resp.StatusCode,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	var body api.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil {
		e.Message = body.Error
		e.ExitCode = body.ExitCode
	} else {
		e.Message = resp.Status
	}
	drainBody(resp.Body)
	return e
}

// post sends body to path with the query and returns the response of a
// 200 answer; any other status comes back as *Error, its body drained.
func (c *Client) post(ctx context.Context, path string, query url.Values, contentType, body string) (*http.Response, error) {
	u := c.BaseURL + path
	if q := query.Encode(); q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, errorFromResponse(resp)
	}
	return resp, nil
}

// readEvents reads an NDJSON event stream of type E, handing each event to
// handle until handle reports the stream's terminal event. The body is
// then drained so the connection can be reused, and handle's error is
// returned. A non-terminal error from handle (a caller's abort) returns at
// once and deliberately skips the drain: closing an undrained stream is
// what cancels the job server-side. what names the stream in diagnostics.
func readEvents[E any](body io.Reader, what string, handle func(E) (final bool, err error)) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("absolverd: bad %s line %q: %w", what, line, err)
		}
		final, err := handle(ev)
		if final {
			drainBody(body)
		}
		if final || err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("absolverd: %s stream ended without its final event", what)
}

// streamError is a failure reported after admission by a stream's final
// error event.
func streamError(msg string) error {
	return &Error{StatusCode: http.StatusOK, ExitCode: api.ExitInternal, Message: msg}
}

// Solve submits a problem body and waits for the verdict. A non-200 answer
// (bad input, queue full, draining, internal failure) is returned as *Error.
func (c *Client) Solve(ctx context.Context, problem string, params api.SolveParams) (*api.SolveResponse, error) {
	params.Stream = false
	resp, err := c.post(ctx, "/v1/solve", params.Values(), "text/plain", problem)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("absolverd: decoding response: %w", err)
	}
	drainBody(resp.Body)
	return &out, nil
}

// SolveStream submits a problem and watches the lazy loop live: onEvent
// receives every trace event as it streams in; the final verdict is
// returned. A non-nil error from onEvent aborts the request (closing the
// connection, which cancels the in-flight solve server-side) and is
// returned verbatim.
func (c *Client) SolveStream(ctx context.Context, problem string, params api.SolveParams, onEvent func(api.StreamEvent) error) (*api.SolveResponse, error) {
	params.Stream = true
	resp, err := c.post(ctx, "/v1/solve", params.Values(), "text/plain", problem)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out *api.SolveResponse
	err = readEvents(resp.Body, "solve", func(ev api.StreamEvent) (bool, error) {
		switch ev.Type {
		case api.EventResult:
			out = ev.Result
			return true, nil
		case api.EventError:
			return true, streamError(ev.Error)
		}
		if onEvent == nil {
			return false, nil
		}
		return false, onEvent(ev)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Batch submits a shared base problem plus per-instance deltas to
// POST /v1/batch, where they are solved incrementally over one warm
// session. It returns the per-instance results in submission order and the
// server's closing summary. A non-200 admission answer is returned as
// *Error; a batch-level failure after admission (e.g. a base problem the
// session cannot host) is returned as *Error with ExitInternal.
func (c *Client) Batch(ctx context.Context, base string, instances []api.BatchInstance, params api.SolveParams) ([]api.BatchItemResult, *api.BatchSummary, error) {
	params.Stream = false
	var body strings.Builder
	enc := json.NewEncoder(&body)
	if err := enc.Encode(api.BatchRequest{Base: base}); err != nil {
		return nil, nil, err
	}
	for _, inst := range instances {
		if err := enc.Encode(inst); err != nil {
			return nil, nil, err
		}
	}
	resp, err := c.post(ctx, "/v1/batch", params.Values(), "application/x-ndjson", body.String())
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var items []api.BatchItemResult
	var summary *api.BatchSummary
	err = readEvents(resp.Body, "batch", func(ev api.BatchEvent) (bool, error) {
		switch ev.Type {
		case api.EventItem:
			if ev.Item != nil {
				items = append(items, *ev.Item)
			}
		case api.EventEnd:
			summary = ev.Summary
			return true, nil
		case api.EventError:
			return true, streamError(ev.Error)
		}
		return false, nil
	})
	return items, summary, err
}

// Check submits a program to POST /v1/check and waits for the verdict.
// onDepth, when non-nil, receives every per-depth solver report as it
// streams in; a non-nil error from it aborts the request (closing the
// connection, which cancels the in-flight check server-side) and is
// returned verbatim. A non-200 admission answer is returned as *Error; a
// failure after admission is returned as *Error with ExitInternal.
func (c *Client) Check(ctx context.Context, program string, params api.CheckParams, onDepth func(api.CheckDepth) error) (*api.CheckResponse, error) {
	resp, err := c.post(ctx, "/v1/check", params.Values(), "text/plain", program)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out *api.CheckResponse
	err = readEvents(resp.Body, "check", func(ev api.CheckEvent) (bool, error) {
		switch ev.Type {
		case api.EventResult:
			out = ev.Result
			return true, nil
		case api.EventError:
			return true, streamError(ev.Error)
		case api.CheckEventDepth:
			if onDepth != nil && ev.Depth != nil {
				return false, onDepth(*ev.Depth)
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics scrapes GET /metrics into a flat map keyed by series name
// including labels, e.g. `absolverd_solves_total{verdict="sat"}`.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFromResponse(resp)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("absolverd: bad metric line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// Healthz probes GET /healthz (nil = healthy).
func (c *Client) Healthz(ctx context.Context) error { return c.probe(ctx, "/healthz") }

// Readyz probes GET /readyz (nil = admitting; *Error with 503 while
// draining).
func (c *Client) Readyz(ctx context.Context) error { return c.probe(ctx, "/readyz") }

func (c *Client) probe(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK {
		return &Error{StatusCode: resp.StatusCode, Message: http.StatusText(resp.StatusCode)}
	}
	return nil
}
