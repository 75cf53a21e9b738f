package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/server/api"
	"absolver/internal/smtlib"
)

// Every POST endpoint runs one pipeline: its handler validates the
// parameters and decodes the body (refuse answers a failure), then builds
// a runFunc; serve admits it as a job under the request's deadline; a
// worker decides it in runJob; respond writes the answer, a plain JSON
// body or an NDJSON stream.

// A runFunc decides one admitted job on a worker. It reports progress
// through emit (streamed jobs only), records its own metrics, and returns
// the terminal value plus a short outcome for the log line. The terminal
// value is a plain solve's response body or a stream's final event; a
// failure is an *api.ErrorResponse, which respond answers in the request's
// failure shape.
type runFunc func(ctx context.Context, wait time.Duration, emit func(any)) (final any, outcome string)

// job is one admitted request travelling from its handler to a worker and
// back.
type job struct {
	path     string // the endpoint, for the log line
	ctx      context.Context
	admitted time.Time
	run      runFunc
	// events carries progress events to a streaming handler (nil for a
	// plain solve); runJob closes it when run returns.
	events chan any
	// done closes after final is set and events is closed.
	done  chan struct{}
	final any
}

// serve admits run as a job under the request's timeout, clamped to the
// server's maximum, and answers it. The deadline starts at admission: it
// covers queue wait plus run, and the request context ties the job to the
// client's connection, so a disconnect cancels it.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, timeout time.Duration, stream bool, run runFunc) {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(timeout, s.cfg.MaxTimeout))
	defer cancel()
	j := &job{path: r.URL.Path, ctx: ctx, admitted: time.Now(), run: run, done: make(chan struct{})}
	if stream {
		// The buffer lets a worker run a burst of events ahead of the
		// network writes instead of handing over one event at a time.
		j.events = make(chan any, 64)
	}
	if s.admit(w, j) {
		s.respond(w, j)
	}
}

// admit puts j on the job queue and reports true. Otherwise it answers
// the request itself, 503 while the server drains or 429 when the queue
// is full, and reports false. The mutex closes the race against Shutdown:
// no job is admitted after draining is set. The non-blocking send
// implements the bounded queue. jobs.Add comes before the send, because a
// worker can finish the job and call jobs.Done before the send returns.
func (s *Server) admit(w http.ResponseWriter, j *job) bool {
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		s.metrics.reject(rejectDraining)
		w.Header().Set("Retry-After", s.retryAfterHint(true))
		writeError(w, http.StatusServiceUnavailable, api.ExitUnknown, "server is draining")
		return false
	}
	s.jobs.Add(1)
	select {
	case s.queue <- j:
		s.mu.Unlock()
		return true
	default:
		s.jobs.Done()
		s.mu.Unlock()
		s.metrics.reject(rejectQueueFull)
		w.Header().Set("Retry-After", s.retryAfterHint(false))
		writeError(w, http.StatusTooManyRequests, api.ExitUnknown,
			"queue full (%d workers busy, %d queued)", s.cfg.Workers, cap(s.queue))
		return false
	}
}

// runJob decides one admitted job: the optional solve delay, the busy
// gauge, the run itself (with panic isolation), closing the channels and
// the log line.
func (s *Server) runJob(j *job) {
	defer s.jobs.Done()
	s.busy.Add(1)
	defer s.busy.Add(-1)
	wait := time.Since(j.admitted)

	if d := s.cfg.SolveDelay; d > 0 {
		select {
		case <-time.After(d):
		case <-j.ctx.Done():
		}
	}

	start := time.Now()
	outcome := s.decide(j, wait)
	if j.events != nil {
		close(j.events)
	}
	close(j.done)
	s.logf("absolverd: %s done %s wait=%v run=%v", j.path, outcome, wait, time.Since(start))
}

// decide runs j and sets its final value. A panic in the run degrades
// only this request: it becomes the request's failure answer, counts once
// as verdict "error" and is logged with its stack; the worker lives on.
func (s *Server) decide(j *job, wait time.Duration) (outcome string) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("absolverd: %s panicked: %v\n%s", j.path, p, debug.Stack())
			s.metrics.jobDone(verdictError, core.Stats{}, wait)
			j.final = failure(fmt.Sprintf("internal error: %v", p))
			outcome = "verdict=" + verdictError
		}
	}()
	// A blocking send gives the stream backpressure; the job context
	// unblocks it when the client goes away or the deadline fires, so a
	// stalled reader can never wedge a worker. The first, non-blocking try
	// keeps an event whenever the buffer has room, even past the deadline.
	emit := func(ev any) {
		select {
		case j.events <- ev:
			return
		default:
		}
		select {
		case j.events <- ev:
		case <-j.ctx.Done():
		}
	}
	j.final, outcome = j.run(j.ctx, wait, emit)
	return outcome
}

// respond writes an admitted job's answer once it is decided. A plain
// solve gets one JSON body, HTTP 500 for a failure. A stream gets its
// events as NDJSON lines as they arrive, then the final one, an error
// event for a failure; admission fixed its status at 200. A stream whose
// client went away keeps draining events, so the worker's sends never
// park.
func (s *Server) respond(w http.ResponseWriter, j *job) {
	if j.events == nil {
		<-j.done
		status := http.StatusOK
		if _, failed := j.final.(*api.ErrorResponse); failed {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, j.final)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush()
	enc := json.NewEncoder(w)
	clientGone := false
	for ev := range j.events {
		if clientGone {
			continue
		}
		if err := enc.Encode(ev); err != nil {
			clientGone = true
			continue
		}
		flush()
	}
	<-j.done
	if clientGone {
		return
	}
	final := j.final
	if e, failed := final.(*api.ErrorResponse); failed {
		// Solve, batch and check streams share this error event shape.
		final = api.StreamEvent{Type: api.EventError, Error: e.Error}
	}
	_ = enc.Encode(final)
	flush()
}

// failure is the terminal value of a job that failed after admission.
func failure(msg string) *api.ErrorResponse {
	return &api.ErrorResponse{Error: msg, ExitCode: api.ExitInternal}
}

// reason classifies a run's error: "" for none, "timeout", "canceled", or
// the iteration-limit diagnostic, each a sound non-definitive outcome;
// ok is false for a failure, and the reason is then its diagnostic.
func reason(err error) (why string, ok bool) {
	switch {
	case err == nil:
		return "", true
	case errors.Is(err, core.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return "timeout", true
	case errors.Is(err, context.Canceled):
		return "canceled", true
	case errors.Is(err, core.ErrIterationLimit):
		return err.Error(), true
	}
	return err.Error(), false
}

// classify buckets a finished solve for the solves_total counter.
func classify(status core.Status, err error) string {
	switch why, ok := reason(err); {
	case !ok:
		return verdictError
	case why == "canceled":
		return verdictCanceled
	case status == core.StatusSat:
		return verdictSat
	case status == core.StatusUnsat:
		return verdictUnsat
	}
	return verdictUnknown
}

// post answers any method but POST with 405 and reports false. noun names
// what the body carries.
func post(w http.ResponseWriter, r *http.Request, noun string) bool {
	if r.Method == http.MethodPost {
		return true
	}
	writeError(w, http.StatusMethodNotAllowed, api.ExitUsage, "POST a %s body to %s", noun, r.URL.Path)
	return false
}

// refuse answers a request rejected before admission: 413 and
// body_too_large when err is a size-limit overflow, else 400 and
// bad_request with err as the diagnostic.
func (s *Server) refuse(w http.ResponseWriter, noun string, err error) {
	if tooLarge(err) {
		s.metrics.reject(rejectBodyTooLarge)
		writeError(w, http.StatusRequestEntityTooLarge, api.ExitUsage, "%s body too large: %v", noun, err)
		return
	}
	s.metrics.reject(rejectBadRequest)
	writeError(w, http.StatusBadRequest, api.ExitUsage, "%v", err)
}

// tooLarge reports a body over Config.MaxBodyBytes or a problem over the
// parser limits.
func tooLarge(err error) bool {
	var mb *http.MaxBytesError
	return errors.As(err, &mb) || errors.Is(err, dimacs.ErrInputTooLarge) || errors.Is(err, smtlib.ErrInputTooLarge)
}

// bodyError prefixes a body read or parse failure for its 400 answer but
// passes a size-limit overflow through as it is, for refuse to word.
func bodyError(prefix string, err error) error {
	if tooLarge(err) {
		return err
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// decodeProblem parses a problem in the named format under the server's
// parser limits.
func (s *Server) decodeProblem(format string, body io.Reader) (*core.Problem, error) {
	if format == api.FormatSMTLIB {
		b, err := smtlib.ParseReader(body, s.cfg.SMTLIBLimits)
		if err != nil {
			return nil, err
		}
		return b.ToProblem(), nil
	}
	return dimacs.ParseLimited(body, s.cfg.DIMACSLimits)
}
