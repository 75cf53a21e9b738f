package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"absolver/internal/core"
	"absolver/internal/lustre"
	"absolver/internal/mc"
	"absolver/internal/server/api"
	"absolver/internal/simulink"
)

// POST /v1/check runs the model-checking front end — BMC + k-induction
// over a Lustre program or Simulink model — on a worker, streaming one
// NDJSON depth event per base/induction solve and a terminal result or
// error event. A check occupies one queue slot and one worker for its
// whole duration and honours the same admission and drain contracts as
// /v1/solve.

// checkJob carries the check-specific halves of an admitted job.
type checkJob struct {
	prog   *lustre.Program
	params api.CheckParams
	// events streams depth reports and the terminal event to the handler;
	// runCheckJob closes it.
	events chan api.CheckEvent
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, api.ExitUsage, "POST a program body to /v1/check")
		return
	}
	params, err := api.ParseCheckParams(r.URL.Query())
	if err != nil {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "bad parameters: %v", err)
		return
	}
	if params.K > s.cfg.MaxCheckDepth {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage,
			"k %d exceeds the server maximum %d", params.K, s.cfg.MaxCheckDepth)
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	text, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.reject(rejectBodyTooLarge)
			writeError(w, http.StatusRequestEntityTooLarge, api.ExitUsage, "program body too large: %v", err)
			return
		}
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "program body: %v", err)
		return
	}

	var prog *lustre.Program
	switch params.Format {
	case api.FormatSimulink:
		m, perr := simulink.ParseModel(strings.NewReader(string(text)))
		if perr == nil {
			prog, err = lustre.FromSimulink(m)
		} else {
			err = perr
		}
	default:
		prog, err = lustre.Parse(string(text))
	}
	if err != nil {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "program: %v", err)
		return
	}

	timeout := params.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	j := &job{
		ctx:      ctx,
		admitted: time.Now(),
		done:     make(chan struct{}),
		check: &checkJob{
			prog:   prog,
			params: params,
			events: make(chan api.CheckEvent, 16),
		},
	}

	if !s.admit(w, j) {
		return
	}

	// Stream depth events as they arrive; admission fixed the status code.
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
	for ev := range j.check.events {
		if clientGone {
			continue // drain so the worker's sends never park
		}
		if err := enc.Encode(ev); err != nil {
			clientGone = true
			continue
		}
		flush()
	}
	<-j.done
}

// runCheckJob runs an admitted check on a worker, streaming per-depth
// verdicts and closing with the result (or error) event.
func (s *Server) runCheckJob(j *job, wait time.Duration) {
	defer close(j.check.events)
	send := func(ev api.CheckEvent) {
		select {
		case j.check.events <- ev:
		case <-j.ctx.Done():
		}
	}

	opts := mc.Options{
		Property:    j.check.params.Property,
		MaxDepth:    j.check.params.K,
		NoInduction: j.check.params.NoInduction,
		Progress: func(ev mc.DepthEvent) {
			send(api.CheckEvent{Type: api.CheckEventDepth, Depth: &api.CheckDepth{
				Depth: ev.Depth, Phase: ev.Phase, Status: ev.Status,
			}})
		},
	}
	res, err := mc.Check(j.ctx, j.check.prog, opts)
	// Deadline and cancellation surface as errors from the solver but
	// still carry a sound partial result: report bound_reached rather
	// than failing the request.
	timedOut := err != nil && (errors.Is(err, core.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled))
	if err != nil && !timedOut {
		s.metrics.checkDone(verdictError, 0, false, res.Stats, wait)
		send(api.CheckEvent{Type: api.EventError, Error: err.Error()})
		return
	}

	resp := api.CheckResponse{
		Verdict:   string(res.Verdict),
		K:         res.K,
		ExitCode:  api.CheckExitCode(string(res.Verdict)),
		Property:  opts.Property,
		Induction: res.Induction,
		Certified: res.Certified,
		Depths:    res.Depths,
		Reason:    res.Reason,
		Stats:     api.StatsFrom(res.Stats),
	}
	if timedOut && resp.Reason == "" {
		resp.Reason = "timeout"
	}
	if res.Trace != nil {
		resp.Trace = &api.CheckTrace{
			Property: res.Trace.Property,
			Step:     res.Trace.Step,
			Inputs:   res.Trace.Inputs,
		}
	}
	s.metrics.checkDone(resp.Verdict, res.Depths, res.Induction, res.Stats, wait)
	send(api.CheckEvent{Type: api.EventResult, Result: &resp})
}
