package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

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

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if !post(w, r, "program") {
		return
	}
	params, prog, err := s.checkRequest(w, r)
	if err != nil {
		s.refuse(w, "program", err)
		return
	}
	s.serve(w, r, params.Timeout, true, func(ctx context.Context, wait time.Duration, emit func(any)) (any, string) {
		opts := mc.Options{
			Property:    params.Property,
			MaxDepth:    params.K,
			NoInduction: params.NoInduction,
			Progress: func(ev mc.DepthEvent) {
				emit(api.CheckEvent{Type: api.CheckEventDepth, Depth: &api.CheckDepth{
					Depth: ev.Depth, Phase: ev.Phase, Status: ev.Status,
				}})
			},
		}
		res, err := mc.Check(ctx, prog, opts)
		// A deadline or cancellation still leaves a sound partial result:
		// report bound_reached rather than failing the request.
		why, ok := reason(err)
		if !ok {
			s.metrics.checkDone(verdictError, 0, false, res.Stats, wait)
			return failure(why), "verdict=" + verdictError
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
			Stats:     api.Stats(res.Stats),
		}
		if resp.Reason == "" {
			resp.Reason = why
		}
		if res.Trace != nil {
			resp.Trace = &api.CheckTrace{
				Property: res.Trace.Property,
				Step:     res.Trace.Step,
				Inputs:   res.Trace.Inputs,
			}
		}
		s.metrics.checkDone(resp.Verdict, res.Depths, res.Induction, res.Stats, wait)
		return api.CheckEvent{Type: api.EventResult, Result: &resp}, "verdict=" + resp.Verdict
	})
}

// checkRequest validates a /v1/check request's parameters and decodes its
// program.
func (s *Server) checkRequest(w http.ResponseWriter, r *http.Request) (api.CheckParams, *lustre.Program, error) {
	params, err := api.ParseCheckParams(r.URL.Query())
	switch {
	case err != nil:
		return params, nil, fmt.Errorf("bad parameters: %w", err)
	case params.K > s.cfg.MaxCheckDepth:
		return params, nil, fmt.Errorf("k %d exceeds the server maximum %d", params.K, s.cfg.MaxCheckDepth)
	}
	text, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return params, nil, bodyError("program body", err)
	}
	var prog *lustre.Program
	if params.Format == api.FormatSimulink {
		var m *simulink.Model
		if m, err = simulink.ParseModel(bytes.NewReader(text)); err == nil {
			prog, err = lustre.FromSimulink(m)
		}
	} else {
		prog, err = lustre.Parse(string(text))
	}
	if err != nil {
		return params, nil, fmt.Errorf("program: %w", err)
	}
	return params, prog, nil
}
