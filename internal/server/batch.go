package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"absolver/internal/core"
	"absolver/internal/server/api"
)

// POST /v1/batch solves an NDJSON stream of related instances — a shared
// base problem plus per-instance clause deltas and assumptions — over one
// warm core.Session on a single worker. The batch occupies one queue slot
// and one worker for its whole duration, under one request deadline, and
// honours the same admission and drain contracts as /v1/solve. Sessions
// are single-strategy: portfolio and restart parameters are rejected.

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !post(w, r, "batch") {
		return
	}
	params, problem, instances, err := s.batchRequest(w, r)
	if err != nil {
		s.refuse(w, "batch", err)
		return
	}
	// Each instance runs in its own push/pop frame (Session.SolveFrame), so
	// deltas never leak between instances while learned clauses, theory
	// verdicts and solver heuristics carry over.
	s.serve(w, r, params.Timeout, true, func(ctx context.Context, wait time.Duration, emit func(any)) (any, string) {
		sess, err := core.NewSession(problem, core.Config{}.WithKnobs(params.Knobs))
		if err != nil {
			s.metrics.jobDone(verdictError, core.Stats{}, wait)
			return failure(err.Error()), "verdict=" + verdictError
		}
		summary := api.BatchSummary{Total: len(instances)}
		for i, inst := range instances {
			res, err := sess.SolveFrame(ctx, inst.Clauses, inst.Assume)
			verdict := classify(res.Status, err)
			s.metrics.jobDone(verdict, res.Stats, wait)
			wait = 0 // the first instance carries the queue wait
			switch verdict {
			case verdictSat, verdictUnsat:
				summary.Solved++
			case verdictError:
				summary.Errors++
			}
			item := api.BatchItemResult{Index: i, ID: inst.ID}
			if resp, errResp := outcomeResponse(Outcome{Result: res}, err); errResp != nil {
				item.Error = errResp.Error
			} else {
				item.Result = &resp
			}
			emit(api.BatchEvent{Type: api.EventItem, Item: &item})
		}
		s.metrics.batchDone(summary.Total)
		return api.BatchEvent{Type: api.EventEnd, Summary: &summary}, fmt.Sprintf("instances=%d", len(instances))
	})
}

// batchRequest validates a /v1/batch request's parameters and decodes its
// header line, base problem and instance lines.
func (s *Server) batchRequest(w http.ResponseWriter, r *http.Request) (api.SolveParams, *core.Problem, []api.BatchInstance, error) {
	params, err := api.ParseParams(r.URL.Query())
	switch {
	case err != nil:
		return params, nil, nil, fmt.Errorf("bad parameters: %w", err)
	// A batch runs over one warm session; racing differently-configured
	// engines or restarting the Boolean solver would discard exactly the
	// state the session exists to keep.
	case params.Portfolio > 0:
		return params, nil, nil, errors.New("batch sessions are single-strategy; portfolio is not supported")
	case core.Config{}.WithKnobs(params.Knobs).RestartBoolean:
		return params, nil, nil, errors.New("batch sessions are incremental; restart is not supported")
	}

	// The whole body is read before any line is decoded, so an overflow
	// anywhere in it answers 413, not a parse error on a truncated line.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return params, nil, nil, bodyError("batch body", err)
	}
	var header *api.BatchRequest
	var instances []api.BatchInstance
	for i, raw := range bytes.Split(body, []byte("\n")) {
		line := i + 1
		text := bytes.TrimSpace(raw)
		if len(text) == 0 {
			continue
		}
		if header == nil {
			header = &api.BatchRequest{}
			if err := json.Unmarshal(text, header); err != nil {
				return params, nil, nil, fmt.Errorf("batch header (line %d): %w", line, err)
			}
			continue
		}
		var inst api.BatchInstance
		if err := json.Unmarshal(text, &inst); err != nil {
			return params, nil, nil, fmt.Errorf("batch instance (line %d): %w", line, err)
		}
		if instances = append(instances, inst); len(instances) > s.cfg.MaxBatchInstances {
			return params, nil, nil, fmt.Errorf("batch exceeds the server maximum of %d instances", s.cfg.MaxBatchInstances)
		}
	}
	if header == nil {
		return params, nil, nil, errors.New("batch body is empty: want a {\"base\": ...} header line")
	}
	problem, err := s.decodeProblem(params.Format, strings.NewReader(header.Base))
	if err != nil {
		return params, nil, nil, bodyError("base problem", err)
	}
	if err := problem.Validate(); err != nil {
		return params, nil, nil, fmt.Errorf("invalid base problem: %w", err)
	}
	return params, problem, instances, nil
}
