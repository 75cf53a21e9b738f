package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/server/api"
	"absolver/internal/smtlib"
)

// POST /v1/batch solves an NDJSON stream of related instances — a shared
// base problem plus per-instance clause deltas and assumptions — over one
// warm core.Session on a single worker. The batch occupies one queue slot
// and one worker for its whole duration, under one request deadline, and
// honours the same admission and drain contracts as /v1/solve. Sessions
// are single-strategy: portfolio and restart parameters are rejected.

// batchJob carries the batch-specific halves of an admitted job.
type batchJob struct {
	instances []api.BatchInstance
	// events streams item results to the handler; runBatch closes it.
	events chan api.BatchEvent
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, api.ExitUsage, "POST a batch body to /v1/batch")
		return
	}
	params, err := api.ParseParams(r.URL.Query())
	if err != nil {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "bad parameters: %v", err)
		return
	}
	// A batch runs over one warm session; racing differently-configured
	// engines or restarting the Boolean solver would discard exactly the
	// state the session exists to keep.
	if params.Portfolio > 0 {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "batch sessions are single-strategy; portfolio is not supported")
		return
	}
	if (core.Config{}).WithKnobs(params.Knobs).RestartBoolean {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "batch sessions are incremental; restart is not supported")
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes)+1)

	var header *api.BatchRequest
	var instances []api.BatchInstance
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if header == nil {
			header = &api.BatchRequest{}
			if err := json.Unmarshal([]byte(text), header); err != nil {
				s.metrics.reject(rejectBadRequest)
				writeError(w, http.StatusBadRequest, api.ExitUsage, "batch header (line %d): %v", line, err)
				return
			}
			continue
		}
		var inst api.BatchInstance
		if err := json.Unmarshal([]byte(text), &inst); err != nil {
			s.metrics.reject(rejectBadRequest)
			writeError(w, http.StatusBadRequest, api.ExitUsage, "batch instance (line %d): %v", line, err)
			return
		}
		instances = append(instances, inst)
		if len(instances) > s.cfg.MaxBatchInstances {
			s.metrics.reject(rejectBadRequest)
			writeError(w, http.StatusBadRequest, api.ExitUsage,
				"batch exceeds the server maximum of %d instances", s.cfg.MaxBatchInstances)
			return
		}
	}
	if err := sc.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, bufio.ErrTooLong) {
			s.metrics.reject(rejectBodyTooLarge)
			writeError(w, http.StatusRequestEntityTooLarge, api.ExitUsage, "batch body too large: %v", err)
			return
		}
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "batch body: %v", err)
		return
	}
	if header == nil {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "batch body is empty: want a {\"base\": ...} header line")
		return
	}

	var problem *core.Problem
	switch params.Format {
	case api.FormatSMTLIB:
		b, perr := smtlib.ParseReader(strings.NewReader(header.Base), s.cfg.SMTLIBLimits)
		if perr == nil {
			problem = b.ToProblem()
		} else {
			err = perr
		}
	default:
		problem, err = dimacs.ParseLimited(strings.NewReader(header.Base), s.cfg.DIMACSLimits)
	}
	if err != nil {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "base problem: %v", err)
		return
	}
	if err := problem.Validate(); err != nil {
		s.metrics.reject(rejectBadRequest)
		writeError(w, http.StatusBadRequest, api.ExitUsage, "invalid base problem: %v", err)
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
		problem:  problem,
		params:   params,
		admitted: time.Now(),
		done:     make(chan struct{}),
		batch: &batchJob{
			instances: instances,
			events:    make(chan api.BatchEvent, 16),
		},
	}

	if !s.admit(w, j) {
		return
	}

	// Stream item events as they arrive; admission fixed the status code.
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
	for ev := range j.batch.events {
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

// runBatch solves an admitted batch over one warm session, emitting one
// item event per instance and a closing summary. Each instance runs in its
// own push/pop frame, so deltas never leak between instances while learned
// clauses, theory verdicts and solver heuristics carry over.
func (s *Server) runBatch(j *job, wait time.Duration) {
	defer close(j.batch.events)
	send := func(ev api.BatchEvent) {
		select {
		case j.batch.events <- ev:
		case <-j.ctx.Done():
		}
	}

	sess, err := core.NewSession(j.problem, core.Config{}.WithKnobs(j.params.Knobs))
	if err != nil {
		s.metrics.jobDone(verdictError, core.Stats{}, wait)
		send(api.BatchEvent{Type: api.EventError, Error: err.Error()})
		return
	}

	summary := api.BatchSummary{Total: len(j.batch.instances)}
	instWait := wait // the first instance carries the queue wait
	for i, inst := range j.batch.instances {
		item, verdict, st := s.solveBatchInstance(j.ctx, sess, i, inst)
		s.metrics.jobDone(verdict, st, instWait)
		instWait = 0
		switch verdict {
		case verdictSat, verdictUnsat:
			summary.Solved++
		case verdictError:
			summary.Errors++
		}
		send(api.BatchEvent{Type: api.EventItem, Item: &item})
	}
	s.metrics.batchDone(summary.Total)
	send(api.BatchEvent{Type: api.EventEnd, Summary: &summary})
}

// solveBatchInstance runs one instance in its own frame: assert the delta
// clauses, solve under the instance's assumptions, retract.
func (s *Server) solveBatchInstance(ctx context.Context, sess *core.Session, idx int, inst api.BatchInstance) (api.BatchItemResult, string, core.Stats) {
	item := api.BatchItemResult{Index: idx, ID: inst.ID}
	sess.Push()
	for _, cl := range inst.Clauses {
		if err := sess.AssertClause(cl...); err != nil {
			_ = sess.Pop()
			item.Error = err.Error()
			return item, verdictError, core.Stats{}
		}
	}
	res, err := sess.SolveUnderAssumptions(ctx, inst.Assume)
	if perr := sess.Pop(); perr != nil && err == nil {
		err = perr
	}
	resp, errResp := outcomeResponse(Outcome{Result: res}, err)
	if errResp != nil {
		item.Error = errResp.Error
		return item, classify(res.Status, err), res.Stats
	}
	item.Result = &resp
	return item, classify(res.Status, err), res.Stats
}
