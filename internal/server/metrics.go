package server

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"absolver/internal/core"
)

// ClusterMetrics counts a coordinator's cube-and-conquer activity. The
// cluster package records into it through its Observer interface; the
// server renders it as the absolverd_cluster_* series when Config wires it
// in. All methods are safe for concurrent use.
type ClusterMetrics struct {
	cubesIssued    atomic.Int64
	cubesSolved    atomic.Int64
	cubesRequeued  atomic.Int64
	workerFailures atomic.Int64
	// LemmasRelayed, when set, reports clauses the coordinator's relay has
	// delivered across workers (exchange.Relay.LemmasRelayed).
	LemmasRelayed func() int64
}

// CubeIssued records one cube dispatched to a worker.
func (c *ClusterMetrics) CubeIssued() { c.cubesIssued.Add(1) }

// CubeSolved records one cube that reached a terminal verdict.
func (c *ClusterMetrics) CubeSolved() { c.cubesSolved.Add(1) }

// CubeRequeued records one cube sent back to the queue after its worker
// failed.
func (c *ClusterMetrics) CubeRequeued() { c.cubesRequeued.Add(1) }

// WorkerFailure records one failed worker dispatch (transport error or
// retryable HTTP rejection).
func (c *ClusterMetrics) WorkerFailure() { c.workerFailures.Add(1) }

// Job outcome classes for the solves_total counter. Every admitted job
// lands in exactly one class when it finishes.
const (
	verdictSat      = "sat"
	verdictUnsat    = "unsat"
	verdictUnknown  = "unknown"
	verdictCanceled = "canceled" // client went away mid-solve
	verdictError    = "error"    // engine / input failure after admission
)

// Admission rejection reasons for the rejected_total counter.
const (
	rejectQueueFull    = "queue_full"
	rejectDraining     = "draining"
	rejectBodyTooLarge = "body_too_large"
	rejectBadRequest   = "bad_request"
)

// metrics aggregates service- and engine-level counters across all jobs.
// Writes happen under one mutex — contention is negligible next to a
// solve — and rendering takes a consistent snapshot under the same lock.
type metrics struct {
	mu       sync.Mutex
	solves   map[string]int64 // by verdict class
	rejected map[string]int64 // by admission rejection reason
	engine   core.Stats       // summed over every finished job
	waitTime time.Duration    // total admission→start queue wait

	cacheHits      int64 // requests answered from the verdict cache
	cacheMisses    int64 // cacheable requests that had to solve
	batchRequests  int64 // completed /v1/batch runs
	batchInstances int64 // instances solved across all batch runs

	checks         map[string]int64 // completed /v1/check runs, by verdict
	checkDepths    int64            // unrolling depths explored across checks
	checkInduction int64            // checks whose proof came from induction
}

func newMetrics() *metrics {
	m := &metrics{solves: map[string]int64{}, rejected: map[string]int64{}, checks: map[string]int64{}}
	// Pre-seed every class so the /metrics series set is stable from the
	// first scrape.
	for _, v := range []string{verdictSat, verdictUnsat, verdictUnknown, verdictCanceled, verdictError} {
		m.solves[v] = 0
	}
	for _, r := range []string{rejectQueueFull, rejectDraining, rejectBodyTooLarge, rejectBadRequest} {
		m.rejected[r] = 0
	}
	for _, v := range []string{"proved", "falsified", "bound_reached", verdictError} {
		m.checks[v] = 0
	}
	return m
}

func (m *metrics) jobDone(verdict string, st core.Stats, wait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves[verdict]++
	m.engine.Merge(st)
	m.waitTime += wait
}

func (m *metrics) cacheHit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheHits++
}

func (m *metrics) cacheMiss() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheMisses++
}

func (m *metrics) batchDone(instances int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchRequests++
	m.batchInstances += int64(instances)
}

func (m *metrics) checkDone(verdict string, depths int, induction bool, st core.Stats, wait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checks[verdict]++
	m.checkDepths += int64(depths)
	if induction {
		m.checkInduction++
	}
	m.engine.Merge(st)
	m.waitTime += wait
}

func (m *metrics) reject(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected[reason]++
}

// gauges are the point-in-time values rendered next to the counters.
type gauges struct {
	queueDepth    int
	queueCapacity int
	workers       int
	workersBusy   int
	// cluster, when non-nil, adds the absolverd_cluster_* series.
	cluster *ClusterMetrics
}

// write renders the Prometheus text exposition format. Keys are emitted in
// sorted order so scrapes (and tests) see deterministic output.
func (m *metrics) write(w io.Writer, g gauges) {
	m.mu.Lock()
	solves := maps.Clone(m.solves)
	rejected := maps.Clone(m.rejected)
	engine := m.engine
	wait := m.waitTime
	cacheHits, cacheMisses := m.cacheHits, m.cacheMisses
	batchRequests, batchInstances := m.batchRequests, m.batchInstances
	checks := maps.Clone(m.checks)
	checkDepths, checkInduction := m.checkDepths, m.checkInduction
	m.mu.Unlock()

	writeLabelled(w, "absolverd_solves_total", "verdict", "Completed solve jobs by outcome class.", solves)
	writeLabelled(w, "absolverd_rejected_total", "reason", "Requests rejected before admission, by reason.", rejected)

	writeSeries(w, "absolverd_queue_depth", "gauge", "Jobs admitted but not yet picked up by a worker.", g.queueDepth)
	writeSeries(w, "absolverd_queue_capacity", "gauge", "Bounded queue capacity (jobs beyond busy workers).", g.queueCapacity)
	writeSeries(w, "absolverd_workers", "gauge", "Size of the fixed worker pool.", g.workers)
	writeSeries(w, "absolverd_workers_busy", "gauge", "Workers currently running a solve.", g.workersBusy)

	writeSeries(w, "absolverd_cache_hits_total", "counter", "Requests answered from the canonical verdict cache.", cacheHits)
	writeSeries(w, "absolverd_cache_misses_total", "counter", "Cacheable requests that required a solve.", cacheMisses)
	writeSeries(w, "absolverd_batch_requests_total", "counter", "Completed /v1/batch runs.", batchRequests)
	writeSeries(w, "absolverd_batch_instances_total", "counter", "Instances solved across all batch runs.", batchInstances)
	writeLabelled(w, "absolverd_check_requests_total", "verdict", "Completed /v1/check runs by verdict.", checks)
	writeSeries(w, "absolverd_check_depths_total", "counter", "Unrolling depths explored across all checks.", checkDepths)
	writeSeries(w, "absolverd_check_induction_total", "counter", "Checks proved by a k-induction step case.", checkInduction)

	writeSeries(w, "absolverd_queue_wait_seconds_total", "counter", "Cumulative admission-to-start wait across jobs.", wait.Seconds())

	// Engine counters, via the core.Stats aggregation hook.
	counters := engine.Counters()
	fmt.Fprintln(w, "# HELP absolverd_engine_total Engine counters summed over all finished jobs (core.Stats).")
	for _, k := range sortedKeys(counters) {
		fmt.Fprintf(w, "# TYPE absolverd_engine_%s_total counter\n", k)
		fmt.Fprintf(w, "absolverd_engine_%s_total %d\n", k, counters[k])
	}
	for _, p := range core.StatPhases {
		writeSeries(w, "absolverd_engine_"+p.Name+"_seconds_total", "counter",
			"Engine "+p.Name+" time summed over all finished jobs.", p.Field(&engine).Seconds())
	}

	// The nonlinear unknown-rate — the north-star metric of the PolyAR
	// subsystem — gets first-class series (beyond the generic engine
	// counters above): undecided nonlinear checks and how many of them the
	// abstraction-refinement fallback rescued to a definitive verdict.
	writeSeries(w, "absolverd_nlp_unknown_total", "counter", "Nonlinear theory checks the penalty solver left undecided.", engine.NLPUnknown)
	writeSeries(w, "absolverd_nlp_rescued_total", "counter", "Undecided nonlinear checks PolyAR converted to a definitive verdict.", engine.NLPUnknownRescued)

	if g.cluster != nil {
		c := g.cluster
		writeSeries(w, "absolverd_cluster_cubes_issued_total", "counter", "Cubes dispatched to workers.", c.cubesIssued.Load())
		writeSeries(w, "absolverd_cluster_cubes_solved_total", "counter", "Cubes with a terminal verdict.", c.cubesSolved.Load())
		writeSeries(w, "absolverd_cluster_cubes_requeued_total", "counter", "Cubes requeued after a worker failure.", c.cubesRequeued.Load())
		writeSeries(w, "absolverd_cluster_worker_failures_total", "counter", "Failed worker dispatches.", c.workerFailures.Load())
		var relayed int64
		if c.LemmasRelayed != nil {
			relayed = c.LemmasRelayed()
		}
		writeSeries(w, "absolverd_cluster_lemmas_relayed_total", "counter", "Lemmas delivered across workers by the relay.", relayed)
	}
}

// writeSeries renders one unlabelled series with its HELP and TYPE lines.
func writeSeries(w io.Writer, name, typ, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
}

// writeLabelled renders a counter family, one series per label value in
// sorted order.
func writeLabelled(w io.Writer, name, label, help string, m map[string]int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, m[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
