// Command perfbench is the repository's end-to-end benchmark. It generates
// every input of one workload from --seed with the repository's own
// generators, renders each input to its wire format and parses it back,
// drives the solver closed-loop from one or two clients for --seconds, checks
// every verdict against a reference the engine under test did not
// produce, and prints one JSON line: the end-to-end metrics, or with
// --trace 1 the per-layer metrics.
//
//	bash perfbench/run.sh --workload fischer-lp --seed 1 --seconds 20 --trace 0
//
// The workloads and metrics are described in perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"absolver/internal/core"
)

// defaultClients is the number of closed-loop clients: one per core of
// the two-core machines the benchmark is sized for. A workload may use
// fewer (see engineDeck.clients).
const defaultClients = 2

// defaultSeed is the seed used while the benchmark is developed and tuned;
// heldOutSeed is kept back to confirm a later performance claim on inputs
// it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// A run repeats its set-up at least minSetupReps times and until
// setupBudget has been spent; setup_s is the median, which keeps one slow
// repetition from setting it.
const (
	minSetupReps = 3
	setupBudget  = 2 * time.Second
)

// outcome is one answered instance.
type outcome struct {
	item    int           // deck index
	seq     int           // position in the phase's cycled deck
	end     time.Duration // since the timed phase began
	latency time.Duration
	alloc   uint64 // cumulative heap allocation when the answer came
	res     core.Result
	// wrong is set by the correctness gate.
	wrong error
	// layers is the traced engine layers of this instance (traced runs).
	layers *layers
}

// decided reports a definitive verdict that passed the correctness gate;
// unknown, errors and wrong verdicts count against decided_ratio.
func (o *outcome) decided() bool {
	return o.wrong == nil && (o.res.Status == core.StatusSat || o.res.Status == core.StatusUnsat)
}

// setupInfo is what set-up reports besides its wall time.
type setupInfo struct {
	parse      time.Duration // time inside the parsers
	parseBytes int           // wire-format bytes parsed
}

type buildFunc func(seed int64) (*engineDeck, setupInfo, error)

var workloads = map[string]buildFunc{
	"fischer-lp":  buildFischer,
	"steering-nl": buildSteering,
	"sudoku-sat":  buildSudoku,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fischer-lp, steering-nl or sudoku-sat")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed: the same seed gives the same inputs (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fischer-lp|steering-nl|sudoku-sat --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := runBenchmark(*name, build, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func runBenchmark(name string, build buildFunc, seed int64, d time.Duration, traced bool) (*report, error) {
	w, info, setup, err := setUp(build, seed)
	if err != nil {
		return nil, err
	}

	plain := timedPhase(w, d, false)
	phases := []*phase{plain}
	var tr *phase
	if traced {
		tr = timedPhase(w, d, true)
		phases = append(phases, tr)
	}

	rep := &report{Metrics: map[string]metric{}}
	for _, ph := range phases {
		gate(w, ph)
		rep.Attempted += len(ph.out)
		rep.Failed += ph.failed
	}
	rep.Correct = rep.Failed == 0
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("%s: no instance answered within the timed phase", name)
	}
	for _, ph := range phases {
		for _, o := range ph.out {
			if o.wrong != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s item %d: %v\n", name, o.item, o.wrong)
			}
		}
	}
	if !traced {
		endToEnd(rep.Metrics, w, plain, setup)
		return rep, nil
	}
	if err := perLayer(rep.Metrics, w, info, plain, tr); err != nil {
		return nil, err
	}
	return rep, nil
}

// setUp builds the workload repeatedly and keeps the last one. Each
// repetition starts after a GC, with the previous deck already dropped,
// so neither its garbage nor its live heap is charged to the next.
func setUp(build buildFunc, seed int64) (*engineDeck, setupInfo, time.Duration, error) {
	var times []float64
	var w *engineDeck
	var info setupInfo
	var spent time.Duration
	for r := 0; r < minSetupReps || spent < setupBudget; r++ {
		w = nil
		runtime.GC()
		start := time.Now()
		var err error
		w, info, err = build(seed)
		if err != nil {
			return nil, info, 0, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
	}
	runtime.GC()
	return w, info, time.Duration(median(times) * float64(time.Second)), nil
}

// phase is one timed closed-loop phase.
type phase struct {
	out    []outcome
	alloc0 uint64 // heap bytes allocated when the phase began
	failed int
}

// timedPhase runs the closed loop: each client takes the next item of the
// cycled deck, waits for its answer, and repeats until d has passed. A
// deck's head is answered once; the cycle repeats its rounds. The
// instance a client is working on when the time is up is cancelled and
// dropped.
func timedPhase(w *engineDeck, d time.Duration, traced bool) *phase {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	head := w.head
	var next atomic.Int64
	clients := w.nclients()
	per := make([][]outcome, clients)
	ph := &phase{alloc0: allocated()}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				i := k
				if k >= w.size() {
					i = head + (k-head)%(w.size()-head)
				}
				t0 := time.Now()
				o := w.run(ctx, i, traced)
				if ctx.Err() != nil {
					return
				}
				o.latency = time.Since(t0)
				o.end = time.Since(start)
				o.item, o.seq = i, k
				o.alloc = allocated()
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	for _, got := range per {
		ph.out = append(ph.out, got...)
	}
	return ph
}

// allocated is the process's cumulative heap allocation; unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap enough
// to read after every answer.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gate checks every outcome of a phase; it runs after the phase, outside
// both the timed phase and set-up.
func gate(w *engineDeck, ph *phase) {
	for i := range ph.out {
		o := &ph.out[i]
		if o.wrong = w.verify(o); o.wrong != nil {
			ph.failed++
		}
	}
}

func (ph *phase) latencies(keep func(*outcome) bool) []float64 {
	var l []float64
	for i := range ph.out {
		if keep == nil || keep(&ph.out[i]) {
			l = append(l, ph.out[i].latency.Seconds())
		}
	}
	return l
}

// window is what the end-to-end metrics measure of a phase: one pass
// over the whole deck, its head and every round.
type window struct {
	verdicts int           // in one pass
	time     time.Duration // of one pass
	alloc    float64       // bytes allocated in one pass
	lat      []float64     // latencies in the head and the complete rounds
	cut      time.Duration // end of the last complete round
	n        int           // answers by the cut
}

// window measures a phase up to the end of its last complete round and
// scales the rounds to the deck's, so that neither the instance mix nor
// the number of rounds the machine's speed allowed changes the figures,
// and the head weighs what it weighs in the deck: on steering-nl, whose
// head holds Car steering, a third completed round otherwise raised
// throughput by 12%. A phase that completed no round is measured to its
// last answer.
func (ph *phase) window(w *engineDeck) window {
	head, size := w.head, w.roundLen
	roundOf := func(o *outcome) int {
		if o.seq < head {
			return -1
		}
		return (o.seq - head) / size
	}
	got := map[int]int{}
	for i := range ph.out {
		got[roundOf(&ph.out[i])]++
	}
	complete := func(o *outcome) bool {
		if size == 0 {
			return true
		}
		if id := roundOf(o); id >= 0 {
			return got[id] == size
		}
		return got[-1] == head
	}
	var win window
	var headEnd time.Duration
	headAlloc, cutAlloc := ph.alloc0, ph.alloc0
	for i := range ph.out {
		o := &ph.out[i]
		if complete(o) && o.seq >= head {
			win.cut = max(win.cut, o.end)
		}
		if o.seq < head {
			headEnd, headAlloc = max(headEnd, o.end), max(headAlloc, o.alloc)
		}
	}
	if win.cut == 0 || got[-1] != head { // nothing complete: measure it all
		size, head, headEnd, headAlloc = 0, 0, 0, ph.alloc0
		for i := range ph.out {
			win.cut = max(win.cut, ph.out[i].end)
		}
	}
	for i := range ph.out {
		if o := &ph.out[i]; o.end <= win.cut {
			win.n++
			cutAlloc = max(cutAlloc, o.alloc)
		}
	}
	scale := 1.0
	if size > 0 {
		scale = float64(w.size()-head) / float64(win.n-head)
	}
	win.verdicts = head + int(float64(win.n-head)*scale+0.5)
	win.time = headEnd + time.Duration(float64(win.cut-headEnd)*scale)
	win.alloc = float64(headAlloc-ph.alloc0) + float64(cutAlloc-headAlloc)*scale
	win.lat = ph.latencies(complete)
	return win
}

func (win window) rate() float64 { return ratio(float64(win.verdicts), win.time.Seconds()) }

func endToEnd(m map[string]metric, w *engineDeck, ph *phase, setup time.Duration) {
	win := ph.window(w)
	decided := 0
	for i := range ph.out {
		if ph.out[i].decided() {
			decided++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d verdicts (%d decided); measured to %.1fs: %d verdicts, p50/p90 over %d samples\n",
		len(ph.out), decided, win.cut.Seconds(), win.n, len(win.lat))
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["verdicts_per_s"] = metric{win.rate(), "1/s"}
	m["verdict_p50_s"] = metric{quantile(win.lat, 0.5), "s"}
	m["verdict_p90_s"] = metric{quantile(win.lat, 0.9), "s"}
	m["decided_ratio"] = metric{float64(decided) / float64(len(ph.out)), "ratio"}
	m["alloc_mb"] = metric{win.alloc / (1 << 20) / float64(win.verdicts), "MB/verdict"}
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
