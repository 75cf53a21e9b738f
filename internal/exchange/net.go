// Network transport for the lemma exchange: cluster workers share theory
// lemmas across nodes the way portfolio members share them in-process.
//
// The coordinator hosts a Relay — an HTTP facade over one Exchange store —
// and each remote engine attaches through a NetClient, which implements
// core.LemmaExchange over POST (publish) and GET (poll). The store, its
// caps, canonicalisation and owner-skip semantics are exactly the
// in-process ones: the Relay keeps one server-side Client per remote node
// name, so a node never re-imports its own lemmas and every import is an
// incremental cursor walk, never a full scan.
//
// A NetClient must never stall the engine that owns it: publishes are
// batched and flushed opportunistically, import polls are rate-limited,
// and any transport failure silently disables the exchange for a backoff
// period — lemma sharing is an accelerator, losing it must never lose a
// solve.
package exchange

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// Wire bodies of the relay protocol (JSON).
type wirePublish struct {
	// Node identifies the publishing engine; the relay allocates one
	// server-side client (and thus one owner id + cursor set) per node.
	Node string `json:"node"`
	// Clauses are the published clauses, DIMACS convention.
	Clauses [][]int `json:"clauses"`
}

type wirePublishResponse struct {
	// Accepted counts clauses the store took (not duplicates, not capped).
	Accepted int `json:"accepted"`
}

type wireImport struct {
	// Clauses are peers' clauses unseen by the polling node.
	Clauses [][]int `json:"clauses"`
}

// Relay serves one Exchange over HTTP. Mount it at a URL of the
// coordinator; the corresponding NetClients get that URL.
//
//	POST <url>  body wirePublish   → wirePublishResponse
//	GET  <url>?node=N              → wireImport
type Relay struct {
	ex *Exchange

	mu    sync.Mutex
	nodes map[string]*Client

	relayedMu sync.Mutex
	relayed   int64
}

// NewRelay builds a relay over a fresh store.
func NewRelay() *Relay { return newRelay(New()) }

func newRelay(ex *Exchange) *Relay {
	return &Relay{ex: ex, nodes: map[string]*Client{}}
}

// Exchange returns the underlying store (counters, Len).
func (r *Relay) Exchange() *Exchange { return r.ex }

// LemmasRelayed counts clauses delivered to import polls — lemmas that
// actually crossed nodes, as opposed to merely being stored.
func (r *Relay) LemmasRelayed() int64 {
	r.relayedMu.Lock()
	defer r.relayedMu.Unlock()
	return r.relayed
}

// client returns the server-side client of a node, creating it on first
// use. Client methods are not concurrency-safe, so all calls stay under
// r.mu — relay traffic is small batches, the critical sections are short.
func (r *Relay) client(node string) *Client {
	c, ok := r.nodes[node]
	if !ok {
		c = r.ex.NewClient()
		r.nodes[node] = c
	}
	return c
}

// ServeHTTP implements the relay protocol.
func (r *Relay) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		var body wirePublish
		if err := json.NewDecoder(io.LimitReader(req.Body, 4<<20)).Decode(&body); err != nil {
			http.Error(w, "exchange: bad publish body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if body.Node == "" {
			http.Error(w, "exchange: publish without node", http.StatusBadRequest)
			return
		}
		accepted := 0
		r.mu.Lock()
		c := r.client(body.Node)
		for _, cl := range body.Clauses {
			if c.Publish(cl) {
				accepted++
			}
		}
		r.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wirePublishResponse{Accepted: accepted})
	case http.MethodGet:
		node := req.URL.Query().Get("node")
		if node == "" {
			http.Error(w, "exchange: import without node", http.StatusBadRequest)
			return
		}
		r.mu.Lock()
		clauses := r.client(node).Import()
		r.mu.Unlock()
		if n := len(clauses); n > 0 {
			r.relayedMu.Lock()
			r.relayed += int64(n)
			r.relayedMu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wireImport{Clauses: clauses})
	default:
		http.Error(w, "exchange: POST to publish, GET to import", http.StatusMethodNotAllowed)
	}
}

const (
	// netTimeout bounds every relay request: the relay must never wedge an
	// engine iteration.
	netTimeout = 2 * time.Second
	// pollInterval is the minimum gap between import polls; the engine
	// calls Import every lazy-loop iteration, which can be far more often
	// than new lemmas appear.
	pollInterval = 25 * time.Millisecond
	// publishBatch flushes the publish buffer when it reaches this many
	// clauses. Import also flushes whatever is pending first, so lemmas
	// never sit in the buffer across a poll.
	publishBatch = 4
	// failBackoff silences the exchange after a transport failure: a dead
	// relay costs one timeout, not one per call.
	failBackoff = time.Second
)

// NetClient is one remote engine's handle on a Relay. It implements
// core.LemmaExchange and, like the in-process Client, must not be used
// from more than one goroutine at a time.
type NetClient struct {
	url  string
	node string
	http *http.Client
	// poll, batch and backoff are pollInterval, publishBatch and
	// failBackoff (a poll ≤ 0 polls on every call), and now is the clock;
	// tests override them.
	poll    time.Duration
	batch   int
	backoff time.Duration
	now     func() time.Time

	buf       [][]int
	lastPoll  time.Time
	polled    bool
	failUntil time.Time
}

// NewNetClient attaches to the relay at url as the given node. Node names
// identify import cursors and publish ownership server-side: every engine
// needs its own, and reusing a name resumes its cursor.
func NewNetClient(url, node string) *NetClient {
	return &NetClient{
		url: url, node: node,
		http: &http.Client{Timeout: netTimeout},
		poll: pollInterval, batch: publishBatch, backoff: failBackoff,
		now: time.Now,
	}
}

// Publish buffers the clause for the next flush and reports acceptance
// into the buffer (the network answer arrives later; a clause the store
// then rejects as duplicate or capped is silently dropped — exactly what
// the engine would do with the rejection).
func (c *NetClient) Publish(clause []int) bool {
	if len(clause) == 0 || c.down() {
		return false
	}
	c.buf = append(c.buf, append([]int(nil), clause...))
	if len(c.buf) >= c.batch {
		c.Flush()
	}
	return true
}

// Import flushes pending publishes, then polls the relay for peers'
// clauses — at most once per poll interval; throttled calls return nil.
func (c *NetClient) Import() [][]int {
	c.Flush()
	if c.down() {
		return nil
	}
	now := c.now()
	if c.polled && c.poll > 0 && now.Sub(c.lastPoll) < c.poll {
		return nil
	}
	c.lastPoll = now
	c.polled = true

	resp, err := c.http.Get(c.url + "?node=" + c.node)
	if err != nil {
		c.fail()
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		c.fail()
		return nil
	}
	var body wireImport
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&body); err != nil {
		c.fail()
		return nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return body.Clauses
}

// Flush posts the buffered clauses to the relay. Safe to call any time;
// the engine's owner calls it after the solve so trailing lemmas still
// reach peers working on sibling cubes.
func (c *NetClient) Flush() {
	if len(c.buf) == 0 || c.down() {
		c.buf = c.buf[:0]
		return
	}
	payload, err := json.Marshal(wirePublish{Node: c.node, Clauses: c.buf})
	c.buf = c.buf[:0]
	if err != nil {
		return
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		c.fail()
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		c.fail()
	}
}

func (c *NetClient) down() bool {
	return !c.failUntil.IsZero() && c.now().Before(c.failUntil)
}

func (c *NetClient) fail() {
	c.failUntil = c.now().Add(c.backoff)
}
