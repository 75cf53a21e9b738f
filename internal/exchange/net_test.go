package exchange

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// netPair returns a relay served over httptest plus a NetClient factory
// with throttling disabled (every Import polls).
func netPair(t *testing.T) (*Relay, *httptest.Server, func(node string) *NetClient) {
	t.Helper()
	relay := NewRelay()
	srv := httptest.NewServer(relay)
	t.Cleanup(srv.Close)
	mk := func(node string) *NetClient { return eagerClient(srv.URL, node) }
	return relay, srv, mk
}

// eagerClient returns a NetClient that polls on every Import and flushes
// every Publish.
func eagerClient(url, node string) *NetClient {
	c := NewNetClient(url, node)
	c.poll, c.batch = 0, 1
	return c
}

// TestNetRoundTrip: a clause published by one node reaches the other, and
// owner-skip keeps it away from its publisher.
func TestNetRoundTrip(t *testing.T) {
	relay, _, mk := netPair(t)
	a, b := mk("a"), mk("b")

	if !a.Publish([]int{3, -1}) {
		t.Fatal("publish rejected")
	}
	got := b.Import()
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{-1, 3}) {
		t.Fatalf("b imported %v, want canonical [-1 3]", got)
	}
	if own := a.Import(); len(own) != 0 {
		t.Fatalf("a re-imported its own clause: %v", own)
	}
	// Incremental cursor: nothing new on a second poll.
	if again := b.Import(); len(again) != 0 {
		t.Fatalf("b re-imported on second poll: %v", again)
	}
	if relay.LemmasRelayed() != 1 {
		t.Fatalf("relayed = %d, want 1", relay.LemmasRelayed())
	}
}

// TestNetDedupAndCaps: the relay reuses the store's canonicalisation and
// caps unchanged.
func TestNetDedupAndCaps(t *testing.T) {
	relay := newRelay(newExchange(2, 2))
	srv := httptest.NewServer(relay)
	defer srv.Close()
	a := eagerClient(srv.URL, "a")

	a.Publish([]int{1, 2})
	a.Publish([]int{2, 1})    // duplicate
	a.Publish([]int{1, 2, 3}) // over the length cap
	a.Publish([]int{3, 4})
	a.Publish([]int{5, 6}) // over the size cap
	if got := relay.Exchange().Len(); got != 2 {
		t.Fatalf("store Len = %d, want 2", got)
	}
	st := relay.Exchange().Stats()
	if st.Published != 2 || st.Deduped != 1 || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestNetPublishBatching: with a publish batch of 3, two publishes stay
// buffered until the third (or a Flush / Import) pushes them out.
func TestNetPublishBatching(t *testing.T) {
	relay, _, _ := netPair(t)
	srv := httptest.NewServer(relay)
	defer srv.Close()
	a := eagerClient(srv.URL, "a")
	a.batch = 3

	a.Publish([]int{1, 2})
	a.Publish([]int{3, 4})
	if got := relay.Exchange().Len(); got != 0 {
		t.Fatalf("store Len = %d before batch full, want 0", got)
	}
	a.Publish([]int{5, 6})
	if got := relay.Exchange().Len(); got != 3 {
		t.Fatalf("store Len = %d after batch flush, want 3", got)
	}
	a.Publish([]int{7, 8})
	a.Flush()
	if got := relay.Exchange().Len(); got != 4 {
		t.Fatalf("store Len = %d after explicit Flush, want 4", got)
	}
}

// TestNetPollThrottle: Import respects the poll interval using an injected
// clock — the second call inside the window returns nil without touching
// the relay.
func TestNetPollThrottle(t *testing.T) {
	relay, srv, _ := netPair(t)
	now := time.Unix(1000, 0)
	c := NewNetClient(srv.URL, "poller")
	c.poll = 50 * time.Millisecond
	c.now = func() time.Time { return now }
	other := eagerClient(srv.URL, "other")

	other.Publish([]int{1, 2})
	if got := c.Import(); len(got) != 1 {
		t.Fatalf("first Import got %v, want the clause", got)
	}
	other.Publish([]int{3, 4})
	if got := c.Import(); got != nil {
		t.Fatalf("throttled Import returned %v, want nil", got)
	}
	now = now.Add(60 * time.Millisecond)
	if got := c.Import(); len(got) != 1 {
		t.Fatalf("post-window Import got %v, want the new clause", got)
	}
	_ = relay
}

// TestNetTransportFailure: a dead relay must not wedge or panic the
// client; after the backoff the client recovers.
func TestNetTransportFailure(t *testing.T) {
	relay := NewRelay()
	srv := httptest.NewServer(relay)
	now := time.Unix(2000, 0)
	c := eagerClient(srv.URL, "a")
	c.backoff = 100 * time.Millisecond
	c.now = func() time.Time { return now }
	b := eagerClient(srv.URL, "b")

	srv.Close() // relay gone
	c.Publish([]int{1, 2})
	if got := c.Import(); got != nil {
		t.Fatalf("Import against a dead relay returned %v", got)
	}
	// Inside the backoff window every call is a cheap no-op.
	if c.Publish([]int{3, 4}) {
		t.Fatal("publish accepted while backed off")
	}
	// The relay itself still works for others via a new server.
	srv2 := httptest.NewServer(relay)
	defer srv2.Close()
	c2 := eagerClient(srv2.URL, "a2")
	c2.Publish([]int{5, 6})
	if got := b2len(relay); got != 1 {
		t.Fatalf("store Len = %d, want 1", got)
	}
	_ = b
	now = now.Add(time.Second) // backoff long expired; c points at the dead URL though
}

func b2len(r *Relay) int { return r.Exchange().Len() }

func httpBody(s string) *strings.Reader { return strings.NewReader(s) }

// TestNetBadRequests: protocol misuse answers 4xx and never touches the
// store.
func TestNetBadRequests(t *testing.T) {
	relay, srv, _ := netPair(t)
	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{http.MethodGet, srv.URL, "", http.StatusBadRequest},                   // no node
		{http.MethodPost, srv.URL, "{", http.StatusBadRequest},                 // bad JSON
		{http.MethodPost, srv.URL, `{"clauses":[[1]]}`, http.StatusBadRequest}, // no node
		{http.MethodDelete, srv.URL, "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, tc.url, nil)
		if tc.body != "" {
			req, _ = http.NewRequest(tc.method, tc.url, httpBody(tc.body))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
	}
	if relay.Exchange().Len() != 0 {
		t.Fatalf("bad requests mutated the store: Len = %d", relay.Exchange().Len())
	}
}

// TestNetConcurrentNodes drives many NetClients against one relay under
// the race detector: every node must end up seeing every other node's
// clauses exactly once.
func TestNetConcurrentNodes(t *testing.T) {
	_, _, mk := netPair(t)
	const nodes = 4
	const perNode = 20

	var wg sync.WaitGroup
	results := make([]map[string]int, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mk(string(rune('a' + n)))
			seen := map[string]int{}
			for i := 0; i < perNode; i++ {
				c.Publish([]int{n*perNode + i + 1, -(n*perNode + i + 2)})
				for _, cl := range c.Import() {
					_, key := Canon(cl)
					seen[key]++
				}
			}
			// Drain what is left after everyone published.
			deadline := time.Now().Add(2 * time.Second)
			for len(seen) < (nodes-1)*perNode && time.Now().Before(deadline) {
				for _, cl := range c.Import() {
					_, key := Canon(cl)
					seen[key]++
				}
			}
			results[n] = seen
		}()
	}
	wg.Wait()
	for n, seen := range results {
		if len(seen) != (nodes-1)*perNode {
			t.Fatalf("node %d saw %d peer clauses, want %d", n, len(seen), (nodes-1)*perNode)
		}
		for key, count := range seen {
			if count != 1 {
				t.Fatalf("node %d saw %s %d times", n, key, count)
			}
		}
	}
}
