package exchange

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestCanon(t *testing.T) {
	cases := []struct {
		in   []int
		want []int
	}{
		{[]int{3, -1, 2}, []int{-1, 2, 3}},
		{[]int{5, 5, -5}, []int{-5, 5}},
		{[]int{1}, []int{1}},
		{[]int{2, 1, 2, 1}, []int{1, 2}},
		{nil, []int{}},
	}
	for _, c := range cases {
		got, key := Canon(c.in)
		if !reflect.DeepEqual(append([]int{}, got...), c.want) {
			t.Errorf("Canon(%v) = %v, want %v", c.in, got, c.want)
		}
		_, key2 := Canon(c.want)
		if key != key2 {
			t.Errorf("Canon(%v) key %q differs from canonical form's key %q", c.in, key, key2)
		}
	}
	// Distinct literal sets must have distinct keys — in particular the
	// textual-concatenation trap: {1, 12} vs {11, 2}.
	_, k1 := Canon([]int{1, 12})
	_, k2 := Canon([]int{11, 2})
	if k1 == k2 {
		t.Errorf("key collision between {1,12} and {11,2}: %q", k1)
	}
	_, k3 := Canon([]int{1, -2})
	_, k4 := Canon([]int{1, 2})
	if k3 == k4 {
		t.Errorf("key collision between {1,-2} and {1,2}")
	}
}

// TestPublishImportBasics covers dedup, self-skip and incremental cursors
// on a single-threaded schedule.
func TestPublishImportBasics(t *testing.T) {
	ex := New()
	a, b := ex.NewClient(), ex.NewClient()

	if !a.Publish([]int{2, -1}) {
		t.Fatal("first publish rejected")
	}
	if a.Publish([]int{-1, 2}) {
		t.Fatal("equivalent clause (reordered) accepted twice")
	}
	if got := ex.Stats().Deduped; got != 1 {
		t.Fatalf("deduped = %d, want 1", got)
	}

	// The publisher never re-imports its own clause.
	if got := a.Import(); got != nil {
		t.Fatalf("a imported its own clause: %v", got)
	}
	// The peer sees it exactly once.
	got := b.Import()
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{-1, 2}) {
		t.Fatalf("b.Import() = %v, want [[-1 2]]", got)
	}
	if again := b.Import(); again != nil {
		t.Fatalf("second Import re-delivered: %v", again)
	}

	// New clauses published later reach the cursor incrementally.
	b.Publish([]int{7})
	got = a.Import()
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{7}) {
		t.Fatalf("a.Import() = %v, want [[7]]", got)
	}
}

func TestCaps(t *testing.T) {
	ex := newExchange(3, 2)
	c := ex.NewClient()
	if c.Publish([]int{1, 2, 3}) {
		t.Fatal("over-length clause accepted")
	}
	if c.Publish(nil) {
		t.Fatal("empty clause accepted")
	}
	for i := 1; i <= 3; i++ {
		if !c.Publish([]int{i}) {
			t.Fatalf("publish %d rejected below cap", i)
		}
	}
	if c.Publish([]int{99}) {
		t.Fatal("publish accepted beyond the size cap")
	}
	st := ex.Stats()
	if st.Published != 3 || st.Dropped != 3 {
		t.Fatalf("stats = %+v, want Published=3 Dropped=3", st)
	}
	if ex.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ex.Len())
	}
}

// TestStressRandomSchedules is the -race stress test: N clients hammer the
// store with randomized interleavings of publishes and imports, then every
// invariant is checked:
//
//   - a client never imports a clause it published itself;
//   - every imported clause is the canonical form of some published clause;
//   - no clause is imported twice by the same client;
//   - the store never exceeds its size cap.
func TestStressRandomSchedules(t *testing.T) {
	const (
		clients  = 8
		rounds   = 400
		maxLemma = 1 << 10
	)
	ex := newExchange(maxLemma, 8)

	type report struct {
		id        int
		published map[string]bool
		imported  map[string]int
	}
	var wg sync.WaitGroup
	reports := make([]report, clients)
	for id := 0; id < clients; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			c := ex.NewClient()
			rep := report{id: id, published: map[string]bool{}, imported: map[string]int{}}
			for r := 0; r < rounds; r++ {
				switch rng.Intn(3) {
				case 0, 1: // publish (biased: stores fill from publishes)
					n := 1 + rng.Intn(5)
					cl := make([]int, n)
					for i := range cl {
						cl[i] = rng.Intn(60) - 30
						if cl[i] >= 0 {
							cl[i]++ // no zero literals
						}
					}
					_, key := Canon(cl)
					if c.Publish(cl) {
						rep.published[key] = true
					}
				case 2: // import
					for _, cl := range c.Import() {
						_, key := Canon(cl)
						rep.imported[key]++
					}
				}
			}
			// Final drain so cross-client assertions see a complete view.
			for _, cl := range c.Import() {
				_, key := Canon(cl)
				rep.imported[key]++
			}
			reports[id] = rep
		}()
	}
	wg.Wait()

	if ex.Len() > maxLemma {
		t.Fatalf("store size %d exceeds cap %d", ex.Len(), maxLemma)
	}
	allPublished := map[string]bool{}
	for _, rep := range reports {
		for key := range rep.published {
			allPublished[key] = true
		}
	}
	for _, rep := range reports {
		for key, n := range rep.imported {
			if n > 1 {
				t.Errorf("client %d imported %s %d times", rep.id, key, n)
			}
			if rep.published[key] {
				t.Errorf("client %d imported its own clause %s", rep.id, key)
			}
			if !allPublished[key] {
				t.Errorf("client %d imported a clause nobody published: %s", rep.id, key)
			}
		}
	}
}

// TestConcurrentDedup publishes the same clause set from many goroutines
// and checks each canonical clause is stored at most once.
func TestConcurrentDedup(t *testing.T) {
	ex := New()
	const clients = 6
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := ex.NewClient()
			for i := 0; i < 50; i++ {
				c.Publish([]int{i + 1, -(i + 2)})
				_ = id
			}
		}()
	}
	wg.Wait()
	if ex.Len() != 50 {
		t.Fatalf("Len = %d, want 50 (one per distinct clause)", ex.Len())
	}
	st := ex.Stats()
	if st.Published != 50 || st.Published+st.Deduped != clients*50 {
		t.Fatalf("stats = %+v, want 50 published out of %d attempts", st, clients*50)
	}
	// A late subscriber sees all 50 exactly once.
	late := ex.NewClient()
	seen := map[string]bool{}
	for _, cl := range late.Import() {
		_, key := Canon(cl)
		if seen[key] {
			t.Fatalf("duplicate delivery of %v", cl)
		}
		seen[key] = true
	}
	if len(seen) != 50 {
		t.Fatalf("late subscriber saw %d clauses, want 50", len(seen))
	}
}

func TestShardDistribution(t *testing.T) {
	// Not a statistical test — just pins that shardOf stays in range and
	// uses more than one shard over a spread of keys.
	used := map[int]bool{}
	for i := 0; i < 200; i++ {
		_, key := Canon([]int{i + 1, -(i + 3)})
		s := shardOf(key, 16)
		if s < 0 || s >= 16 {
			t.Fatalf("shardOf out of range: %d", s)
		}
		used[s] = true
	}
	if len(used) < 2 {
		t.Fatalf("all keys landed in %d shard(s)", len(used))
	}
	_ = fmt.Sprint(used)
}

// TestMaxLemmasNeverOvershot is the regression pin for the lock-free cap
// check: concurrent publishers of distinct clauses race against a tiny
// size cap while observers sample Len. With the old load-then-insert
// scheme several publishers could pass the cap check together and push the
// store past the cap; the reservation scheme must keep Len ≤ cap at every
// instant, and exactly at the cap once the dust settles.
func TestMaxLemmasNeverOvershot(t *testing.T) {
	const (
		cap        = 32
		publishers = 8
		perPub     = 200
	)
	ex := newExchange(cap, maxClauseLen)

	stop := make(chan struct{})
	var overshoot sync.Once
	var overshot int
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := ex.Len(); n > cap {
				overshoot.Do(func() { overshot = n })
			}
		}
	}()

	var wg sync.WaitGroup
	for id := 0; id < publishers; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := ex.NewClient()
			for i := 0; i < perPub; i++ {
				// Distinct clauses per publisher and iteration: every
				// accepted publish consumes a fresh slot.
				c.Publish([]int{id*perPub + i + 1, -(id*perPub + i + 2)})
			}
		}()
	}
	wg.Wait()
	close(stop)

	if overshot > 0 {
		t.Fatalf("observed Len = %d > cap %d mid-run", overshot, cap)
	}
	if got := ex.Len(); got != cap {
		t.Fatalf("final Len = %d, want exactly %d", got, cap)
	}
	st := ex.Stats()
	if st.Published != cap {
		t.Fatalf("published = %d, want %d", st.Published, cap)
	}
	if st.Dropped != publishers*perPub-cap {
		t.Fatalf("dropped = %d, want %d", st.Dropped, publishers*perPub-cap)
	}
}

// TestCapReleaseOnDuplicate: a reservation released on a duplicate must
// not eat into the cap — distinct clauses published afterwards still fit.
func TestCapReleaseOnDuplicate(t *testing.T) {
	ex := newExchange(2, maxClauseLen)
	c := ex.NewClient()
	if !c.Publish([]int{1, 2}) {
		t.Fatal("first publish rejected")
	}
	if c.Publish([]int{2, 1}) {
		t.Fatal("duplicate accepted")
	}
	if !c.Publish([]int{3, 4}) {
		t.Fatal("slot lost to a duplicate's released reservation")
	}
	if c.Publish([]int{5, 6}) {
		t.Fatal("publish beyond the cap accepted")
	}
	if got := ex.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}
