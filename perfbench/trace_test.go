package main

import (
	"context"
	"reflect"
	"testing"
)

// TestTracedMatchesUntraced solves the head of each engine workload's
// deck at the default seed with and without the timing decorators and
// requires the same verdicts and engine counters. A decorator that hid
// one of the optional solver interfaces the engine looks for would
// change its search, and so its counters. steering-nl's head holds Car
// steering, which takes about ten seconds per solve; -short skips it.
func TestTracedMatchesUntraced(t *testing.T) {
	heads := map[string]int{"fischer-lp": 12, "sudoku-sat": 12, "steering-nl": 60}
	for name, n := range heads {
		d, _, err := workloads[name](defaultSeed)
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		for i := 0; i < n; i++ {
			if testing.Short() && d.names[i] == "Car steering" {
				continue
			}
			plain := d.run(context.Background(), i, false)
			traced := d.run(context.Background(), i, true)
			if plain.res.Status != traced.res.Status {
				t.Errorf("%s %s: verdict %v untraced, %v traced", name, d.names[i], plain.res.Status, traced.res.Status)
			}
			if a, b := plain.res.Stats.Counters(), traced.res.Stats.Counters(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s %s: counters differ\nuntraced %v\ntraced   %v", name, d.names[i], a, b)
			}
			if traced.layers.satCalls == 0 {
				t.Errorf("%s %s: the Boolean decorator saw no calls", name, d.names[i])
			}
		}
	}
}
