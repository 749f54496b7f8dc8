package main

import (
	"reflect"
	"testing"
)

func draw(k *keyStream, n int) []slot {
	out := make([]slot, n)
	for i := range out {
		out[i] = k.slot(i)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(newFlowInputs(7), newFlowInputs(7)) {
		t.Error("design-flow inputs differ for the same seed")
	}
	if reflect.DeepEqual(newFlowInputs(7), newFlowInputs(8)) {
		t.Error("design-flow inputs identical for different seeds")
	}
	a := draw(newKeyStream(7, "open", 1), 500)
	b := draw(newKeyStream(7, "open", 1), 500)
	c := draw(newKeyStream(8, "open", 1), 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("query keys differ for the same seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("query keys identical for different seeds")
	}
}

// A client's i-th key must not depend on the order the clients ask in.
func TestKeyStreamIsOrderFree(t *testing.T) {
	fwd, rev := newKeyStream(5, "closed", 0), newKeyStream(5, "closed", 0)
	for i := 0; i < 50; i++ {
		fwd.key(0, i)
	}
	for i := 49; i >= 0; i-- {
		if rev.key(1, i) != fwd.key(1, i) {
			t.Fatalf("client 1's key %d depends on the order keys were asked for", i)
		}
	}
}

// query_unique must never hit vcseld's cache: no key may repeat within or
// across the phases of its daemons.
func TestQueryPhasesAreDisjoint(t *testing.T) {
	seen := make(map[point]string)
	for _, phase := range []string{"warmup", "probe", "closed", "open"} {
		for i := 0; i < queryDaemons; i++ {
			for _, s := range draw(newKeyStream(3, phase, i), 5000) {
				for _, p := range s {
					if prev, ok := seen[p]; ok {
						t.Fatalf("key %+v drawn in %s/%d and again in %s", p, phase, i, prev)
					}
					seen[p] = phase
				}
			}
		}
	}
}
