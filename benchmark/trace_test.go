package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{SpanID: "p", Name: "parent", Start: 0, End: 100},
		// Overlapping children count once: [10, 50] covers 40.
		{SpanID: "a", Parent: "p", Name: "child", Start: 10, End: 30},
		{SpanID: "b", Parent: "p", Name: "child", Start: 20, End: 50},
		{SpanID: "c", Parent: "p", Name: "child", Start: 60, End: 70},
		// A child running past its parent is clipped to the parent.
		{SpanID: "d", Parent: "p", Name: "child", Start: 95, End: 120},
		// A grandchild is its parent's business, not the root's.
		{SpanID: "g", Parent: "c", Name: "grandchild", Start: 62, End: 66},
	}
	self := selfTimes(spans)
	for id, want := range map[string]float64{"p": 45, "a": 20, "b": 30, "c": 6, "d": 25, "g": 4} {
		if self[id] != want {
			t.Errorf("self time of %s = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if got := len(byName["child"]); got != 4 {
		t.Errorf("%d child samples, want 4", got)
	}
}
