package main

import (
	"encoding/json"
	"testing"
	"time"

	"vcselnoc/internal/loadreport"
	"vcselnoc/internal/serve"
)

// TestBodyDeterministicPool: uniform bodies cycle a fixed pool and the
// same (worker, i) always produces the same operating point.
func TestBodyDeterministicPool(t *testing.T) {
	g := &generator{shape: "uniform", points: 8, start: time.Now()}
	a := g.body(2, 5)
	b := g.body(2, 5)
	if string(a) != string(b) {
		t.Fatalf("body not deterministic: %s vs %s", a, b)
	}
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		var sc serve.Scenario
		if err := json.Unmarshal(g.body(0, i), &sc); err != nil {
			t.Fatal(err)
		}
		if sc.Chip < 20 || sc.PVCSEL <= 0 {
			t.Fatalf("implausible operating point: %+v", sc)
		}
		seen[string(g.body(0, i))] = true
	}
	if len(seen) > g.points {
		t.Fatalf("uniform pool produced %d distinct points, cap %d", len(seen), g.points)
	}
}

// TestBodyHotkeyRotates: within one rotation epoch all hot requests share
// one body; across epochs the hot point changes (each epoch is cold).
func TestBodyHotkeyRotates(t *testing.T) {
	g := &generator{shape: "hotkey", points: 8, hotFraction: 1.0, hotRotate: 50 * time.Millisecond, start: time.Now()}
	a := g.body(0, 0)
	b := g.body(7, 3)
	if string(a) != string(b) {
		t.Fatalf("hot requests in one epoch differ: %s vs %s", a, b)
	}
	time.Sleep(60 * time.Millisecond)
	c := g.body(0, 0)
	if string(a) == string(c) {
		t.Fatal("hot point did not rotate across epochs")
	}
}

// TestCheckExpectTokens pins the CI assertion surface.
func TestCheckExpectTokens(t *testing.T) {
	clean := loadreport.Report{Shed: 0, Err5xx: 0}
	if p := check(clean, "no5xx,noshed"); len(p) != 0 {
		t.Fatalf("clean run: %v", p)
	}
	overloaded := loadreport.Report{Shed: 10}
	if p := check(overloaded, "no5xx,shed"); len(p) != 0 {
		t.Fatalf("overloaded run: %v", p)
	}
	if p := check(clean, "shed"); len(p) != 1 {
		t.Fatalf("shed on clean run should fail: %v", p)
	}
	if p := check(overloaded, "noshed"); len(p) != 1 {
		t.Fatalf("noshed on overloaded run should fail: %v", p)
	}
	if p := check(loadreport.Report{Err5xx: 1}, "no5xx"); len(p) != 1 {
		t.Fatalf("no5xx with errors should fail: %v", p)
	}
	if p := check(clean, "bogus"); len(p) != 1 {
		t.Fatalf("unknown token should fail: %v", p)
	}
	if p := check(clean, ""); len(p) != 0 {
		t.Fatalf("empty expect: %v", p)
	}
}
