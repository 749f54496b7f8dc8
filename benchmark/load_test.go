package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A stall of one request must count against every request that was due
// while it lasted, not only against the stalled one.
func TestOpenLoopTimesFromDueTimeUnderStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	do := func(client int, _ point) bool {
		if client == 0 && calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return true
	}
	// Client 0 is due every 20 ms, client 1 in between.
	res := openLoop(newKeyStream(1, "test", 0), openSchedule{rate: 100, d: 400 * time.Millisecond}, do)
	if len(res.latency) != 40 || len(res.late) != 40 {
		t.Fatalf("timed %d requests, want 40", len(res.latency))
	}
	// Client 0's requests due at 0, 20, …, 100 ms waited until the stall
	// ended at 200 ms, so at least six take 100 ms or more from their due
	// time; timed from their send, only the stalled one would.
	slow := 0
	for _, l := range res.latency {
		if l >= 100 {
			slow++
		}
	}
	if slow < 6 {
		t.Errorf("%d requests took ≥ 100 ms from their due time, want ≥ 6 (latencies %v)", slow, res.latency)
	}
	maxLate := 0.0
	for _, l := range res.late {
		maxLate = max(maxLate, l)
	}
	if maxLate < 150 {
		t.Errorf("generator ran at most %.1f ms late, want ≥ 150 ms behind the stall", maxLate)
	}
}

// Requests are spaced 1/rate apart, alternating between the clients.
func TestOpenScheduleSpacesRequests(t *testing.T) {
	s := openSchedule{rate: 150, d: time.Second}
	prev := time.Duration(-1)
	for i := 0; i < 10; i++ {
		for c := 0; c < clients; c++ {
			due := s.due(c, i)
			if gap := ms(due - prev); prev >= 0 && (gap < 6.66 || gap > 6.67) {
				t.Fatalf("client %d slot %d due %v after the request before it, want 1/150 s", c, i, due-prev)
			}
			prev = due
		}
	}
}

// Each window's median is taken over the values timed in it, wherever
// they sit in the slices; an empty window yields no median.
func TestWindowMedians(t *testing.T) {
	at := []time.Duration{0, 1100 * time.Millisecond, 100 * time.Millisecond, 1200 * time.Millisecond, 200 * time.Millisecond}
	got := windowMedians(at, []float64{1, 10, 3, 20, 2}, 500*time.Millisecond)
	if len(got) != 2 || got[0] != 2 || got[1] != 15 {
		t.Errorf("window medians %v, want [2 15]", got)
	}
}

// The open loop's pacing must be finer than a query's time (~5 ms);
// time.Sleep's median oversleep here is ~0.55 ms.
func TestSleepUntilIsPrecise(t *testing.T) {
	var over []float64
	start := time.Now()
	for i := 1; i <= 100; i++ {
		due := start.Add(time.Duration(i) * time.Millisecond)
		sleepUntil(due)
		over = append(over, ms(time.Since(due)))
	}
	if m := median(over); m < 0 || m > 0.35 {
		t.Errorf("median oversleep %.3f ms, want under 0.35 ms", m)
	}
}

func TestClosedLoopWaitsForEachAnswer(t *testing.T) {
	var inFlight, peak atomic.Int64
	do := func(int, point) bool {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return true
	}
	res := closedLoop(newKeyStream(1, "test", 0), 500*time.Millisecond, do)
	if peak.Load() > clients {
		t.Errorf("%d requests in flight at once, want at most %d", peak.Load(), clients)
	}
	// Two clients at ≥ 5 ms a request complete at most 400 per second.
	qps := median(res.rates)
	if res.failed != 0 || res.sent < 50 || len(res.rates) != 5 || qps <= 0 || qps > 400 {
		t.Errorf("closed loop: %d sent, %d failed, rates %v", res.sent, res.failed, res.rates)
	}
	if len(res.latency) != res.sent || len(res.at) != res.sent {
		t.Fatalf("%d latencies and %d times for %d requests", len(res.latency), len(res.at), res.sent)
	}
	for _, l := range res.latency {
		if l < 5 {
			t.Fatalf("a request timed %.2f ms, less than the 5 ms it slept", l)
		}
	}
}
