package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// clients is the number of load goroutines, each with its own connection
// (the box has two CPUs, shared with vcseld).
const clients = 2

// doFunc sends one request and reports whether it succeeded with a
// correct answer.
type doFunc func(client int, key point) bool

// rateWindow is the bucket closed-loop throughput is counted in, and
// latencyWindow the bucket of completion times each closed-loop latency
// median is taken over. Summarising per window, then across windows,
// keeps a stall of a second or two inside the few windows it hits.
const (
	rateWindow    = 100 * time.Millisecond
	latencyWindow = 500 * time.Millisecond
)

// closedResult is one closed-loop phase.
type closedResult struct {
	// rates are the completed requests per second of every whole
	// rateWindow of the phase.
	rates []float64
	// at and latency are each request's completion time from the phase
	// start and its time from send to answer (ms; +Inf on failure).
	at           []time.Duration
	latency      []float64
	sent, failed int
}

// closedLoop runs each client back to back — the next request only after
// the previous answer — for d.
func closedLoop(keys *keyStream, d time.Duration, do doFunc) closedResult {
	start := time.Now()
	deadline := start.Add(d)
	buckets := make([]int, d/rateWindow)
	var mu sync.Mutex
	var res closedResult
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var r closedResult
			for i := 0; time.Now().Before(deadline); i++ {
				sent := time.Now()
				ok := do(c, keys.key(c, i))
				at := time.Since(start)
				l := ms(at - sent.Sub(start))
				if !ok {
					l = math.Inf(1)
					r.failed++
				}
				r.at = append(r.at, at)
				r.latency = append(r.latency, l)
			}
			mu.Lock()
			defer mu.Unlock()
			res.at = append(res.at, r.at...)
			res.latency = append(res.latency, r.latency...)
			res.sent += len(r.at)
			res.failed += r.failed
			for i, at := range r.at {
				if b := int(at / rateWindow); b < len(buckets) && !math.IsInf(r.latency[i], 1) {
					buckets[b]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, n := range buckets {
		res.rates = append(res.rates, float64(n)/rateWindow.Seconds())
	}
	return res
}

// windowMedians returns the median of the values whose times fall in each
// window of length w.
func windowMedians(at []time.Duration, xs []float64, w time.Duration) []float64 {
	var byWindow [][]float64
	for i, t := range at {
		k := int(t / w)
		for len(byWindow) <= k {
			byWindow = append(byWindow, nil)
		}
		byWindow[k] = append(byWindow[k], xs[i])
	}
	var out []float64
	for _, ys := range byWindow {
		if len(ys) > 0 {
			out = append(out, median(ys))
		}
	}
	return out
}

// openSchedule is a fixed-rate arrival schedule: slot i is due at
// i×clients/rate and client c's request in it at c/rate after that, so
// requests are evenly spaced 1/rate apart.
type openSchedule struct {
	rate float64
	d    time.Duration
}

func (s openSchedule) due(client, i int) time.Duration {
	t := float64(i*clients+client) / s.rate
	return time.Duration(t * float64(time.Second))
}

// openResult holds one open-loop phase's per-request timings.
type openResult struct {
	latency []float64 // ms from the due time to the answer; +Inf on failure
	late    []float64 // ms from the due time to the send
	failed  int
}

// openLoop sends on the schedule regardless of answers. Each request is
// timed from when it was due, so a stall also counts against every
// request that was due while it lasted.
func openLoop(keys *keyStream, s openSchedule, do doFunc) openResult {
	start := time.Now()
	var mu sync.Mutex
	var res openResult
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var r openResult
			for i := 0; ; i++ {
				off := s.due(c, i)
				if off >= s.d {
					break
				}
				due := start.Add(off)
				sleepUntil(due)
				sent := time.Now()
				ok := do(c, keys.key(c, i))
				l := ms(time.Since(due))
				if !ok {
					l = math.Inf(1)
					r.failed++
				}
				r.latency = append(r.latency, l)
				r.late = append(r.late, ms(sent.Sub(due)))
			}
			mu.Lock()
			res.latency = append(res.latency, r.latency...)
			res.late = append(res.late, r.late...)
			res.failed += r.failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// would wake through the Go netpoller, whose Linux timeout counts whole
// milliseconds, and oversleep by 0.1–1 ms (median ~0.55 ms), a tenth of a
// query's time; nanosleep oversleeps by the kernel's timer slack, ~60 µs.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// answer is the numeric part of a /v1/gradient answer.
type answer struct {
	MeanONITemp  float64 `json:"mean_oni_temp"`
	MeanGradient float64 `json:"mean_gradient"`
	MaxGradient  float64 `json:"max_gradient"`
	Feasible     bool    `json:"feasible"`
	ChipMax      float64 `json:"chip_max"`
	ChipAvg      float64 `json:"chip_avg"`
}

// sentRequest is one traced request, joined later with vcseld's own trace
// of it.
type sentRequest struct {
	traceID    string
	spanID     string
	start, end time.Time
}

// queryClient sends gradient queries over at most `clients` connections.
type queryClient struct {
	http *http.Client
	url  string
	tr   *tracer // nil when untraced

	mu   sync.Mutex
	sent []sentRequest
}

func newQueryClient(base string, tr *tracer) *queryClient {
	t := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &queryClient{http: &http.Client{Transport: t, Timeout: 30 * time.Second}, url: base + "/v1/gradient", tr: tr}
}

func (q *queryClient) close() { q.http.CloseIdleConnections() }

// query sends one gradient query. With a tracer it tags the request with
// a fresh X-Trace-ID and records a client span for it.
func (q *queryClient) query(p point) (answer, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return answer{}, err
	}
	req, err := http.NewRequest(http.MethodPost, q.url, bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	var traceID string
	if q.tr != nil {
		traceID = q.tr.id()
		req.Header.Set("X-Trace-ID", traceID)
	}
	start := time.Now()
	resp, err := q.http.Do(req)
	if err != nil {
		return answer{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if q.tr != nil {
		spanID := q.tr.add(traceID, "", "http.request", start, end)
		q.mu.Lock()
		q.sent = append(q.sent, sentRequest{traceID: traceID, spanID: spanID, start: start, end: end})
		q.mu.Unlock()
	}
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("gradient %+v: HTTP %d: %s", p, resp.StatusCode, bytes.TrimSpace(b))
	}
	var a answer
	if err := json.Unmarshal(b, &a); err != nil {
		return answer{}, fmt.Errorf("gradient %+v: %w", p, err)
	}
	return a, nil
}
