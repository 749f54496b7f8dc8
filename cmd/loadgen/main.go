// Command loadgen drives a running vcseld with synthetic gradient-query
// traffic and emits a loadreport.Report JSON artifact: latency
// percentiles and histogram, client-observed outcome counts (200 / 429 /
// 5xx), server-side counter deltas (admitted, shed, evaluations, cache
// hits) scraped from /healthz around the run, and the server's own
// latency-histogram delta with the client-vs-server percentile skew —
// how much network and queueing the client pays on top of server time.
//
// Two traffic shapes:
//
//	uniform  every request picks a distinct deterministic operating
//	         point — exercises admission and the basis/query caches
//	         without contention on any one key.
//	hotkey   a -hot-fraction share of requests hit one shared operating
//	         point that rotates every -hot-rotate, so each rotation
//	         epoch opens with a cold concurrent burst on a never-seen
//	         point and is then answered from the query LRU (the rest of
//	         the traffic is uniform).
//
// The -expect flag turns the binary into its own CI assertion: a
// comma-separated list of invariants checked after the run, exiting
// non-zero on violation. Tokens:
//
//	no5xx     no 5xx responses were observed
//	noshed    no 429 responses were observed
//	shed      at least one 429 was observed (the offered rate exceeded
//	          the admit rate, and the server actually defended itself)
//
// Usage (mirrors the CI load job):
//
//	loadgen -url http://127.0.0.1:8080 -shape hotkey -duration 5s \
//	    -concurrency 8 -rate 400 -clients 4 \
//	    -expect no5xx,shed -out load_hotkey.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcselnoc/internal/loadreport"
	"vcselnoc/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	url := flag.String("url", "http://127.0.0.1:8080", "vcseld base URL")
	shape := flag.String("shape", "uniform", "traffic shape: uniform or hotkey")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	concurrency := flag.Int("concurrency", 8, "worker goroutines")
	rate := flag.Float64("rate", 0, "offered queries/sec across all workers (0 = closed loop)")
	hotFraction := flag.Float64("hot-fraction", 0.9, "hotkey shape: share of requests on the hot point")
	hotRotate := flag.Duration("hot-rotate", 250*time.Millisecond, "hotkey shape: rotate the hot point this often (each rotation is a cold key)")
	points := flag.Int("points", 64, "uniform operating-point pool size")
	clients := flag.Int("clients", 4, "distinct X-Client-ID identities")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	expect := flag.String("expect", "", "comma-separated post-run assertions: no5xx, noshed, shed")
	out := flag.String("out", "", "write the report JSON here (\"\" = stdout only)")
	flag.Parse()

	if *shape != "uniform" && *shape != "hotkey" {
		log.Fatalf("unknown -shape %q (want uniform or hotkey)", *shape)
	}
	if *concurrency < 1 {
		log.Fatal("-concurrency must be ≥ 1")
	}

	client := &http.Client{Timeout: *timeout}
	before, err := scrape(client, *url)
	if err != nil {
		log.Fatalf("pre-run healthz scrape: %v", err)
	}

	g := &generator{
		url:         strings.TrimRight(*url, "/") + "/v1/gradient",
		client:      client,
		shape:       *shape,
		points:      *points,
		hotFraction: *hotFraction,
		hotRotate:   *hotRotate,
		clients:     *clients,
		rate:        *rate,
		start:       time.Now(),
	}
	g.run(*duration, *concurrency, *rate)

	after, err := scrape(client, *url)
	if err != nil {
		log.Fatalf("post-run healthz scrape: %v", err)
	}

	rep := g.report(before, after)
	if rep.Server != nil {
		log.Printf("client p50/p99 %.2f/%.2f ms, server p50/p99 %.2f/%.2f ms, skew p50/p99 %+.2f/%+.2f ms",
			rep.Latency.P50, rep.Latency.P99, rep.Server.P50, rep.Server.P99,
			rep.Server.SkewP50, rep.Server.SkewP99)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	os.Stdout.Write(enc)
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if problems := check(rep, *expect); len(problems) > 0 {
		for _, p := range problems {
			log.Printf("EXPECT FAILED: %s", p)
		}
		os.Exit(1)
	}
}

// generator owns one load run's traffic and bookkeeping.
type generator struct {
	url         string
	client      *http.Client
	shape       string
	points      int
	hotFraction float64
	hotRotate   time.Duration
	clients     int
	rate        float64
	start       time.Time

	sent, ok, shed, err5xx, errOther atomic.Int64

	mu      sync.Mutex
	samples []float64 // latency of every completed request, ms
	elapsed time.Duration
}

// run fires workers until the deadline. With a positive rate each worker
// paces itself with a ticker at rate/concurrency; otherwise the loop is
// closed (next request as soon as the previous one answers).
func (g *generator) run(duration time.Duration, concurrency int, rate float64) {
	deadline := g.start.Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tick *time.Ticker
			if rate > 0 {
				tick = time.NewTicker(time.Duration(float64(time.Second) * float64(concurrency) / rate))
				defer tick.Stop()
			}
			for i := 0; ; i++ {
				if time.Now().After(deadline) {
					return
				}
				g.one(w, i)
				if tick != nil {
					<-tick.C
				}
			}
		}(w)
	}
	wg.Wait()
	g.elapsed = time.Since(g.start)
}

// one sends a single query and records its outcome.
func (g *generator) one(worker, i int) {
	body := g.body(worker, i)
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		g.errOther.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", fmt.Sprintf("loadgen-%d", worker%g.clients))
	t0 := time.Now()
	resp, err := g.client.Do(req)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	g.sent.Add(1)
	if err != nil {
		g.errOther.Add(1)
		return
	}
	resp.Body.Close()
	g.mu.Lock()
	g.samples = append(g.samples, ms)
	g.mu.Unlock()
	switch {
	case resp.StatusCode == http.StatusOK:
		g.ok.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		g.shed.Add(1)
	case resp.StatusCode >= 500:
		g.err5xx.Add(1)
	default:
		g.errOther.Add(1)
	}
}

// body picks the operating point for one request. Uniform traffic walks
// a deterministic pool; hotkey traffic sends -hot-fraction of requests
// to a shared point whose index rotates every -hot-rotate. The epoch is
// derived from the wall clock (not run start), so rotation points stay
// fresh across repeated runs against one daemon and each epoch's first
// concurrent wave hits a never-seen (cold) point.
func (g *generator) body(worker, i int) []byte {
	idx := worker*31 + i
	if g.shape == "hotkey" && float64(idx%100)/100 < g.hotFraction {
		idx = 1_000_000 + int(time.Now().UnixNano()/int64(g.hotRotate))
	} else {
		idx %= g.points
	}
	sc := serve.Scenario{
		Chip:    20 + float64(idx%97)*0.05,
		PVCSEL:  (1.0 + float64(idx%53)*0.05) * 1e-3,
		PHeater: float64(idx%29) * 0.05e-3,
	}
	b, err := json.Marshal(sc)
	if err != nil {
		panic(err) // static struct, cannot fail
	}
	return b
}

// report assembles the artifact from client counters and the healthz
// deltas.
func (g *generator) report(before, after serve.SpecInfo) loadreport.Report {
	rep := loadreport.Report{
		Shape:           g.shape,
		DurationS:       g.elapsed.Seconds(),
		OfferedQPS:      g.rate,
		Sent:            g.sent.Load(),
		OK:              g.ok.Load(),
		Shed:            g.shed.Load(),
		Err5xx:          g.err5xx.Load(),
		ErrOther:        g.errOther.Load(),
		ServerAdmitted:  after.Admitted - before.Admitted,
		ServerShed:      after.Shed - before.Shed,
		ServerSolves:    after.Evaluations - before.Evaluations,
		ServerCacheHits: after.CacheHits - before.CacheHits,
	}
	rep.Latency, rep.Hist = loadreport.Summarize(g.samples)
	rep.Derive()
	if delta := after.QueryLatency.Sub(before.QueryLatency); delta != nil && delta.Count > 0 {
		rep.Server = &loadreport.ServerLatency{
			P50:   delta.Quantile(0.50) * 1e3,
			P90:   delta.Quantile(0.90) * 1e3,
			P99:   delta.Quantile(0.99) * 1e3,
			Count: delta.Count,
		}
		rep.Server.SkewP50 = rep.Latency.P50 - rep.Server.P50
		rep.Server.SkewP99 = rep.Latency.P99 - rep.Server.P99
	}
	return rep
}

// scrape fetches /healthz and returns the server's spec counters.
func scrape(client *http.Client, baseURL string) (serve.SpecInfo, error) {
	resp, err := client.Get(strings.TrimRight(baseURL, "/") + "/healthz")
	if err != nil {
		return serve.SpecInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.SpecInfo{}, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return serve.SpecInfo{}, err
	}
	if len(h.Specs) != 1 {
		return serve.SpecInfo{}, fmt.Errorf("healthz: %d specs, want 1", len(h.Specs))
	}
	return h.Specs[0], nil
}

// check evaluates the -expect assertions against the finished report.
func check(rep loadreport.Report, expect string) []string {
	var problems []string
	for _, tok := range strings.Split(expect, ",") {
		switch strings.TrimSpace(tok) {
		case "":
		case "no5xx":
			if rep.Err5xx > 0 {
				problems = append(problems, fmt.Sprintf("no5xx: saw %d 5xx responses", rep.Err5xx))
			}
		case "noshed":
			if rep.Shed > 0 {
				problems = append(problems, fmt.Sprintf("noshed: saw %d 429 responses", rep.Shed))
			}
		case "shed":
			if rep.Shed == 0 {
				problems = append(problems, "shed: offered load above the admit rate produced zero 429s")
			}
		default:
			problems = append(problems, fmt.Sprintf("unknown -expect token %q", tok))
		}
	}
	return problems
}
