package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"vcselnoc"
)

// openRate is the query workload's open-loop arrival rate (requests/s).
const openRate = 150

// queryRun accumulates one query workload run over its daemons.
type queryRun struct {
	cfg config
	tr  *tracer
	res *result

	// Per daemon: exec → healthy, and the warm time vcseld logged (s);
	// peak resident set (MB); the answer to the probe key.
	setups, warms, rss []float64
	probes             []answer
	// rates are closed-loop completions per second of every rateWindow;
	// latWindows the median closed-loop latency of every latencyWindow.
	rates, latWindows []float64
	closedN           int
	open              openResult
	delta             counters
	hits              int64
	measured          []sentRequest
	server            map[string]serverTrace
	errs              atomic.Int64
}

func runQuery(cfg config) (*result, error) {
	q := &queryRun{cfg: cfg, res: newResult(queryUnique, cfg), server: make(map[string]serverTrace)}
	if cfg.trace {
		q.tr = newTracer()
	}
	for i := 0; i < queryDaemons; i++ {
		if err := q.daemon(i); err != nil {
			return nil, err
		}
	}
	q.checks()
	q.report()
	if q.tr != nil {
		if err := q.tr.write(cfg.tracePath(queryUnique), queryUnique, cfg.seed, len(q.measured), q.dropped()); err != nil {
			return nil, err
		}
	}
	return q.res, nil
}

// do returns the request function the load loops call: one query that
// must be answered with HTTP 200 and a well-formed answer.
func (q *queryRun) do(c *queryClient) doFunc {
	return func(_ int, p point) bool {
		_, err := c.query(p)
		if err != nil {
			q.logErr(err)
		}
		return err == nil
	}
}

func (q *queryRun) logErr(err error) {
	if q.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "%s: %v\n", queryUnique, err)
	}
}

// daemon starts warm vcseld number i, warms it up and asks it the probe
// key (unmeasured), runs its closed-loop and open-loop phases and stops
// it, collecting set-up time, memory, /healthz deltas and — when tracing —
// vcseld's request traces.
func (q *queryRun) daemon(i int) error {
	d, err := startDaemon(q.cfg.vcseld, "-res", q.cfg.res, "-warm")
	if err != nil {
		return err
	}
	defer d.stop()
	q.setups = append(q.setups, d.setup.Seconds())
	q.warms = append(q.warms, d.warm)

	c := newQueryClient(d.base, q.tr)
	defer c.close()
	var sc *scraper
	if q.tr != nil {
		sc = startScraper(d.base)
		defer func() {
			if sc != nil { // an early return left it polling
				sc.stop()
			}
		}()
	}
	p, do, r := q.cfg.plan, q.do(c), q.res
	w := closedLoop(newKeyStream(q.cfg.seed, "warmup", i), p.warmup, do)
	r.attempted += w.sent + 1
	r.failed += w.failed
	if a, err := c.query(probeKey(q.cfg.seed)); err != nil {
		q.logErr(err)
		r.failed++
	} else {
		q.probes = append(q.probes, a)
	}
	c.takeSent()

	before, err := d.health()
	if err != nil {
		return err
	}
	cl := closedLoop(newKeyStream(q.cfg.seed, "closed", i), p.closed, do)
	q.rates = append(q.rates, cl.rates...)
	q.latWindows = append(q.latWindows, windowMedians(cl.at, cl.latency, latencyWindow)...)
	q.closedN += len(cl.latency)
	r.attempted += cl.sent
	r.failed += cl.failed
	o := openLoop(newKeyStream(q.cfg.seed, "open", i), openSchedule{rate: openRate, d: p.open}, do)
	q.open.latency = append(q.open.latency, o.latency...)
	q.open.late = append(q.open.late, o.late...)
	r.attempted += len(o.latency)
	r.failed += o.failed
	after, err := d.health()
	if err != nil {
		return err
	}
	q.delta = q.delta.add(after.sub(before))
	q.hits += after.CacheHits

	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	q.rss = append(q.rss, rss)
	if sc != nil {
		for id, t := range sc.stop() {
			q.server[id] = t
		}
		sc = nil
		q.measured = append(q.measured, c.takeSent()...)
	}
	return nil
}

// probeKey is asked of every daemon before its timed phases. It is drawn
// from a stream of its own, so each daemon answers it as a miss.
func probeKey(seed int64) point { return newKeyStream(seed, "probe", 0).key(0, 0) }

// checks verifies the answers once every daemon has stopped: no query was
// a cache hit, every daemon answered the probe key bit for bit alike, and
// that answer matches a direct solve. One direct solve costs 3–5 s at the
// fast tier, so the run makes one.
func (q *queryRun) checks() {
	r := q.res
	r.check("no_cache_hits", q.hits == 0, "vcseld cache hits over the run: %d (every key is new)", q.hits)
	same := len(q.probes) == queryDaemons
	for _, a := range q.probes {
		same = same && a == q.probes[0]
	}
	r.check("daemons_agree", same, "probe key answered identically by %d of %d fresh daemons", len(q.probes), queryDaemons)
	if len(q.probes) == 0 {
		return
	}
	got := q.probes[0]
	dg := digest{fnv.New64a()}
	dg.add(got.MeanONITemp, got.MeanGradient, got.MaxGradient, got.ChipMax, got.ChipAvg)
	r.fingerprint = fmt.Sprintf("%016x", dg.h.Sum64())

	want, err := solveDirect(q.cfg.res, probeKey(q.cfg.seed))
	if err != nil {
		r.check("matches_direct_solve", false, "%v", err)
		return
	}
	// Within 1e-3 °C of the 1 °C limit a 1e-8 °C solver gap could
	// legitimately flip `feasible`.
	feasible := got.Feasible == want.Feasible || math.Abs(want.MaxGradient-vcselnoc.GradientLimit) <= 1e-3
	gap := maxDiff(got, want)
	r.check("matches_direct_solve", gap <= 1e-6 && feasible,
		"probe answer vs direct solve: max |Δ| %.3g °C over five temperature fields, feasible equal %v", gap, feasible)
}

func maxDiff(a, b answer) float64 {
	d := 0.0
	for _, x := range [][2]float64{
		{a.MeanONITemp, b.MeanONITemp}, {a.MeanGradient, b.MeanGradient}, {a.MaxGradient, b.MaxGradient},
		{a.ChipMax, b.ChipMax}, {a.ChipAvg, b.ChipAvg},
	} {
		d = math.Max(d, math.Abs(x[0]-x[1]))
	}
	if math.IsNaN(d) {
		return math.Inf(1)
	}
	return d
}

// solveDirect answers the point with a full steady solve of a model built
// in this process: the reference the served superposition answer must
// match.
func solveDirect(res string, p point) (answer, error) {
	spec, err := specFor(res)
	if err != nil {
		return answer{}, err
	}
	m, err := vcselnoc.NewThermalModel(spec)
	if err != nil {
		return answer{}, err
	}
	r, err := m.Solve(vcselnoc.Powers{Chip: p.Chip, VCSEL: p.PV, Driver: p.PV, Heater: p.PH})
	if err != nil {
		return answer{}, fmt.Errorf("direct solve %+v: %w", p, err)
	}
	g := r.MaxONIGradient()
	return answer{
		MeanONITemp: r.MeanONITemp(), MeanGradient: r.MeanONIGradient(), MaxGradient: g,
		Feasible: g <= vcselnoc.GradientLimit, ChipMax: r.ChipMax, ChipAvg: r.ChipAvg,
	}, nil
}

func (q *queryRun) report() {
	r := q.res
	n := len(q.setups)
	if !q.cfg.trace {
		r.set("setup_s", median(q.setups), n, "vcseld exec → healthy with -warm, median of daemons")
		r.set("latency_ms", trimmedMean(q.latWindows), q.closedN,
			fmt.Sprintf("closed loop, %d clients, send → answer: trimmed mean of %d per-%v medians",
				clients, len(q.latWindows), latencyWindow))
		r.set("throughput_per_s", trimmedMean(q.rates), len(q.rates),
			fmt.Sprintf("closed loop, %d clients: trimmed mean of completions per %v window", clients, rateWindow))
		r.set("peak_rss_mb", median(q.rss), n, "vcseld VmHWM, median of daemons")
		return
	}
	open := fmt.Sprintf("open loop at %d q/s from due time", openRate)
	r.set("query.p50_ms", median(q.open.latency), len(q.open.latency), open)
	p99, beyond := percentile(q.open.latency, 99)
	r.set("query.p99_ms", p99, len(q.open.latency), fmt.Sprintf("%s, %d samples beyond", open, beyond))
	late, beyond := percentile(q.open.late, 99)
	r.set("loadgen.late_p99_ms", late, len(q.open.late), fmt.Sprintf("send − due, %d samples beyond", beyond))
	startups := make([]float64, n)
	for i := range startups {
		startups[i] = q.setups[i] - q.warms[i]
	}
	r.set("serve.startup_s", median(startups), n, "exec → healthy minus vcseld's warm time, median of daemons")
	r.set("serve.warm_s", median(q.warms), n, "vcseld `warm` log line, median of daemons")

	reqs := float64(q.delta.CacheHits + q.delta.CacheMisses)
	r.set("serve.evals_per_request", ratio(float64(q.delta.BatchedQueries), reqs), int(reqs),
		fmt.Sprintf("base %d requests", int64(reqs)))
	r.set("serve.batch_size_mean", ratio(float64(q.delta.BatchedQueries), float64(q.delta.Batches)),
		int(q.delta.Batches), fmt.Sprintf("base %d batches", q.delta.Batches))

	selfs := q.joinTraces()
	for _, l := range []struct{ metric, span string }{
		{"serve.solve_us", "serve.solve"},
		{"serve.batch_wait_us", "serve.batch_wait"},
		{"serve.cache_us", "serve.cache"},
		{"serve.admission_us", "serve.admission"},
		{"serve.basis_us", "serve.basis"},
		{"serve.decode_encode_us", "vcseld.request"},
		{"http.overhead_us", "http.request"},
	} {
		xs := selfs[l.span]
		if len(xs) == 0 { // every trace dropped: trace.dropped_frac says so
			r.set(l.metric+"_p50", 0, 0, "no such spans")
			r.set(l.metric+"_p99", 0, 0, "no such spans")
			continue
		}
		r.set(l.metric+"_p50", median(xs), len(xs), "self time")
		v, beyond := percentile(xs, 99)
		r.set(l.metric+"_p99", v, len(xs), fmt.Sprintf("self time, %d samples beyond", beyond))
	}
	r.set("trace.dropped_frac", ratio(float64(q.dropped()), float64(len(q.measured))), len(q.measured),
		fmt.Sprintf("base %d traced requests", len(q.measured)))
}

// joinTraces attaches vcseld's trace of every measured request to the
// benchmark's client span of it and returns the self times (µs) of the
// joined requests' spans by name: the client span's self time is the HTTP
// overhead, vcseld's root span's self time its decode/encode time.
func (q *queryRun) joinTraces() map[string][]float64 {
	var joined []span
	for _, s := range q.measured {
		t, ok := q.server[s.traceID]
		if !ok {
			continue
		}
		client := span{TraceID: s.traceID, SpanID: s.spanID, Name: "http.request",
			Start: q.tr.micros(s.start), End: q.tr.micros(s.end)}
		root := span{TraceID: s.traceID, SpanID: q.tr.id(), Parent: s.spanID, Name: "vcseld.request",
			Start: q.tr.micros(t.Start)}
		root.End = root.Start + float64(t.DurationUS)
		joined = append(joined, client, root)
		for _, ph := range t.Spans {
			start := root.Start + float64(ph.StartUS)
			joined = append(joined, span{TraceID: s.traceID, SpanID: q.tr.id(), Parent: root.SpanID,
				Name: "serve." + ph.Name, Start: start, End: start + float64(ph.DurationUS)})
		}
	}
	for _, s := range joined {
		if s.Name != "http.request" { // already recorded when the request was sent
			q.tr.addSpan(s)
		}
	}
	return selfByName(joined)
}

func (q *queryRun) dropped() int {
	n := 0
	for _, s := range q.measured {
		if _, ok := q.server[s.traceID]; !ok {
			n++
		}
	}
	return n
}

// serverTrace is one entry of vcseld's GET /debug/requests.
type serverTrace struct {
	TraceID    string    `json:"trace_id"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Spans      []struct {
		Name       string `json:"name"`
		StartUS    int64  `json:"start_us"`
		DurationUS int64  `json:"duration_us"`
	} `json:"spans"`
}

// scrapeEvery is well inside the time vcseld's 256-trace ring takes to
// wrap at the closed-loop rate (~400 requests/s); what the ring still
// loses shows as trace.dropped_frac.
const scrapeEvery = 100 * time.Millisecond

// scraper polls /debug/requests during a traced run and keeps every trace
// it sees, so none is lost to the ring wrapping.
type scraper struct {
	url    string
	quit   chan struct{}
	done   chan struct{}
	traces map[string]serverTrace
}

func startScraper(base string) *scraper {
	s := &scraper{url: base + "/debug/requests?limit=0", quit: make(chan struct{}), done: make(chan struct{}),
		traces: make(map[string]serverTrace)}
	go func() {
		defer close(s.done)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.scrape()
			}
		}
	}()
	return s
}

func (s *scraper) scrape() {
	var page struct {
		Requests []serverTrace `json:"requests"`
	}
	if err := getJSON(s.url, &page); err != nil {
		fmt.Fprintf(os.Stderr, "scrape /debug/requests: %v\n", err)
		return
	}
	for _, t := range page.Requests {
		s.traces[t.TraceID] = t
	}
}

// stop ends polling, takes a last scrape and returns every trace seen.
func (s *scraper) stop() map[string]serverTrace {
	close(s.quit)
	<-s.done
	s.scrape()
	return s.traces
}

// takeSent returns and forgets the traced requests sent so far.
func (c *queryClient) takeSent() []sentRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sent
	c.sent = nil
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	return s
}
