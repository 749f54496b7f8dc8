package fleet

// Worker registry: the coordinator's view of the fleet, fed by periodic
// heartbeat scrapes of each worker's /healthz and /metrics endpoints.
// Failure is a first-class state — a worker moves alive → suspect →
// dead as consecutive scrapes miss, and back to alive the moment a
// scrape succeeds (rejoin). Dead workers stay registered and keep being
// scraped: eviction means "migrate its jobs and stop placing work on
// it", not "forget it", so a flapping worker re-enters the placement
// pool without re-registering.

import (
	"bufio"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcselnoc/internal/obs"
	"vcselnoc/internal/serve"
)

// Worker lifecycle states.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// workerState is one fleet member's scraped and tracked state.
type workerState struct {
	url    string
	jobDir string

	state    string
	misses   int
	lastSeen time.Time

	// Scraped from /healthz and /metrics.
	specs     []serve.SpecInfo
	jobCounts map[string]int
	admitted  int64
	shed      int64
	warmBases int
	// p99s is the worst observed query p99 (seconds) across the worker's
	// specs, read from the latency histogram /healthz mirrors.
	p99s float64

	// inflight counts the coordinator's own outstanding requests to this
	// worker — the freshest load signal available, ahead of any scrape.
	inflight int
}

// score ranks a worker for placement; lower places first. The
// coordinator's own in-flight requests weigh heaviest (they are
// real-time, not a scrape old), then the worker's queued+running
// transient jobs, then recent admission shed pressure. Warm bases
// subtract: a warm worker answers without paying a basis build.
func (w *workerState) score() float64 {
	s := 10*float64(w.inflight) +
		5*float64(w.jobCounts[serve.JobQueued]+w.jobCounts[serve.JobRunning])
	if total := w.admitted + w.shed; total > 0 {
		s += 20 * float64(w.shed) / float64(total)
	}
	// Observed tail latency adds pressure — a worker answering slowly is
	// already saturated even if its queues look empty. Capped at 500 ms
	// (5 points) so one slow cold-start histogram cannot exile a worker.
	p := w.p99s
	if p > 0.5 {
		p = 0.5
	}
	s += 10 * p
	warm := w.warmBases
	if warm > 4 {
		warm = 4
	}
	return s - float64(warm)
}

// WorkerInfo is the wire form of one registry entry (GET /v1/fleet).
type WorkerInfo struct {
	URL    string `json:"url"`
	State  string `json:"state"`
	Misses int    `json:"misses,omitempty"`
	JobDir string `json:"job_dir,omitempty"`
	// LastSeenAgoS is seconds since the last successful scrape (absent
	// before the first one).
	LastSeenAgoS float64        `json:"last_seen_ago_s,omitempty"`
	Inflight     int            `json:"inflight"`
	Jobs         map[string]int `json:"jobs,omitempty"`
	WarmBases    int            `json:"warm_bases,omitempty"`
	Admitted     int64          `json:"admitted,omitempty"`
	Shed         int64          `json:"shed,omitempty"`
	// P99S is the worst scraped query p99 across the worker's specs, in
	// seconds (absent until latency histograms hold data).
	P99S  float64 `json:"p99_s,omitempty"`
	Score float64 `json:"score"`
}

// registry holds the worker set under one lock.
type registry struct {
	suspectAfter int
	evictAfter   int
	logger       *slog.Logger

	mu      sync.Mutex
	workers map[string]*workerState
}

func newRegistry(suspectAfter, evictAfter int) *registry {
	return &registry{
		suspectAfter: suspectAfter,
		evictAfter:   evictAfter,
		logger:       obs.Discard(),
		workers:      make(map[string]*workerState),
	}
}

// normalizeURL canonicalises a worker base URL the way NewShardClient
// does, so registry keys match the URLs the scatter path dials.
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("fleet: empty worker URL")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	return strings.TrimRight(raw, "/"), nil
}

// add registers (or updates) a worker. New workers start suspect — they
// enter the placement pool on their first successful scrape, so a typo'd
// registration never receives work.
func (r *registry) add(url, jobDir string) (string, error) {
	url, err := normalizeURL(url)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		w = &workerState{url: url, state: StateSuspect}
		r.workers[url] = w
	}
	if jobDir != "" {
		w.jobDir = jobDir
	}
	return url, nil
}

// urls snapshots the registered worker URLs (scrape targets — every
// state, dead included, so flapping workers can rejoin).
func (r *registry) urls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.workers))
	for url := range r.workers {
		out = append(out, url)
	}
	return out
}

// seen records a successful scrape: the worker is alive (rejoining if it
// was suspect or dead) and its load signals refresh.
func (r *registry) seen(url string, specs []serve.SpecInfo, jobCounts map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		return
	}
	prev := w.state
	w.state = StateAlive
	w.misses = 0
	w.lastSeen = time.Now()
	w.jobCounts = jobCounts
	w.admitted, w.shed, w.warmBases, w.p99s = 0, 0, 0, 0
	for i := range specs {
		info := &specs[i]
		w.admitted += info.Admitted
		w.shed += info.Shed
		w.warmBases += info.WarmBases
		// Extract the placement signal, then strip the histogram pointer:
		// stored SpecInfos feed struct-equality consensus comparisons, and
		// two workers' snapshot pointers would never compare equal.
		if info.QueryLatency != nil {
			if p := info.QueryLatency.Quantile(0.99); p > w.p99s {
				w.p99s = p
			}
		}
		info.QueryLatency = nil
	}
	w.specs = specs
	if prev != StateAlive {
		r.logger.Info("worker alive", "url", url, "was", prev, "p99_s", w.p99s)
	}
}

// miss records a failed scrape and advances the failure state machine.
func (r *registry) miss(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		return
	}
	w.misses++
	prev := w.state
	switch {
	case w.misses >= r.evictAfter:
		w.state = StateDead
	case w.misses >= r.suspectAfter:
		w.state = StateSuspect
	}
	if w.state != prev {
		r.logger.Warn("worker "+w.state, "url", url, "misses", w.misses, "was", prev)
	}
}

// stateOf reports a worker's lifecycle state ("" for unknown workers).
func (r *registry) stateOf(url string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[url]; ok {
		return w.state
	}
	return ""
}

// jobDirOf reports a worker's registered job directory.
func (r *registry) jobDirOf(url string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[url]; ok {
		return w.jobDir
	}
	return ""
}

// addInflight adjusts the coordinator-tracked in-flight count.
func (r *registry) addInflight(url string, delta int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[url]; ok {
		w.inflight += delta
	}
}

// placement returns the alive workers ordered by ascending load score —
// the order sweep chunks and transient jobs prefer them in.
func (r *registry) placement() []string {
	r.mu.Lock()
	type scored struct {
		url   string
		score float64
	}
	ranked := make([]scored, 0, len(r.workers))
	for url, w := range r.workers {
		if w.state != StateAlive {
			continue
		}
		ranked = append(ranked, scored{url, w.score()})
	}
	r.mu.Unlock()
	// Stable order for equal scores so tests (and operators) can predict
	// placement.
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0 && (ranked[j].score < ranked[j-1].score ||
			(ranked[j].score == ranked[j-1].score && ranked[j].url < ranked[j-1].url)); j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
		}
	}
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.url
	}
	return out
}

// snapshot renders the registry for the fleet status endpoints.
func (r *registry) snapshot() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		info := WorkerInfo{
			URL: w.url, State: w.state, Misses: w.misses, JobDir: w.jobDir,
			Inflight: w.inflight, Jobs: w.jobCounts,
			WarmBases: w.warmBases, Admitted: w.admitted, Shed: w.shed,
			P99S: w.p99s, Score: w.score(),
		}
		if !w.lastSeen.IsZero() {
			info.LastSeenAgoS = time.Since(w.lastSeen).Seconds()
		}
		out = append(out, info)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].URL < out[j-1].URL; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// consensusSpec returns the named spec's info as agreed by every alive
// worker that has been scraped. Disagreement on the discretisation or
// solver is a hard error: placing chunks of one grid across mixed meshes
// would merge incompatible rows.
func (r *registry) consensusSpec(name string) (serve.SpecInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var found *serve.SpecInfo
	var foundOn string
	for _, w := range r.workers {
		if w.state != StateAlive {
			continue
		}
		for i := range w.specs {
			info := &w.specs[i]
			if info.Name != name {
				continue
			}
			if found == nil {
				found, foundOn = info, w.url
				break
			}
			if info.ONICell != found.ONICell || info.DieCell != found.DieCell ||
				info.MaxZCell != found.MaxZCell || info.Solver != found.Solver {
				return serve.SpecInfo{}, fmt.Errorf(
					"fleet: workers %s and %s disagree on spec %q (%g/%g/%g m %s vs %g/%g/%g m %s)",
					foundOn, w.url, name,
					found.ONICell, found.DieCell, found.MaxZCell, found.Solver,
					info.ONICell, info.DieCell, info.MaxZCell, info.Solver)
			}
			break
		}
	}
	if found == nil {
		return serve.SpecInfo{}, fmt.Errorf("fleet: no alive worker registers spec %q", name)
	}
	return *found, nil
}

// allSpecs returns the union of alive workers' spec registries (one
// entry per name), for GET /v1/specs — what a ShardClient pointed at the
// coordinator preflights against.
func (r *registry) allSpecs() []serve.SpecInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var out []serve.SpecInfo
	for _, w := range r.workers {
		if w.state != StateAlive {
			continue
		}
		for _, info := range w.specs {
			if !seen[info.Name] {
				seen[info.Name] = true
				out = append(out, info)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// parseJobsGauge extracts the vcseld_jobs{state=...} gauge from a
// Prometheus text-format /metrics body.
func parseJobsGauge(body string) map[string]int {
	counts := make(map[string]int)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `vcseld_jobs{state="`)
		if !ok {
			continue
		}
		state, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimSpace(val)); err == nil {
			counts[state] = n
		}
	}
	return counts
}
