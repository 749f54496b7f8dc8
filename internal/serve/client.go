package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/parallel"
	"vcselnoc/internal/thermal"
)

// ShardClient scatters design-space sweep grids across a fleet of
// vcseld workers and gathers the rows back into the exact grid an
// in-process Explorer would produce. Rows (the outer sweep axis) are
// partitioned into contiguous chunks, chunks are assigned round-robin
// across the workers and fetched concurrently, and each chunk's rows are
// written at their absolute indices — so the merge is deterministic
// whatever order responses arrive in.
//
// A chunk whose worker fails is first rerouted to the surviving workers
// under capped exponential backoff with jitter; an admission shed (HTTP
// 429) waits out the worker's advertised Retry-After/retry_after_ms
// schedule instead of counting as a failure. Only when every attempt is
// exhausted is the chunk retried locally against a lazily built fallback
// Explorer, keeping the whole sweep available through total fleet
// outages without stealing fleet-sized work back onto the client for a
// single dead member.
//
// Exactness holds because every sweep cell is an independent
// superposition evaluation and every stage of the solve pipeline
// (matvec rows, serial dot products, line smoothing) is deterministic
// and worker-count independent: a worker's basis is bit-identical to a
// local one built from the same spec.
type ShardClient struct {
	// Workers are the base URLs of the vcseld fleet ("http://host:port").
	Workers []string
	// Scenario pins the activity the sweeps run against; the power knobs
	// of individual sweeps override its Chip/PVCSEL/PHeater.
	Scenario Scenario
	// HTTPClient overrides the default client (DefaultShardTimeout).
	HTTPClient *http.Client
	// ChunkRows caps rows per request; 0 splits the grid evenly across
	// the workers (one chunk each).
	ChunkRows int
	// Fallback builds the local Explorer used to recompute chunks whose
	// worker failed. Nil disables local retry: a failed chunk fails the
	// sweep.
	Fallback func() (*dse.Explorer, error)
	// ExpectRes, when non-nil, is checked against the one spec each
	// reachable worker lists at /v1/specs before the first sweep: a fleet
	// member meshing the problem differently would otherwise merge
	// rows from a different discretisation into the grid with no error.
	// Mismatches — and reachable workers whose /v1/specs is broken or
	// does not list exactly one spec — are hard failures;
	// connection-level failures pass preflight (their
	// chunks fail over per chunk as usual).
	// Preflight and every chunk also check the worker's solver against
	// fvm.SolverName: rows another solver computed (an older build's
	// jacobi-cg) differ from locally retried ones at the solve tolerance,
	// breaking the bit-identical merge guarantee.
	ExpectRes *thermal.Resolution
	// ChunkAttempts bounds remote fetch attempts per chunk before the
	// local fallback; 0 selects DefaultChunkAttempts. Transport and
	// server-side (5xx) failures reroute the next attempt to the next
	// worker; a 429 shed stays on its worker and waits at least the
	// advertised schedule. Non-shed client errors (4xx) are permanent and
	// never retried remotely.
	ChunkAttempts int
	// RetryBase and RetryMax shape the capped exponential backoff between
	// attempts (base·2^n up to max, plus up to 50% jitter); 0 selects
	// DefaultRetryBase/DefaultRetryMax.
	RetryBase, RetryMax time.Duration
	// TraceID, when set, rides every chunk request as the X-Trace-ID
	// header (each attempt gets a fresh X-Span-ID), so a sweep scattered
	// across the fleet carries one trace end to end — retries, reroutes
	// and all.
	TraceID string

	preOnce sync.Once
	preErr  error

	fbOnce sync.Once
	fbEx   *dse.Explorer
	fbErr  error
}

// NewShardClient parses a comma-separated worker list (the cmd/dse
// -shards flag format) into a client.
func NewShardClient(shards string, sc Scenario, fallback func() (*dse.Explorer, error)) (*ShardClient, error) {
	var workers []string
	for _, w := range strings.Split(shards, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		workers = append(workers, strings.TrimRight(w, "/"))
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("serve: no shard workers in %q", shards)
	}
	return &ShardClient{Workers: workers, Scenario: sc, Fallback: fallback}, nil
}

// DefaultShardTimeout bounds one chunk request. It is sized for a cold
// worker: the first query against an un-warmed worker blocks on the
// single-flighted model and basis build (~10 s at the fast tier, ~50 s
// at the paper tier), and timing out sooner would silently fall every
// chunk back to local computation.
const DefaultShardTimeout = 5 * time.Minute

// httpClient resolves the HTTP client.
func (c *ShardClient) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: DefaultShardTimeout}
}

// preflight cross-checks the one spec each reachable worker lists
// against ExpectRes and fvm.SolverName (once per client). A mismatched
// worker must fail the sweep, not silently contribute rows from a
// different discretisation or solver; only connection-level failures
// pass, since the per-chunk retry already covers dead workers. Workers
// are probed concurrently so one blackholed member costs a single
// timeout, not one per worker.
func (c *ShardClient) preflight() error {
	if c.ExpectRes == nil {
		return nil
	}
	c.preOnce.Do(func() {
		// The metadata GET is cheap — never triggers a model build — so
		// it gets a short timeout of its own; the long chunk timeout
		// would let one blackholed worker stall the whole sweep start.
		metaClient := &http.Client{Timeout: 10 * time.Second}
		c.preErr = parallel.ForEach(len(c.Workers), len(c.Workers), func(_, i int) error {
			worker := c.Workers[i]
			resp, err := metaClient.Get(worker + "/v1/specs")
			if err != nil {
				return nil // dead worker: chunk-level retry handles it
			}
			defer resp.Body.Close()
			var infos []SpecInfo
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("serve: worker %s answered /v1/specs with HTTP %d — not a compatible vcseld", worker, resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
				return fmt.Errorf("serve: worker %s /v1/specs is not decodable (%v) — not a compatible vcseld", worker, err)
			}
			if len(infos) != 1 {
				return fmt.Errorf("serve: worker %s lists %d specs at /v1/specs, want 1 — not a compatible vcseld", worker, len(infos))
			}
			info, want := infos[0], c.ExpectRes
			if info.ONICell != want.ONICell || info.DieCell != want.DieCell || info.MaxZCell != want.MaxZCell {
				return fmt.Errorf(
					"serve: worker %s meshes at %g/%g/%g m, client expects %g/%g/%g m — refusing to merge grids across resolutions",
					worker, info.ONICell, info.DieCell, info.MaxZCell,
					want.ONICell, want.DieCell, want.MaxZCell)
			}
			if info.Solver != fvm.SolverName {
				return fmt.Errorf(
					"serve: worker %s solves with %s, client expects %s — locally retried chunks would differ at the solve tolerance",
					worker, info.Solver, fvm.SolverName)
			}
			return nil
		})
	})
	return c.preErr
}

// fallbackExplorer builds (once) the local retry explorer.
func (c *ShardClient) fallbackExplorer() (*dse.Explorer, error) {
	if c.Fallback == nil {
		return nil, fmt.Errorf("serve: no local fallback configured")
	}
	c.fbOnce.Do(func() { c.fbEx, c.fbErr = c.Fallback() })
	return c.fbEx, c.fbErr
}

// errFingerprint marks a chunk whose worker solved on a different
// discretisation or with another solver. Unlike transport failures it is
// a fleet misconfiguration: retrying locally would mask it, so scatter
// propagates it instead.
var errFingerprint = errors.New("serve: worker fingerprint mismatch")

// checkFingerprint verifies a chunk response's discretisation — the full
// resolution triple, not just the ONI cell — against the client's
// expectations, and its solver against fvm.SolverName. Preflight can miss
// a worker that was down during the probe and came back mid-sweep, so
// every chunk is checked.
func (c *ShardClient) checkFingerprint(worker string, res thermal.Resolution, solver string) error {
	if c.ExpectRes != nil && res != *c.ExpectRes {
		return fmt.Errorf("%w: worker %s solved on ONI/die/z cells %g/%g/%g m, client expects %g/%g/%g m — refusing to merge grids across discretisations",
			errFingerprint, worker, res.ONICell, res.DieCell, res.MaxZCell,
			c.ExpectRes.ONICell, c.ExpectRes.DieCell, c.ExpectRes.MaxZCell)
	}
	if solver != fvm.SolverName {
		return fmt.Errorf("%w: worker %s solved with %s, client expects %s",
			errFingerprint, worker, solver, fvm.SolverName)
	}
	return nil
}

// chunk is one contiguous row window of a sweep grid.
type chunk struct{ lo, hi int }

// chunks partitions total rows: explicit ChunkRows wins, otherwise the
// rows split evenly across the workers.
func (c *ShardClient) chunks(total int) []chunk {
	size := c.ChunkRows
	if size <= 0 {
		size = (total + len(c.Workers) - 1) / len(c.Workers)
	}
	if size < 1 {
		size = 1
	}
	var out []chunk
	for lo := 0; lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		out = append(out, chunk{lo, hi})
	}
	return out
}

// workerHTTPError carries the status (and, for sheds, the advertised
// retry schedule) of a worker's non-200 answer, so the retry loop can
// tell permanent client errors from transient server-side failures.
type workerHTTPError struct {
	status     int
	retryAfter time.Duration
	err        error
}

func (e *workerHTTPError) Error() string { return e.err.Error() }

// post sends one JSON request and decodes the response; non-200 answers
// surface the server's error envelope as a workerHTTPError.
func (c *ShardClient) post(worker, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequest(http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.TraceID != "" {
		httpReq.Header.Set(obs.TraceHeader, c.TraceID)
		httpReq.Header.Set(obs.SpanHeader, obs.NewSpanID())
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		we := &workerHTTPError{status: httpResp.StatusCode}
		var eb errorBody
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
			we.err = fmt.Errorf("serve: worker %s: %s (HTTP %d)", worker, eb.Error, httpResp.StatusCode)
		} else {
			we.err = fmt.Errorf("serve: worker %s: HTTP %d", worker, httpResp.StatusCode)
		}
		// The shed schedule arrives twice; prefer the millisecond envelope
		// field over the whole-second header.
		if eb.RetryAfterMs > 0 {
			we.retryAfter = time.Duration(eb.RetryAfterMs * float64(time.Millisecond))
		} else if secs, err := strconv.Atoi(httpResp.Header.Get("Retry-After")); err == nil && secs > 0 {
			we.retryAfter = time.Duration(secs) * time.Second
		}
		return we
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// DefaultChunkAttempts is the remote attempts per chunk before the local
// fallback: with the default one-reroute-then-once-more shape, a chunk
// survives its worker dying and the replacement being busy.
const DefaultChunkAttempts = 3

// DefaultRetryBase and DefaultRetryMax shape the default backoff.
const (
	DefaultRetryBase = 250 * time.Millisecond
	DefaultRetryMax  = 5 * time.Second
)

// fetchChunk runs one chunk's remote attempts: reroute-on-failure across
// the worker ring starting at slot, capped exponential backoff with
// jitter between attempts, shed schedules honoured. Returns nil on the
// first success; fingerprint mismatches and non-shed 4xx answers return
// immediately (retrying or falling back would mask misconfiguration).
func (c *ShardClient) fetchChunk(slot int, ck chunk, fetch func(worker string, ck chunk) error) error {
	attempts := c.ChunkAttempts
	if attempts <= 0 {
		attempts = DefaultChunkAttempts
	}
	base := c.RetryBase
	if base <= 0 {
		base = DefaultRetryBase
	}
	cap := c.RetryMax
	if cap <= 0 {
		cap = DefaultRetryMax
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = fetch(c.Workers[slot%len(c.Workers)], ck)
		if err == nil || errors.Is(err, errFingerprint) {
			return err
		}
		var we *workerHTTPError
		shed := errors.As(err, &we) && we.status == http.StatusTooManyRequests
		if !shed && we != nil && we.status < 500 {
			return err // deterministic client error: no retry will change it
		}
		if attempt+1 >= attempts {
			return err
		}
		delay := base << attempt
		if delay > cap || delay <= 0 {
			delay = cap
		}
		if shed {
			// Honour the worker's schedule (it knows its bucket) and stay
			// on it: admission pressure is not death.
			if we.retryAfter > delay {
				delay = we.retryAfter
			}
		} else {
			slot++ // reroute: the next attempt goes to the next worker
		}
		time.Sleep(delay + time.Duration(rand.Int63n(int64(delay/2)+1)))
	}
}

// scatter fans the chunks across the fleet and fills rows via fetch;
// chunks whose remote attempts are exhausted are recomputed locally via
// local. Both callbacks write only their own chunk's rows, so no
// synchronisation is needed beyond the fan-out join.
func (c *ShardClient) scatter(total int, fetch func(worker string, ck chunk) error, local func(ck chunk) error) error {
	if err := c.preflight(); err != nil {
		return err
	}
	cks := c.chunks(total)
	return parallel.ForEach(len(c.Workers), len(cks), func(_, i int) error {
		err := c.fetchChunk(i, cks[i], fetch)
		if err == nil {
			return nil
		}
		if c.Fallback == nil || errors.Is(err, errFingerprint) {
			return err
		}
		if lerr := local(cks[i]); lerr != nil {
			return fmt.Errorf("serve: chunk rows [%d,%d): worker: %v; local retry: %w",
				cks[i].lo, cks[i].hi, err, lerr)
		}
		return nil
	})
}

// SweepGradient reproduces Explorer.SweepGradient across the fleet:
// same values, same row order.
func (c *ShardClient) SweepGradient(chip float64, lasers, heaters []float64) ([][]dse.GradientPoint, error) {
	if len(lasers) == 0 || len(heaters) == 0 {
		return nil, fmt.Errorf("serve: empty sweep axes")
	}
	out := make([][]dse.GradientPoint, len(lasers))
	sc := c.Scenario
	sc.Chip = chip
	err := c.scatter(len(lasers),
		func(worker string, ck chunk) error {
			req := GradientSweepRequest{Scenario: sc, Lasers: lasers, Heaters: heaters, RowStart: ck.lo, RowCount: ck.hi - ck.lo}
			var resp GradientSweepResponse
			if err := c.post(worker, "/v1/sweep/gradient", req, &resp); err != nil {
				return err
			}
			if err := c.checkFingerprint(worker, thermal.Resolution{ONICell: resp.ONICell, DieCell: resp.DieCell, MaxZCell: resp.MaxZCell}, resp.Solver); err != nil {
				return err
			}
			if resp.RowStart != ck.lo || len(resp.Rows) != ck.hi-ck.lo {
				return fmt.Errorf("serve: worker %s returned rows [%d,%d), want [%d,%d)",
					worker, resp.RowStart, resp.RowStart+len(resp.Rows), ck.lo, ck.hi)
			}
			copy(out[ck.lo:ck.hi], resp.Rows)
			return nil
		},
		func(ck chunk) error {
			ex, err := c.fallbackExplorer()
			if err != nil {
				return err
			}
			rows, err := ex.SweepGradient(chip, lasers[ck.lo:ck.hi], heaters)
			if err != nil {
				return err
			}
			copy(out[ck.lo:ck.hi], rows)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepAvgTemp reproduces Explorer.SweepAvgTemp across the fleet.
func (c *ShardClient) SweepAvgTemp(chips, lasers []float64) ([][]dse.AvgTempPoint, error) {
	if len(chips) == 0 || len(lasers) == 0 {
		return nil, fmt.Errorf("serve: empty sweep axes")
	}
	out := make([][]dse.AvgTempPoint, len(chips))
	err := c.scatter(len(chips),
		func(worker string, ck chunk) error {
			req := AvgTempSweepRequest{Scenario: c.Scenario, Chips: chips, Lasers: lasers, RowStart: ck.lo, RowCount: ck.hi - ck.lo}
			var resp AvgTempSweepResponse
			if err := c.post(worker, "/v1/sweep/avgtemp", req, &resp); err != nil {
				return err
			}
			if err := c.checkFingerprint(worker, thermal.Resolution{ONICell: resp.ONICell, DieCell: resp.DieCell, MaxZCell: resp.MaxZCell}, resp.Solver); err != nil {
				return err
			}
			if resp.RowStart != ck.lo || len(resp.Rows) != ck.hi-ck.lo {
				return fmt.Errorf("serve: worker %s returned rows [%d,%d), want [%d,%d)",
					worker, resp.RowStart, resp.RowStart+len(resp.Rows), ck.lo, ck.hi)
			}
			copy(out[ck.lo:ck.hi], resp.Rows)
			return nil
		},
		func(ck chunk) error {
			ex, err := c.fallbackExplorer()
			if err != nil {
				return err
			}
			rows, err := ex.SweepAvgTemp(chips[ck.lo:ck.hi], lasers)
			if err != nil {
				return err
			}
			copy(out[ck.lo:ck.hi], rows)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
