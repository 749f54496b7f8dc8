package serve

// Admission control for the cheap-query hot path, VSA-style: the admit
// decision is one lock-free O(1) check — a GCRA (generic cell rate
// algorithm / virtual-scheduling leaky bucket) whose entire state is a
// single atomic int64, the theoretical arrival time of the next
// conforming request. The hot path never takes a lock and never writes a
// map: per-client buckets are found with one sync.Map load, accounting is
// plain atomic adds ("information, not traffic"), and everything that
// needs iteration — idle-client garbage collection, the tracked-client
// gauge — runs off-path on the server's background flusher.
//
// Shed requests get HTTP 429 with the standard JSON error envelope plus a
// Retry-After header (and retry_after_ms in the body) computed from the
// bucket's schedule, so well-behaved clients can pace themselves instead
// of retrying into the same wall.

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultAdmitBurst is the burst a rate-limited bucket tolerates when the
// configuration leaves it zero: large enough that a well-paced client
// never sheds on scheduling jitter, small enough that a hot-key stampede
// is flattened within one burst.
const DefaultAdmitBurst = 16

// DefaultMaxClients bounds the per-client buckets a server tracks.
// Clients beyond the bound are still admission-controlled by the
// server-wide bucket; they just lose their individual rate share until
// the flusher garbage-collects idle buckets.
const DefaultMaxClients = 4096

// admitFlushInterval is the off-path accounting cadence: how often the
// background flusher folds per-client state (idle-bucket GC, the
// tracked-client gauge) — never on the request path.
const admitFlushInterval = time.Second

// admitClientIdleAfter is how long a client bucket may go unused before
// the flusher reclaims it. A returning client restarts with a full
// burst — the cost of keeping eviction O(idle), not O(traffic).
const admitClientIdleAfter = time.Minute

// gcra is a lock-free rate limiter: tat holds the theoretical arrival
// time (ns) of the next conforming request. A request at time t conforms
// when max(tat, t) + emission - t <= limit; admitting advances tat by one
// emission interval with a single CAS. Sustained throughput is
// 1/emission requests per ns with `limit/emission` requests of burst.
type gcra struct {
	tat      atomic.Int64
	emission int64 // ns between conforming requests at the sustained rate
	limit    int64 // ns of schedule slack = emission × burst
}

// newGCRA builds a limiter admitting rate requests/second with the given
// burst. rate must be positive; burst < 1 is clamped to 1.
func newGCRA(rate float64, burst int) *gcra {
	if burst < 1 {
		burst = 1
	}
	emission := int64(1e9 / rate)
	if emission < 1 {
		emission = 1
	}
	return &gcra{emission: emission, limit: emission * int64(burst)}
}

// admit decides one request at time now (ns). On shed it reports how long
// the caller should wait before the next request would conform.
func (g *gcra) admit(now int64) (ok bool, retryAfter time.Duration) {
	for {
		tat := g.tat.Load()
		base := tat
		if now > base {
			base = now
		}
		next := base + g.emission
		if next-now > g.limit {
			wait := tat + g.emission - g.limit - now
			if wait < 0 {
				wait = 0
			}
			return false, time.Duration(wait)
		}
		if g.tat.CompareAndSwap(tat, next) {
			return true, 0
		}
	}
}

// clientBucket is one tracked client's limiter plus the idle timestamp
// the flusher GCs on. Both fields are atomics: the hot path only loads
// and CASes.
type clientBucket struct {
	g        gcra
	lastSeen atomic.Int64
}

// admission is the server's admission controller.
type admission struct {
	server     *gcra // nil = no server-wide rate
	clientRate float64
	// clientEmission/clientLimit are the precomputed gcra parameters
	// every client bucket shares.
	clientEmission, clientLimit int64
	maxClients                  int

	clients     sync.Map // client id -> *clientBucket
	clientCount atomic.Int64

	// Coalesced accounting: the request path does nothing but these
	// atomic adds; aggregation and per-client bookkeeping happen on the
	// flusher.
	admitted atomic.Int64
	shed     atomic.Int64
	overflow atomic.Int64 // requests from clients beyond maxClients
}

// newAdmission builds a controller; nil when both rates are unlimited so
// the hot path can skip admission with one pointer check.
func newAdmission(cfg Config) *admission {
	if cfg.AdmitRate <= 0 && cfg.ClientRate <= 0 {
		return nil
	}
	a := &admission{clientRate: cfg.ClientRate, maxClients: DefaultMaxClients}
	if a.clientRate > 0 {
		burst := cfg.ClientBurst
		if burst <= 0 {
			burst = DefaultAdmitBurst
		}
		proto := newGCRA(a.clientRate, burst)
		a.clientEmission, a.clientLimit = proto.emission, proto.limit
	}
	if cfg.AdmitRate > 0 {
		burst := cfg.AdmitBurst
		if burst <= 0 {
			burst = DefaultAdmitBurst
		}
		a.server = newGCRA(cfg.AdmitRate, burst)
	}
	return a
}

// admit runs the O(1) hot-path check for one request. Both levels are
// consulted — the per-client bucket first (a greedy client must not
// starve its neighbours), then the server-wide bucket.
func (a *admission) admit(client string, now int64) (ok bool, retryAfter time.Duration) {
	if a == nil {
		return true, 0
	}
	if a.clientRate > 0 {
		if b := a.clientFor(client, now); b != nil {
			if ok, wait := b.g.admit(now); !ok {
				a.shed.Add(1)
				return false, wait
			}
		} else {
			a.overflow.Add(1)
		}
	}
	if a.server != nil {
		if ok, wait := a.server.admit(now); !ok {
			a.shed.Add(1)
			return false, wait
		}
	}
	a.admitted.Add(1)
	return true, 0
}

// clientFor finds (or creates, bounded) the client's bucket. Returns nil
// when the tracking table is full — those clients fall back to the
// server-wide bucket only.
func (a *admission) clientFor(client string, now int64) *clientBucket {
	if v, ok := a.clients.Load(client); ok {
		b := v.(*clientBucket)
		b.lastSeen.Store(now)
		return b
	}
	if a.clientCount.Load() >= int64(a.maxClients) {
		return nil
	}
	b := &clientBucket{}
	b.g.emission, b.g.limit = a.clientEmission, a.clientLimit
	b.lastSeen.Store(now)
	if actual, loaded := a.clients.LoadOrStore(client, b); loaded {
		b = actual.(*clientBucket)
		b.lastSeen.Store(now)
		return b
	}
	a.clientCount.Add(1)
	return b
}

// gcIdle reclaims client buckets unused since the cutoff — the flusher's
// off-path share of the accounting work.
func (a *admission) gcIdle(cutoff int64) {
	if a == nil {
		return
	}
	a.clients.Range(func(key, v any) bool {
		if v.(*clientBucket).lastSeen.Load() < cutoff {
			a.clients.Delete(key)
			a.clientCount.Add(-1)
		}
		return true
	})
}

// stats snapshots the coalesced counters.
func (a *admission) stats() (admitted, shed int64, clients int) {
	if a == nil {
		return 0, 0, 0
	}
	return a.admitted.Load(), a.shed.Load(), int(a.clientCount.Load())
}

// flusher is the server's background accounting loop: every interval it
// folds per-client admission state. It owns the only iteration over the
// client table — the request path never pays for it.
func (s *Server) flusher() {
	defer s.flushWG.Done()
	t := time.NewTicker(admitFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.st.adm.gcIdle(time.Now().Add(-admitClientIdleAfter).UnixNano())
		}
	}
}

// clientID identifies the caller for per-client admission: the
// X-Client-ID header when present (how multiplexing proxies and loadgen
// label their principals), otherwise the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// shedError is the 429 a shed request gets: statusError semantics plus
// the retry schedule for the envelope and Retry-After header.
func shedError(retryAfter time.Duration) error {
	if retryAfter <= 0 {
		// Lost a photo-finish race with a conforming request: "retry
		// immediately" still must carry a positive schedule.
		retryAfter = time.Millisecond
	}
	return &statusError{
		code:       http.StatusTooManyRequests,
		retryAfter: retryAfter,
		err:        fmt.Errorf("serve: query shed (admission rate exceeded); retry in %v", retryAfter),
	}
}
