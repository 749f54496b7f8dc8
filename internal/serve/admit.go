package serve

// Admission control for the cheap-query hot path, VSA-style: the admit
// decision is one lock-free O(1) check — a server-wide GCRA (generic cell
// rate algorithm / virtual-scheduling leaky bucket) whose entire state is
// a single atomic int64, the theoretical arrival time of the next
// conforming request. The hot path never takes a lock, and its accounting
// is two atomic counters.
//
// Shed requests get HTTP 429 with the standard JSON error envelope plus a
// Retry-After header (and retry_after_ms in the body) computed from the
// bucket's schedule, so well-behaved clients can pace themselves instead
// of retrying into the same wall.

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultAdmitBurst is the burst the server-wide bucket tolerates when
// the configuration leaves it zero: large enough that well-paced traffic
// never sheds on scheduling jitter, small enough that a hot-key stampede
// is flattened within one burst.
const DefaultAdmitBurst = 16

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

// admission is the server's admission controller: the server-wide
// bucket and its coalesced counters.
type admission struct {
	g              *gcra
	admitted, shed atomic.Int64
}

// newAdmission builds a controller; nil when the rate is unlimited so the
// hot path can skip admission with one pointer check.
func newAdmission(rate float64, burst int) *admission {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = DefaultAdmitBurst
	}
	return &admission{g: newGCRA(rate, burst)}
}

// admit runs the O(1) hot-path check for one request at time now (ns).
func (a *admission) admit(now int64) (ok bool, retryAfter time.Duration) {
	if a == nil {
		return true, 0
	}
	if ok, wait := a.g.admit(now); !ok {
		a.shed.Add(1)
		return false, wait
	}
	a.admitted.Add(1)
	return true, 0
}

// stats snapshots the counters.
func (a *admission) stats() (admitted, shed int64) {
	if a == nil {
		return 0, 0
	}
	return a.admitted.Load(), a.shed.Load()
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
