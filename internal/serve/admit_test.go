package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vcselnoc/internal/thermal"
)

// TestGCRASchedule drives the limiter with a synthetic clock: burst
// admits instantly, sustained traffic is paced at the configured rate,
// and the shed verdict's retry-after lands exactly on the next
// conforming instant.
func TestGCRASchedule(t *testing.T) {
	g := newGCRA(10, 2) // emission 100 ms, limit 200 ms
	now := int64(0)
	for i := 0; i < 2; i++ {
		if ok, _ := g.admit(now); !ok {
			t.Fatalf("burst request %d shed", i)
		}
	}
	ok, retry := g.admit(now)
	if ok {
		t.Fatal("third instantaneous request admitted past burst 2")
	}
	if retry != 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want 100ms", retry)
	}
	// Exactly at the advertised instant the request conforms again.
	now += int64(retry)
	if ok, _ := g.admit(now); !ok {
		t.Fatal("request at the advertised retry instant shed")
	}
	// Sustained pacing: one request per emission interval is always
	// admitted, forever.
	for i := 0; i < 50; i++ {
		now += int64(100 * time.Millisecond)
		if ok, _ := g.admit(now); !ok {
			t.Fatalf("paced request %d shed", i)
		}
	}
	// After a long idle gap the full burst is available again.
	now += int64(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := g.admit(now); !ok {
			t.Fatalf("post-idle burst request %d shed", i)
		}
	}
}

// TestGCRAConcurrentBurst: N goroutines racing the same instant admit
// exactly burst requests — the atomic CAS loop neither over- nor
// under-admits.
func TestGCRAConcurrentBurst(t *testing.T) {
	const n, burst = 64, 8
	g := newGCRA(1, burst)
	now := time.Now().UnixNano()
	var admitted, shed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, _ := g.admit(now)
			mu.Lock()
			if ok {
				admitted++
			} else {
				shed++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if admitted != burst || shed != n-burst {
		t.Fatalf("admitted %d shed %d, want %d/%d", admitted, shed, burst, n-burst)
	}
}

// admitServer builds a warm preview server with the given admission
// configuration.
func admitServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	cfg.Spec = spec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	return s
}

// postAs posts a gradient query under a client identity.
func postAs(s *Server, client, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/gradient", strings.NewReader(body))
	req.Header.Set("X-Client-ID", client)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestAdmissionShed pins the 429 surface: a spec-wide rate of 1/s with
// burst 2 admits two instantaneous queries and sheds the third with the
// JSON envelope, a positive Retry-After header and retry_after_ms.
func TestAdmissionShed(t *testing.T) {
	s := admitServer(t, Config{AdmitRate: 1, AdmitBurst: 2})
	const q = `{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`
	for i := 0; i < 2; i++ {
		if w := postAs(s, "c1", q); w.Code != http.StatusOK {
			t.Fatalf("burst query %d: %d (%s)", i, w.Code, w.Body.String())
		}
	}
	w := postAs(s, "c1", q)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst query = %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("429 Content-Type = %q", ct)
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.ParseInt(ra, 10, 64)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count", ra)
	}
	eb := decodeBody[errorBody](t, w)
	if eb.Error == "" || eb.RetryAfterMs <= 0 {
		t.Fatalf("shed envelope = %+v, want error text and positive retry_after_ms", eb)
	}
	// The shed query is visible in the stats and never reached a solve.
	admitted, shed, _ := s.st.adm.stats()
	if admitted != 2 || shed != 1 {
		t.Fatalf("admitted/shed = %d/%d, want 2/1", admitted, shed)
	}
}

// TestAdmissionPerClient: one greedy client exhausting its own bucket
// must not shed its neighbours.
func TestAdmissionPerClient(t *testing.T) {
	s := admitServer(t, Config{ClientRate: 0.5, ClientBurst: 1})
	const q = `{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`
	if w := postAs(s, "greedy", q); w.Code != http.StatusOK {
		t.Fatalf("greedy first query: %d", w.Code)
	}
	if w := postAs(s, "greedy", q); w.Code != http.StatusTooManyRequests {
		t.Fatalf("greedy second query = %d, want 429", w.Code)
	}
	if w := postAs(s, "patient", q); w.Code != http.StatusOK {
		t.Fatalf("other client shed by greedy neighbour: %d", w.Code)
	}
	if _, _, clients := s.st.adm.stats(); clients != 2 {
		t.Fatalf("tracked clients = %d, want 2", clients)
	}
}

// TestAdmissionIdleClientGC: the off-path flusher reclaims idle client
// buckets (driven directly here — the ticker cadence is too slow for a
// test).
func TestAdmissionIdleClientGC(t *testing.T) {
	a := newAdmission(Config{ClientRate: 100, ClientBurst: 4})
	now := time.Now().UnixNano()
	for i := 0; i < 10; i++ {
		a.admit(fmt.Sprintf("c%d", i), now)
	}
	if _, _, clients := a.stats(); clients != 10 {
		t.Fatalf("tracked clients = %d, want 10", clients)
	}
	// Touch one client later; GC at a cutoff between the two instants.
	a.admit("c0", now+int64(2*time.Minute))
	a.gcIdle(now + int64(time.Minute))
	if _, _, clients := a.stats(); clients != 1 {
		t.Fatalf("clients after GC = %d, want 1", clients)
	}
}

// TestAdmissionClientOverflow: clients beyond the tracked-bucket bound
// (DefaultMaxClients, lowered here) still get served (spec bucket
// permitting) instead of erroring.
func TestAdmissionClientOverflow(t *testing.T) {
	a := newAdmission(Config{ClientRate: 1, ClientBurst: 1})
	a.maxClients = 2
	now := time.Now().UnixNano()
	for i := 0; i < 4; i++ {
		ok, _ := a.admit(fmt.Sprintf("c%d", i), now)
		if !ok {
			t.Fatalf("client %d shed", i)
		}
	}
	if _, _, clients := a.stats(); clients != 2 {
		t.Fatalf("tracked clients = %d, want cap 2", clients)
	}
	if got := a.overflow.Load(); got != 2 {
		t.Fatalf("overflow = %d, want 2", got)
	}
}

// TestAdmissionHammer mixes admitted, shed, evaluated and cached queries
// on one hot spec from many goroutines — the -race test of the admission
// hot path. Every response must be 200 or a well-formed 429, and the
// admission ledger must balance exactly.
func TestAdmissionHammer(t *testing.T) {
	s := admitServer(t, Config{
		AdmitRate: 200, AdmitBurst: 16,
		ClientRate: 100, ClientBurst: 8,
	})
	bodies := []string{
		`{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`, // hot key
		`{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`, // hot key again
		`{"chip": 26, "pvcsel": 3e-3, "pheater": 1e-3}`,
		`{"chip": 24, "pvcsel": 1e-3, "pheater": 0}`,
	}
	const workers, rounds = 8, 16
	var wg sync.WaitGroup
	errc := make(chan error, workers*rounds)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			client := fmt.Sprintf("hammer-%d", wkr%4)
			for i := 0; i < rounds; i++ {
				w := postAs(s, client, bodies[(wkr+i)%len(bodies)])
				switch w.Code {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					if w.Header().Get("Retry-After") == "" {
						errc <- fmt.Errorf("429 without Retry-After")
					}
				default:
					errc <- fmt.Errorf("unexpected status %d (%s)", w.Code, w.Body.String())
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := s.st
	admitted, shed, _ := st.adm.stats()
	if admitted+shed != workers*rounds {
		t.Fatalf("admission ledger %d admitted + %d shed != %d requests", admitted, shed, workers*rounds)
	}
	// Every admitted query was answered by a cache hit or an evaluation.
	hits, _ := st.cache.Stats()
	if evals := st.evals.Load(); hits+evals != admitted {
		t.Fatalf("cache hits %d + evaluations %d != admitted %d", hits, evals, admitted)
	}
}
