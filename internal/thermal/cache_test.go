package thermal

import (
	"reflect"
	"sync"
	"testing"

	"vcselnoc/internal/activity"
)

// TestBasisCache runs on the shared preview model (previewBases) with the
// cache bound lowered to 3: the uniform basis and two others. It checks
// that the least-recently-used basis is evicted but never the uniform
// one, that a holder of an evicted basis can still evaluate it, that a
// rebuild is bit-identical to the first build and to a fresh model's,
// that a uniform query after evictions builds nothing, and — run under
// -race — that Basis and CachedBasis calls that evict one another from
// many goroutines keep the cache consistent.
func TestBasisCache(t *testing.T) {
	m, shared := previewBases(t)
	defer func(n int) { m.maxBases = n }(m.maxBases)
	m.maxBases = 3
	uniform := shared["uniform"]
	diag, r7, r8 := activity.Diagonal{}, activity.Random{Seed: 7}, activity.Random{Seed: 8}
	// Fill the cache with two known shapes. In a fresh test binary both
	// are still cached from previewBases, so nothing builds.
	diagonal, err := m.Basis(diag)
	if err != nil {
		t.Fatal(err)
	}
	random7, err := m.Basis(r7)
	if err != nil {
		t.Fatal(err)
	}
	p := Powers{Chip: 25, Activity: r7, VCSEL: 2e-3, Driver: 2e-3, Heater: 0.6e-3}
	first, err := random7.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := func(when string, warm int, builds, evictions int64) {
		t.Helper()
		if got := m.BasisCacheStats(); got != (BasisCacheStats{Warm: warm, Builds: builds, Evictions: evictions}) {
			t.Fatalf("%s: cache %+v, want %d warm, %d builds, %d evictions", when, got, warm, builds, evictions)
		}
	}
	cached := func(act activity.Scenario, b *Basis) {
		t.Helper()
		if got := m.CachedBasis(act); got != b {
			t.Fatalf("cached %s basis %p, want %p", activity.Key(act), got, b)
		}
	}
	s0 := m.BasisCacheStats()
	want("start", 3, s0.Builds, s0.Evictions)

	// Use the uniform basis first, so it is the least recently used: a
	// new shape must evict the random basis instead.
	cached(nil, uniform)
	cached(r7, random7)
	cached(diag, diagonal)
	if _, err := m.Basis(r8); err != nil {
		t.Fatal(err)
	}
	want("a new shape", 3, s0.Builds+1, s0.Evictions+1)
	cached(r7, nil)
	cached(nil, uniform)

	held, err := random7.Evaluate(p)
	if err != nil {
		t.Fatalf("evicted basis unusable by its holder: %v", err)
	}
	if !reflect.DeepEqual(held.Field(), first.Field()) || !reflect.DeepEqual(held.ONIs, first.ONIs) {
		t.Fatal("evicted basis evaluates differently for its holder")
	}

	// Asking for the evicted shape rebuilds it, evicting the diagonal
	// basis, now the least recently used, bit for bit.
	rebuilt, err := m.Basis(r7)
	if err != nil {
		t.Fatal(err)
	}
	want("the rebuild", 3, s0.Builds+2, s0.Evictions+2)
	cached(diag, nil)
	if rebuilt == random7 {
		t.Fatal("the rebuild returned the evicted basis")
	}
	for _, b := range []*Basis{random7, shared["random"]} {
		if columnHashes(rebuilt) != columnHashes(b) || !reflect.DeepEqual(rebuilt.proj, b.proj) {
			t.Fatal("rebuilt basis differs from the first build")
		}
	}
	again, err := rebuilt.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Field(), first.Field()) || !reflect.DeepEqual(again.ONIs, first.ONIs) {
		t.Fatal("rebuilt basis evaluates to a different temperature field")
	}
	if b, err := m.Basis(nil); err != nil || b != uniform {
		t.Fatalf("uniform basis after evictions: %p, %v; want the cached %p", b, err, uniform)
	}
	want("a uniform query", 3, s0.Builds+2, s0.Evictions+2)

	// TestDeviceFieldMemo/concurrent compares this basis with a second
	// fresh model's under every mode; here the whole chain of a fresh
	// model — uniform block, then chip field — must reproduce the
	// rebuilt basis's answer too.
	if !testing.Short() {
		fresh, err := NewModel(previewSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Basis(r7)
		if err != nil {
			t.Fatal(err)
		}
		r, err := b.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Field(), again.Field()) || !reflect.DeepEqual(r.ONIs, again.ONIs) {
			t.Fatal("rebuilt basis differs from a fresh model's")
		}
	}

	t.Run("concurrent", func(t *testing.T) { testCacheConcurrent(t, m, uniform) })
}

// testCacheConcurrent asks for four new random shapes at once on a full
// cache that holds two besides the uniform basis, so every insertion
// evicts, some of them bases still building, while every goroutine peeks
// at every shape with CachedBasis and reads the counters.
func testCacheConcurrent(t *testing.T, m *Model, uniform *Basis) {
	s0 := m.BasisCacheStats()
	acts := []activity.Scenario{nil}
	for seed := int64(100); seed < 104; seed++ {
		acts = append(acts, activity.Random{Seed: seed})
	}
	got := make([]*Basis, len(acts))
	errs := make([]error, len(acts))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < len(acts); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = m.Basis(acts[i])
			for _, act := range acts {
				if b := m.CachedBasis(act); b != nil && activity.Key(b.activity) != activity.Key(act) {
					t.Errorf("CachedBasis(%s) returned the %s basis", activity.Key(act), activity.Key(b.activity))
				}
				if w := m.BasisCacheStats().Warm; w > 3 {
					t.Errorf("%d bases cached, bound 3", w)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	n := int64(len(acts) - 1)
	if s := m.BasisCacheStats(); s != (BasisCacheStats{Warm: 3, Builds: s0.Builds + n, Evictions: s0.Evictions + n}) {
		t.Fatalf("cache %+v after %d concurrent builds into a full cache, want 3 warm, %d builds, %d evictions",
			s, n, s0.Builds+n, s0.Evictions+n)
	}
	if b := m.CachedBasis(nil); b != uniform {
		t.Fatal("concurrent evictions dropped the uniform basis")
	}
	hu := columnHashes(uniform)
	for i, b := range got[1:] {
		if errs[i+1] != nil {
			t.Fatal(errs[i+1])
		}
		if activity.Key(b.activity) != activity.Key(acts[i+1]) {
			t.Fatalf("Basis(%s) returned the %s basis", activity.Key(acts[i+1]), activity.Key(b.activity))
		}
		if h := columnHashes(b); h[1] != hu[1] || h[2] != hu[2] || h[3] != hu[3] {
			t.Errorf("%s: device fields %x, uniform %x", activity.Key(b.activity), h[1:], hu[1:])
		}
	}
}
