package thermal

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/fvm"
)

// groupNames are the unit fields in Basis.unit order.
var groupNames = [4]string{"chip", "vcsel", "driver", "heater"}

// memoModel builds a fresh preview model.
func memoModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(previewSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// columnHashes hashes each of a basis's four unit fields.
func columnHashes(b *Basis) [4]uint64 {
	var hs [4]uint64
	col := make([]float64, len(b.unit))
	for g := range hs {
		for c, u := range b.unit {
			col[c] = u[g]
		}
		hs[g] = fvm.HashFloat64s(col)
	}
	return hs
}

// resultFloats lists every float a Result reports.
func resultFloats(r *Result) []float64 {
	xs := []float64{r.ChipAvg, r.ChipMax}
	for _, o := range r.ONIs {
		xs = append(xs, o.AvgTemp, o.Gradient)
		xs = append(xs, o.VCSELTemps...)
		xs = append(xs, o.MRTemps...)
	}
	return xs
}

// maxAbsDiff is the largest element-wise |a − b|.
func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}

// TestDeviceFieldMemo compares the shared preview bases (previewBases: a
// diagonal basis asked for first on a fresh model, then a random one)
// with bases asked for on a second fresh model — whose first build fails
// — from concurrent goroutines, with a diagonal basis built there after
// the uniform basis, and with solves of all four fields.
func TestDeviceFieldMemo(t *testing.T) {
	acts := []activity.Scenario{nil, activity.Diagonal{}, activity.Random{Seed: 7}}
	_, shared := previewBases(t)
	serial := []*Basis{shared["uniform"], shared["diagonal"], shared["random"]}

	m := memoModel(t)
	// Without heaters the heater column's unit power is infinite, which
	// fails the uniform block before it solves.
	heaters := m.heaterCount
	m.heaterCount = 0
	if _, err := m.Basis(acts[1]); err == nil {
		t.Fatal("a build whose uniform block failed succeeded")
	}
	if warm := m.BasisCacheStats().Warm; warm != 0 {
		t.Fatalf("a failed uniform block left %d bases cached or in flight", warm)
	}
	m.heaterCount = heaters
	concurrent := make([]*Basis, len(acts))
	errs := make([]error, len(acts))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, act := range acts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			concurrent[i], errs[i] = m.Basis(act)
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	diagAfter, err := m.BuildBasis(acts[1])
	if err != nil {
		t.Fatal(err)
	}

	t.Run("concurrent", func(t *testing.T) { testConcurrentBuilds(t, serial, concurrent) })
	t.Run("order-independence", func(t *testing.T) { testOrderIndependent(t, serial, diagAfter) })
	t.Run("block-equivalence", func(t *testing.T) { testMatchesBlockSolve(t, m, acts[1:], serial[1:]) })
}

// testConcurrentBuilds: uniform, diagonal and random bases asked for at
// once on a fresh model match the serial build bit for bit, with the
// uniform block run once: the columns the builds report solving add up
// to one block plus one chip field per activity basis, in whichever order
// the builds ran. Run under -race this is the data-race check for the
// model's single-flight basis cache.
func testConcurrentBuilds(t *testing.T, serial, concurrent []*Basis) {
	columns := 0
	for i, b := range concurrent {
		if got, want := columnHashes(b), columnHashes(serial[i]); got != want {
			t.Errorf("%s: field hashes %x, serial %x", b.activity.Name(), got, want)
		}
		columns += b.BuildStats().Columns
	}
	if chips := len(concurrent) - 1; columns != 4+chips {
		t.Errorf("builds solved %d columns, want %d: one uniform block plus %d chip fields",
			columns, 4+chips, chips)
	}
}

// testOrderIndependent: a diagonal basis asked for first on a fresh
// model, whose build builds the cached uniform basis, is bit-identical to
// one built after the uniform basis, and every activity basis's VCSEL,
// driver and heater fields are the uniform basis's bits. Each activity
// basis reports its own chip-field solve alone.
func testOrderIndependent(t *testing.T, serial []*Basis, diagAfter *Basis) {
	uniform, diagFirst, random := serial[0], serial[1], serial[2]
	for _, c := range []struct {
		name string
		b    *Basis
		want int
	}{{"uniform", uniform, 4}, {"diagonal first", diagFirst, 1}, {"random", random, 1}, {"diagonal after", diagAfter, 1}} {
		if got := c.b.BuildStats().Columns; got != c.want {
			t.Errorf("%s: %d columns solved, want %d", c.name, got, c.want)
		}
	}
	hf, ha, hr, hu := columnHashes(diagFirst), columnHashes(diagAfter), columnHashes(random), columnHashes(uniform)
	for g, name := range groupNames {
		if hf[g] != ha[g] {
			t.Errorf("%s field: diagonal built first %016x, after the uniform basis %016x", name, hf[g], ha[g])
		}
		if g > 0 && (ha[g] != hu[g] || hr[g] != hu[g]) {
			t.Errorf("%s field: diagonal %016x, random %016x, uniform %016x", name, ha[g], hr[g], hu[g])
		}
	}
	if !reflect.DeepEqual(diagFirst.proj, diagAfter.proj) {
		t.Error("projected functionals depend on build order")
	}
}

// testMatchesBlockSolve: an activity basis — the uniform basis's device
// fields plus its own one-column chip solve — is bit-identical to solving
// all four of that activity's fields, in every unit field and every
// Result float, with the heater off and on. Each reference solves four
// fields, so -short checks the first activity only.
func testMatchesBlockSolve(t *testing.T, m *Model, acts []activity.Scenario, bases []*Basis) {
	if testing.Short() {
		acts = acts[:1]
	}
	points := []Powers{
		{Chip: 25, VCSEL: 3e-3, Driver: 3e-3},
		{Chip: 18, VCSEL: 4e-3, Driver: 4e-3, Heater: 1.2e-3},
		{Chip: 31, VCSEL: 2e-3, Driver: 2e-3, Heater: 0.6e-3},
	}
	for a, act := range acts {
		want, err := m.solveBlock(act)
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := columnHashes(bases[a]), columnHashes(want); got != ref {
			t.Errorf("%s: field hashes %x, four-field solve %x", act.Name(), got, ref)
		}
		for i, p := range points {
			g, err := bases[a].Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			gf, wf := resultFloats(g), resultFloats(w)
			if len(gf) != len(wf) {
				t.Fatalf("%s point %d: %d report floats, reference %d", act.Name(), i, len(gf), len(wf))
			}
			if !reflect.DeepEqual(gf, wf) {
				t.Errorf("%s point %d: report differs from the four-field solve's by up to %.3g °C", act.Name(), i, maxAbsDiff(gf, wf))
			}
		}
	}
}
