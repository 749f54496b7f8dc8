package thermal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/geom"
)

// referenceReport is the report as a box scan of the full field:
// fvm.Solution.StatsOver per ONI site, per device and over the BEOL —
// the path the projected functionals replace, kept as their reference.
func referenceReport(t *testing.T, m *Model, field []float64, p Powers) *Result {
	t.Helper()
	sol := &fvm.Solution{Grid: m.grid, T: field}
	stats := func(box geom.Box) fvm.RegionStats {
		st, err := sol.StatsOver(box)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	optical := func(r geom.Rect) geom.Box { return r.Extrude(m.opticalSpan.Z0, m.opticalSpan.Z1) }
	res := &Result{Powers: p}
	for i, layout := range m.onis {
		rep := ONIReport{Index: i, Site: layout.Site, AvgTemp: stats(optical(layout.Site)).Mean}
		type device struct {
			name    string
			rect    geom.Rect
			isVCSEL bool
		}
		var devices []device
		for _, v := range layout.VCSELs {
			devices = append(devices, device{v.Name, v.Rect, true})
		}
		for _, r := range layout.MRs {
			devices = append(devices, device{r.Name, r.Rect, false})
		}
		minT, maxT := math.Inf(1), math.Inf(-1)
		for _, d := range devices {
			mean := stats(optical(d.rect)).Mean
			if d.isVCSEL {
				rep.VCSELTemps = append(rep.VCSELTemps, mean)
			} else {
				rep.MRTemps = append(rep.MRTemps, mean)
			}
			if mean > maxT {
				maxT = mean
				rep.HottestDevice = d.name
			}
			if mean < minT {
				minT = mean
				rep.ColdestDevice = d.name
			}
		}
		rep.Gradient = maxT - minT
		res.ONIs = append(res.ONIs, rep)
	}
	beol := stats(m.spec.Floorplan.Die.Extrude(m.beolSpan.Z0, m.beolSpan.Z1))
	res.ChipMax, res.ChipAvg = beol.Max, beol.Mean
	return res
}

// relDiff is the equivalence measure: |got − want| / max(1, |want|).
func relDiff(got, want float64) float64 { return math.Abs(got-want) / math.Max(1, math.Abs(want)) }

// compareReports checks every float of got against want to relDiff ≤
// 1e-12, ChipMax bit for bit and the extreme device names exactly, and
// returns the worst relative difference seen. The names may differ only
// where the reference ties within that bound — at the all-zero point
// every device sits at ambient and the reference's pick is rounding
// noise — and then got's device must read the reference's extreme.
func compareReports(t *testing.T, m *Model, label string, got, want *Result) float64 {
	t.Helper()
	worst := 0.0
	near := func(what string, g, w float64) {
		t.Helper()
		rel := relDiff(g, w)
		worst = math.Max(worst, rel)
		if !(rel <= 1e-12) {
			t.Errorf("%s: %s = %.17g, reference %.17g (rel %.2e)", label, what, g, w, rel)
		}
	}
	sameExtreme := func(i int, gotName, wantName string) bool {
		if gotName == wantName {
			return true
		}
		ref := map[string]float64{}
		w := want.ONIs[i]
		for j, v := range m.onis[i].VCSELs {
			ref[v.Name] = w.VCSELTemps[j]
		}
		for j, r := range m.onis[i].MRs {
			ref[r.Name] = w.MRTemps[j]
		}
		g, ok := ref[gotName]
		return ok && relDiff(g, ref[wantName]) <= 1e-12
	}
	if got.ChipMax != want.ChipMax {
		t.Errorf("%s: ChipMax %.17g, reference %.17g: not bit-identical", label, got.ChipMax, want.ChipMax)
	}
	near("ChipAvg", got.ChipAvg, want.ChipAvg)
	if len(got.ONIs) != len(want.ONIs) {
		t.Fatalf("%s: %d ONI reports, reference %d", label, len(got.ONIs), len(want.ONIs))
	}
	for i, w := range want.ONIs {
		g := got.ONIs[i]
		if g.Index != w.Index || g.Site != w.Site {
			t.Errorf("%s: ONI %d identity %d/%v, reference %d/%v", label, i, g.Index, g.Site, w.Index, w.Site)
		}
		near("AvgTemp", g.AvgTemp, w.AvgTemp)
		near("Gradient", g.Gradient, w.Gradient)
		if len(g.VCSELTemps) != len(w.VCSELTemps) || len(g.MRTemps) != len(w.MRTemps) {
			t.Fatalf("%s: ONI %d device counts %d/%d, reference %d/%d", label, i,
				len(g.VCSELTemps), len(g.MRTemps), len(w.VCSELTemps), len(w.MRTemps))
		}
		for j := range w.VCSELTemps {
			near("VCSELTemps", g.VCSELTemps[j], w.VCSELTemps[j])
		}
		for j := range w.MRTemps {
			near("MRTemps", g.MRTemps[j], w.MRTemps[j])
		}
		if !sameExtreme(i, g.HottestDevice, w.HottestDevice) || !sameExtreme(i, g.ColdestDevice, w.ColdestDevice) {
			t.Errorf("%s: ONI %d extremes %s/%s, reference %s/%s", label, i,
				g.HottestDevice, g.ColdestDevice, w.HottestDevice, w.ColdestDevice)
		}
	}
	return worst
}

// preview holds what previewBases builds once per test binary.
var preview struct {
	once  sync.Once
	m     *Model
	bases map[string]*Basis
	err   error
}

// previewBases returns a preview model and its uniform, diagonal and
// random bases, asked for once per test binary from the model's cache.
// The diagonal basis comes first, on the fresh model, so its build builds
// the cached uniform basis; the random basis follows, and asking for the
// uniform basis last builds nothing. TestDeviceFieldMemo compares other
// build orders against this one.
func previewBases(t *testing.T) (*Model, map[string]*Basis) {
	t.Helper()
	spec := previewSpec(t)
	preview.once.Do(func() {
		if preview.m, preview.err = NewModel(spec); preview.err != nil {
			return
		}
		preview.bases = map[string]*Basis{}
		for _, act := range []activity.Scenario{activity.Diagonal{}, activity.Random{Seed: 7}, activity.Uniform{}} {
			if preview.bases[act.Name()], preview.err = preview.m.Basis(act); preview.err != nil {
				return
			}
		}
		if builds := preview.m.BasisCacheStats().Builds; builds != 3 {
			preview.err = fmt.Errorf("three bases took %d builds, want 3", builds)
		}
	})
	if preview.err != nil {
		t.Fatal(preview.err)
	}
	return preview.m, preview.bases
}

// TestReducedEvaluateMatchesFieldScan: Evaluate's projected functionals
// reproduce the full-field box scan on every Result float, ChipMax (taken
// over the front) bit for bit, over three activity bases and operating
// points that each let one power group, or all of them at once, set the
// peak; applying the functionals to the built field (Model.report) agrees
// too, and Summary equals the evaluation's Summary exactly.
func TestReducedEvaluateMatchesFieldScan(t *testing.T) {
	m, bases := previewBases(t)
	points := map[string]Powers{
		"heater-off":  {Chip: 25, VCSEL: 3e-3, Driver: 3e-3},
		"heater-on":   {Chip: 18, VCSEL: 4e-3, Driver: 4e-3, Heater: 1.2e-3},
		"all-zero":    {},
		"chip-only":   {Chip: 25},
		"lasers-only": {VCSEL: 4e-3, Driver: 4e-3},
		"heater-only": {Heater: 1.2e-3},
		"hot":         {Chip: 40, VCSEL: 8e-3, Driver: 8e-3, Heater: 4e-3},
	}
	worst := 0.0
	for bname, b := range bases {
		for pname, p := range points {
			label := bname + "/" + pname
			got, err := b.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			field := got.Field()
			if len(field) != m.NumCells() {
				t.Fatalf("%s: field has %d cells, want %d", label, len(field), m.NumCells())
			}
			want := referenceReport(t, m, field, got.Powers)
			worst = math.Max(worst, compareReports(t, m, label, got, want))
			compareReports(t, m, label+" (report)", m.report(field, got.Powers), want)
			if !reflect.DeepEqual(got.Powers, want.Powers) {
				t.Errorf("%s: powers %+v, want %+v", label, got.Powers, want.Powers)
			}
			sum, err := b.Summary(p)
			if err != nil {
				t.Fatal(err)
			}
			if sum != got.Summary() {
				t.Errorf("%s: Summary %+v, Evaluate's %+v", label, sum, got.Summary())
			}
		}
	}
	t.Logf("worst relative difference vs the field scan: %.2e", worst)
}

// TestBasisFront: each preview basis keeps under a tenth of its BEOL
// cells in the front, the peak over the front equals the full BEOL scan
// bit for bit at random non-negative powers, and Summary allocates
// nothing.
func TestBasisFront(t *testing.T) {
	m, bases := previewBases(t)
	beol := m.beolMean.cells
	rng := rand.New(rand.NewSource(1))
	for name, b := range bases {
		if n := len(b.front); n == 0 || 10*n >= len(beol) {
			t.Errorf("%s: front keeps %d of %d BEOL cells, want under 10 %%", name, n, len(beol))
		} else {
			t.Logf("%s: front keeps %d of %d BEOL cells", name, n, len(beol))
		}
		for i := 0; i < 200; i++ {
			s := b.scales(Powers{Chip: 40 * rng.Float64(), VCSEL: 8e-3 * rng.Float64(),
				Driver: 8e-3 * rng.Float64(), Heater: 4e-3 * rng.Float64()})
			want := math.Inf(-1)
			for _, c := range beol {
				if v := s.at(b.unit[c]); v > want {
					want = v
				}
			}
			if got := b.chipMax(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: front peak %.17g, full BEOL scan %.17g", name, got, want)
			}
		}
		p := Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := b.Summary(p); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Summary made %.0f allocations per call, want 0", name, allocs)
		}
	}
}

// dominates is the front's order: u matches or exceeds v in all four
// components, both vectors being finite.
func dominates(u, v [4]float64) bool { return finite4(u) && finite4(v) && covers(u, v) }

// TestDominanceFront checks the front builder on synthetic vectors: no
// kept vector dominates another, every dropped vector is dominated by a
// kept one, and at 1 000 random non-negative scales (some of them zero)
// the peak over the front equals the peak over every vector bit for bit.
func TestDominanceFront(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rng := rand.New(rand.NewSource(2))
	random := make([][4]float64, 300)
	for i := range random {
		for g := range random[i] {
			random[i][g] = float64(rng.Intn(5)) + 0.25*float64(rng.Intn(2))
		}
	}
	cases := map[string][][4]float64{
		"single":     {{1, 2, 3, 4}},
		"duplicates": {{1, 2, 3, 4}, {1, 2, 3, 4}, {4, 3, 2, 1}, {1, 2, 3, 4}, {4, 3, 2, 1}},
		"ties":       {{1, 2, 3, 4}, {1, 2, 3, 5}, {5, 0, 0, 0}, {5, 1, 0, 0}, {0, 9, 0, 0}, {0, 9, 0, 1}},
		"one-above":  {{1, 2, 3, 4}, {4, 3, 2, 1}, {10, 10, 10, 10}, {0, 0, 0, 0}, {9, 9, 9, 10}},
		"ascending":  {{0, 0, 0, 0}, {1, 0, 0, 0}, {1, 1, 0, 0}, {0, 2, 0, 0}, {1, 1, 1, 0}, {1, 2, 1, 1}},
		"negative":   {{-1, -2, 3, 0}, {-1, -3, 3, 0}, {-5, 0, 0, 0}, {0, -5, 0, 0}, {-1, -1, -1, -1}},
		"non-finite": {{nan, 0, 0, 0}, {1, nan, 1, 1}, {inf, 1, 1, 1}, {2, 1, 1, 1}, {1, 1, 1, -inf}, {0, 0, 0, 0}},
		"random":     random,
	}
	same := func(u, v [4]float64) bool {
		for g := range u {
			if math.Float64bits(u[g]) != math.Float64bits(v[g]) {
				return false
			}
		}
		return true
	}
	for name, vecs := range cases {
		cells := make([]int32, len(vecs))
		for i := range cells {
			cells[i] = int32(i)
		}
		front := dominanceFront(vecs, cells)
		for i, u := range front {
			for j, v := range front {
				if i != j && dominates(u, v) {
					t.Errorf("%s: kept %v dominates kept %v", name, u, v)
				}
			}
		}
		for _, v := range vecs {
			kept, covered := false, false
			for _, f := range front {
				kept = kept || same(f, v)
				covered = covered || dominates(f, v)
			}
			if !kept && !covered {
				t.Errorf("%s: dropped %v, which no kept vector dominates", name, v)
			}
		}
		b := &Basis{front: front}
		for i := 0; i < 1000; i++ {
			scale := func() float64 {
				if rng.Intn(4) == 0 {
					return 0
				}
				return 10 * rng.Float64()
			}
			s := scales{ambient: 25 * rng.Float64(), chip: scale(), vcsel: scale(), driver: scale(), heater: scale()}
			want := math.Inf(-1)
			for _, u := range vecs {
				if v := s.at(u); v > want {
					want = v
				}
			}
			if got := b.chipMax(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: front peak %.17g at %+v, full peak %.17g", name, got, s, want)
			}
		}
		t.Logf("%s: %d of %d vectors kept", name, len(front), len(vecs))
	}
}

// TestNonFiniteAnswer: powers that pass Validate but overflow the
// superposition get ErrNonFinite from Evaluate and Summary alike.
func TestNonFiniteAnswer(t *testing.T) {
	_, bases := previewBases(t)
	b := bases[activity.Uniform{}.Name()]
	for _, p := range []Powers{{Chip: 1e308}, {Chip: 25, VCSEL: 1e306}, {Heater: math.MaxFloat64}} {
		if _, err := b.Evaluate(p); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Evaluate(%+v): err %v, want ErrNonFinite", p, err)
		}
		if _, err := b.Summary(p); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Summary(%+v): err %v, want ErrNonFinite", p, err)
		}
	}
}

// TestConcurrentEvaluateFieldLayerSlice drives one basis from many
// goroutines through Evaluate, Summary, Field and LayerSlice, as the dse
// sweeps and the serving layer do; every answer must equal the serial
// one. Run under
// -race this is the data-race check for the reduced query path.
func TestConcurrentEvaluateFieldLayerSlice(t *testing.T) {
	_, b := testModel(t)
	powers := func(i int) Powers {
		return Powers{Chip: 10 + float64(i%5), VCSEL: 1e-3 * float64(1+i%3), Driver: 2e-3, Heater: 5e-4 * float64(i%4)}
	}
	type answer struct {
		res   *Result
		sum   Summary
		field []float64
		slice *LayerMap
	}
	eval := func(i int) (answer, error) {
		res, err := b.Evaluate(powers(i))
		if err != nil {
			return answer{}, err
		}
		sum, err := b.Summary(powers(i))
		if err != nil {
			return answer{}, err
		}
		if sum != res.Summary() {
			return answer{}, fmt.Errorf("point %d: Summary %+v, Evaluate's %+v", i, sum, res.Summary())
		}
		lm, err := res.OpticalLayerSlice()
		if err != nil {
			return answer{}, err
		}
		return answer{res, sum, res.Field(), lm}, nil
	}
	const distinct = 6
	want := make([]answer, distinct)
	for i := range want {
		var err error
		if want[i], err = eval(i); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % distinct
				got, err := eval(i)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.res.ONIs, want[i].res.ONIs) || got.res.ChipMax != want[i].res.ChipMax ||
					got.res.ChipAvg != want[i].res.ChipAvg || got.sum != want[i].sum ||
					!reflect.DeepEqual(got.field, want[i].field) ||
					!reflect.DeepEqual(got.slice, want[i].slice) {
					t.Errorf("goroutine %d point %d: concurrent answer differs from the serial one", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
