package thermal

import (
	"fmt"
	"math"
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
// reproduce the full-field box scan on every Result float, ChipMax bit for
// bit, over three activity bases and heater-off, heater-on and all-zero
// operating points; applying the functionals to the built field
// (Model.report) agrees too.
func TestReducedEvaluateMatchesFieldScan(t *testing.T) {
	m, bases := previewBases(t)
	points := map[string]Powers{
		"heater-off": {Chip: 25, VCSEL: 3e-3, Driver: 3e-3},
		"heater-on":  {Chip: 18, VCSEL: 4e-3, Driver: 4e-3, Heater: 1.2e-3},
		"all-zero":   {},
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
		}
	}
	t.Logf("worst relative difference vs the field scan: %.2e", worst)
}

// TestConcurrentEvaluateFieldLayerSlice drives one basis from many
// goroutines through Evaluate, Field and LayerSlice, as the dse sweeps and
// the serving layer do; every answer must equal the serial one. Run under
// -race this is the data-race check for the reduced query path.
func TestConcurrentEvaluateFieldLayerSlice(t *testing.T) {
	_, b := testModel(t)
	powers := func(i int) Powers {
		return Powers{Chip: 10 + float64(i%5), VCSEL: 1e-3 * float64(1+i%3), Driver: 2e-3, Heater: 5e-4 * float64(i%4)}
	}
	type answer struct {
		res   *Result
		field []float64
		slice *LayerMap
	}
	eval := func(i int) (answer, error) {
		res, err := b.Evaluate(powers(i))
		if err != nil {
			return answer{}, err
		}
		lm, err := res.OpticalLayerSlice()
		if err != nil {
			return answer{}, err
		}
		return answer{res, res.Field(), lm}, nil
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
					got.res.ChipAvg != want[i].res.ChipAvg || !reflect.DeepEqual(got.field, want[i].field) ||
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
