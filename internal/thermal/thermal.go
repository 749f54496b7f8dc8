// Package thermal is the system-level thermal simulator (the substitute
// for IcTherm in the paper's methodology). It assembles the full 3D model
// — SCC die power map, package stack, ONI device layouts — into a
// finite-volume problem, solves it, and reports the per-ONI average and
// gradient temperatures that drive the design-space exploration.
//
// Because the steady heat equation with fixed-film convection boundaries
// is linear in the injected powers, the package also offers a
// superposition Basis: four unit-power fields (chip, VCSELs, drivers,
// heaters) from which any (P_chip, P_VCSEL, P_driver, P_heater) operating
// point is evaluated by linear combination, making the paper's parameter
// sweeps (Figs. 9 and 10) cheap. Only the chip field depends on the chip
// activity: a Model solves the VCSEL, driver and heater fields once, with
// its uniform basis's four unit solves, and every other activity's basis
// reuses them and solves its chip field alone.
//
// Every number a report carries except the junction peak is a linear
// functional of the temperature field — a volume-weighted mean over an
// ONI site, a device or the BEOL layer. A Model builds those functionals
// once; a Basis projects its four unit fields onto them when it is built,
// and keeps, for the peak, only the BEOL cells no other BEOL cell
// dominates (its front: a few hundred cells at any tier). An evaluation
// therefore combines one 4-vector per functional and per front cell,
// whatever the mesh, and builds the full field only when a caller asks
// for it (Result.Field). Basis.Summary answers the design queries' five
// numbers that way without allocating.
package thermal

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/geom"
	"vcselnoc/internal/materials"
	"vcselnoc/internal/mesh"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/oni"
	"vcselnoc/internal/scc"
	"vcselnoc/internal/stack"
)

// Resolution controls mesh density.
type Resolution struct {
	// ONICell is the lateral cell size inside ONI refinement bands (m).
	// The paper uses 5 µm.
	ONICell float64
	// DieCell is the lateral cell size elsewhere on the die (m). The paper
	// uses ~100 µm for heat sources and ~500 µm for the package; a single
	// lateral background value is used here.
	DieCell float64
	// MaxZCell caps the vertical cell size (m); thin layers always get at
	// least one cell.
	MaxZCell float64
}

// PaperResolution is the paper's meshing strategy (5 µm ONI cells). Slow:
// reserve it for benchmark runs.
func PaperResolution() Resolution {
	return Resolution{ONICell: 5e-6, DieCell: 500e-6, MaxZCell: 600e-6}
}

// FastResolution trades some accuracy for speed (10 µm ONI cells).
func FastResolution() Resolution {
	return Resolution{ONICell: 10e-6, DieCell: 1e-3, MaxZCell: 600e-6}
}

// CoarseResolution is for tests: 20 µm ONI cells.
func CoarseResolution() Resolution {
	return Resolution{ONICell: 20e-6, DieCell: 2e-3, MaxZCell: 800e-6}
}

// PreviewResolution is the coarsest usable mesh (40 µm ONI cells): device
// temperatures are only indicative, but models build and solve in a
// fraction of a second. Quick-iteration tests (-short) and smoke runs use
// it.
func PreviewResolution() Resolution {
	return Resolution{ONICell: 40e-6, DieCell: 4e-3, MaxZCell: 1.2e-3}
}

// ResolutionByName resolves a CLI-style resolution name — the single
// source for every command's -res flag, so adding a tier never needs
// per-command switch updates.
func ResolutionByName(name string) (Resolution, error) {
	switch name {
	case "preview":
		return PreviewResolution(), nil
	case "coarse":
		return CoarseResolution(), nil
	case "fast":
		return FastResolution(), nil
	case "paper":
		return PaperResolution(), nil
	default:
		return Resolution{}, fmt.Errorf("thermal: unknown resolution %q (want preview, coarse, fast or paper)", name)
	}
}

// Validate reports resolution errors.
func (r Resolution) Validate() error {
	if r.ONICell <= 0 || r.DieCell <= 0 || r.MaxZCell <= 0 {
		return fmt.Errorf("thermal: resolution cells must be > 0: %+v", r)
	}
	if r.ONICell > r.DieCell {
		return fmt.Errorf("thermal: ONI cell %g larger than die cell %g", r.ONICell, r.DieCell)
	}
	return nil
}

// Spec is the full system specification (the left column of the paper's
// Fig. 3).
type Spec struct {
	Floorplan *scc.Floorplan
	Stack     *stack.Stack
	HeatSink  stack.HeatSink
	// Ambient is the cooling air temperature, °C.
	Ambient float64
	// BoardH is the convection coefficient on the package bottom
	// (secondary cooling path through the board), W/(m²·K).
	BoardH float64
	// ONIStyle selects the chessboard or clustered device placement.
	ONIStyle oni.Style
	// HeaterFootprintScale widens the heater power footprint relative to
	// the MR: the resistive strip covers the ring plus its contacts.
	// Zero defaults to 2.5.
	HeaterFootprintScale float64
	// Res selects the mesh density.
	Res Resolution
	// SolverTol is the mg-cg solver's relative tolerance (default 1e-8);
	// Validate refuses NaN and ±Inf.
	SolverTol float64
	// Workers caps the goroutines used by parallel solves (basis building,
	// matrix-vector products); 0 means GOMAXPROCS.
	Workers int
}

// PaperSpec returns the spec used throughout the reproduction: SCC
// floorplan, Fig. 7 stack, a heat sink calibrated so that a 25 W uniform
// load puts the ONIs near the paper's ~49 °C, chessboard ONIs.
func PaperSpec() (Spec, error) {
	fp, err := scc.New()
	if err != nil {
		return Spec{}, err
	}
	st, err := stack.DefaultSCC()
	if err != nil {
		return Spec{}, err
	}
	hs := stack.DefaultHeatSink()
	// Calibration: the paper's absolute temperatures (40–70 °C at only
	// 12–31 W) imply a fairly weak junction-to-ambient path (~1 K/W);
	// a modest forced-air sink reproduces that operating point.
	hs.AirH = 13
	return Spec{
		Floorplan: fp,
		Stack:     st,
		HeatSink:  hs,
		Ambient:   25,
		BoardH:    15,
		ONIStyle:  oni.Chessboard,
		Res:       FastResolution(),
		SolverTol: 1e-8,
	}, nil
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	if s.Floorplan == nil {
		return fmt.Errorf("thermal: nil floorplan")
	}
	if s.Stack == nil {
		return fmt.Errorf("thermal: nil stack")
	}
	if err := s.HeatSink.Validate(); err != nil {
		return err
	}
	if err := s.Res.Validate(); err != nil {
		return err
	}
	if s.BoardH < 0 {
		return fmt.Errorf("thermal: negative board coefficient %g", s.BoardH)
	}
	if s.HeaterFootprintScale < 0 || s.HeaterFootprintScale > 4 {
		return fmt.Errorf("thermal: heater footprint scale %g outside [0, 4]", s.HeaterFootprintScale)
	}
	if math.IsNaN(s.Ambient) || math.IsInf(s.Ambient, 0) {
		return fmt.Errorf("thermal: invalid ambient %g", s.Ambient)
	}
	if math.IsNaN(s.SolverTol) || math.IsInf(s.SolverTol, 0) {
		return fmt.Errorf("thermal: invalid solver tolerance %g", s.SolverTol)
	}
	if s.Workers < 0 {
		return fmt.Errorf("thermal: negative worker count %d", s.Workers)
	}
	return nil
}

// Powers are the independent power knobs of one operating point.
type Powers struct {
	// Chip is the total processing-layer power (W) distributed by the
	// Activity scenario.
	Chip float64
	// Activity shapes the chip power (nil means uniform).
	Activity activity.Scenario
	// VCSEL is the heat dissipated by each VCSEL (W) in the optical layer.
	VCSEL float64
	// Driver is the heat dissipated by each CMOS driver (W) in the BEOL.
	// The paper's worst case sets Driver = VCSEL.
	Driver float64
	// Heater is the power of each MR heater (W) in the optical layer.
	Heater float64
}

// Validate reports power errors.
func (p Powers) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{{"chip", p.Chip}, {"vcsel", p.VCSEL}, {"driver", p.Driver}, {"heater", p.Heater}} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("thermal: invalid %s power %g", v.name, v.val)
		}
	}
	return nil
}

// ErrNonFinite reports an operating point whose powers pass
// Powers.Validate but whose temperatures do not fit a float64: the
// superposition overflows to ±Inf (or Inf − Inf). Evaluate, Summary and
// LayerSlice return it wrapped, so callers can tell that bad input from a
// server fault with errors.Is.
var ErrNonFinite = errors.New("thermal: non-finite temperature (the powers overflow the superposition)")

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// nonFinite wraps ErrNonFinite with the offending powers.
func nonFinite(p Powers) error {
	return fmt.Errorf("%w: chip %g W, vcsel %g W, driver %g W, heater %g W", ErrNonFinite, p.Chip, p.VCSEL, p.Driver, p.Heater)
}

// weightedCell couples a cell index with the fraction of a group's unit
// power deposited in it.
type weightedCell struct {
	idx    int
	weight float64
}

// stencil is one report functional: the volume-weighted mean over the
// cells a box overlaps, with weights summing to 1.
type stencil struct {
	cells   []int32
	weights []float64
}

// mean evaluates the stencil over a field.
func (s *stencil) mean(t []float64) float64 {
	var sum float64
	for i, c := range s.cells {
		sum += t[c] * s.weights[i]
	}
	return sum
}

// deviceProbe locates one optical device for temperature reporting.
type deviceProbe struct {
	name string
	stencil
}

// Model is an assembled thermal model: mesh, conductivity, power-group
// stencils AND the discretised finite-volume operator are built once;
// individual solves only change the RHS. It also owns the bases built
// from that operator: a bounded cache, keyed by activity.Key, that
// builds each basis once however many callers ask for it at the same
// time. Apart from that cache, a Model is immutable after NewModel; it is
// safe for concurrent solves and basis builds.
type Model struct {
	spec    Spec
	grid    *mesh.Grid
	cond    []float64
	heatCap []float64

	// sys is the assembled steady operator, shared by every solve.
	sys *fvm.System
	// ambient is the field T ≡ Ambient every steady solve starts from
	// (read-only): both convective faces run to Ambient and the sides
	// are adiabatic, so it is the exact zero-power solution, and CG's
	// first residual is the power alone.
	ambient []float64

	onis []*oni.Layout

	// Power deposition stencils. vcselCells/driverCells/heaterCells
	// weights sum to 1 per device group; chip weights depend on activity
	// and are rebuilt per solve.
	vcselCells  []weightedCell
	driverCells []weightedCell
	heaterCells []weightedCell
	vcselCount  int
	heaterCount int

	beolSpan    stack.Span
	opticalSpan stack.Span

	// stencils are the report's functionals in the order assemble reads
	// their values: per ONI its site mean over the optical layer, then
	// its device probes; the BEOL (junction) mean last. probes keeps each
	// ONI's probes (VCSELs first) for device names and the transient
	// observer; beolMean's cells are also the ChipMax scan of a solved
	// field and the cells a basis's front is taken from.
	stencils []stencil
	probes   [][]deviceProbe
	beolMean stencil

	topH float64

	// bases caches built bases by activity.Key. basisMu guards the map
	// and every entry's used stamp; clock orders the stamps. maxBases
	// bounds the map: MaxBases, which only tests lower. warm mirrors
	// len(bases) so that BasisCacheStats takes no lock.
	basisMu                 sync.Mutex
	bases                   map[string]*cacheEntry
	clock                   uint64
	maxBases                int
	warm, builds, evictions atomic.Int64
}

// MaxBases bounds the bases a Model caches. Each holds ~4 fields ×
// NumCells × 8 bytes, and a served activity's seed comes from the
// network, so beyond the bound the least-recently-used basis is dropped
// (and rebuilt, bit-identically, if asked for again) instead of memory
// growing with every seed.
const MaxBases = 8

// uniformKey is the uniform basis's cache key. The cache never evicts
// that basis: every other basis copies its VCSEL, driver and heater
// fields.
var uniformKey = activity.Key(activity.Uniform{})

// cacheEntry is one cached basis; done closes once b and err are final.
type cacheEntry struct {
	done chan struct{}
	b    *Basis
	err  error
	used uint64
}

// errBuildAborted is what callers waiting on a basis build get when the
// building goroutine panicked instead of returning.
var errBuildAborted = errors.New("thermal: basis build aborted")

// NewModel builds the mesh, material field and power stencils.
func NewModel(spec Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.SolverTol <= 0 {
		spec.SolverTol = 1e-8
	}
	m := &Model{spec: spec, bases: make(map[string]*cacheEntry), maxBases: MaxBases}

	// Generate the ONIs.
	for i, site := range spec.Floorplan.ONISites {
		layout, err := oni.Generate(site, spec.ONIStyle)
		if err != nil {
			return nil, fmt.Errorf("thermal: ONI %d: %w", i, err)
		}
		m.onis = append(m.onis, layout)
	}

	var err error
	m.beolSpan, err = spec.Stack.Find(stack.LayerBEOL)
	if err != nil {
		return nil, err
	}
	m.opticalSpan, err = spec.Stack.Find(stack.LayerOptical)
	if err != nil {
		return nil, err
	}

	if err := m.buildGrid(); err != nil {
		return nil, err
	}
	if err := m.buildMaterials(); err != nil {
		return nil, err
	}
	if err := m.buildStencils(); err != nil {
		return nil, err
	}
	if err := m.buildFunctionals(); err != nil {
		return nil, err
	}

	// Effective top-side coefficient: the sink's bulk resistance referred
	// to the die footprint (the lid spreads heat into the larger sink
	// base).
	hEff, err := spec.HeatSink.EffectiveH()
	if err != nil {
		return nil, err
	}
	m.topH = hEff * spec.HeatSink.BaseArea / spec.Floorplan.Die.Area()

	// Assemble the finite-volume operator once: geometry, conductivity and
	// boundaries are fixed for the model's lifetime, so every solve —
	// direct, basis, batch or transient — reuses this System.
	m.sys, err = fvm.NewSystem(&fvm.Problem{
		Grid:         m.grid,
		Conductivity: m.cond,
		Power:        make([]float64, m.grid.NumCells()),
		HeatCapacity: m.heatCap,
		ZMin:         fvm.Boundary{Type: fvm.Convection, H: m.spec.BoardH, Value: m.spec.Ambient},
		ZMax:         fvm.Boundary{Type: fvm.Convection, H: m.topH, Value: m.spec.Ambient},
	})
	if err != nil {
		return nil, err
	}
	m.ambient = make([]float64, m.grid.NumCells())
	for i := range m.ambient {
		m.ambient[i] = spec.Ambient
	}
	return m, nil
}

func (m *Model) buildGrid() error {
	fp := m.spec.Floorplan
	res := m.spec.Res

	xb := mesh.NewAxisBuilder(fp.Die.X.Lo, fp.Die.X.Hi, res.DieCell)
	yb := mesh.NewAxisBuilder(fp.Die.Y.Lo, fp.Die.Y.Hi, res.DieCell)
	for _, site := range fp.ONISites {
		xb.AddRefinement(site.X.Lo, site.X.Hi, res.ONICell)
		yb.AddRefinement(site.Y.Lo, site.Y.Hi, res.ONICell)
	}
	// Tile boundaries as breakpoints so block power lands crisply.
	for _, t := range fp.Tiles {
		xb.AddBreakpoint(t.Bounds.X.Lo)
		xb.AddBreakpoint(t.Bounds.X.Hi)
		yb.AddBreakpoint(t.Bounds.Y.Lo)
		yb.AddBreakpoint(t.Bounds.Y.Hi)
	}

	zb := mesh.NewAxisBuilder(0, m.spec.Stack.TotalThickness(), res.MaxZCell)
	for _, sp := range m.spec.Stack.Spans() {
		zb.AddBreakpoint(sp.Z0)
		zb.AddBreakpoint(sp.Z1)
	}

	xs, err := xb.Build()
	if err != nil {
		return err
	}
	ys, err := yb.Build()
	if err != nil {
		return err
	}
	zs, err := zb.Build()
	if err != nil {
		return err
	}
	m.grid, err = mesh.NewGrid(xs, ys, zs)
	return err
}

func (m *Model) buildMaterials() error {
	g := m.grid
	n := g.NumCells()
	m.cond = make([]float64, n)
	m.heatCap = make([]float64, n)

	// Layer material per z slice.
	for k := 0; k < g.NZ(); k++ {
		zc := g.CellCenter(0, 0, k).Z
		sp, err := m.spec.Stack.LayerAt(zc)
		if err != nil {
			return err
		}
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				idx := g.Index(i, j, k)
				m.cond[idx] = sp.Mat.Conductivity
				m.heatCap[idx] = sp.Mat.VolumetricHeatCapacity()
			}
		}
	}

	// TSV-enhanced vertical path through the bonding layer under each
	// VCSEL (two ⌀5 µm copper TSVs feed every laser).
	bond, err := m.spec.Stack.Find(stack.LayerBonding)
	if err != nil {
		return err
	}
	tsvMat, err := materials.TSVEffective(materials.BondingLayer, oni.TSVDiameter, 10e-6)
	if err != nil {
		return err
	}
	// III-V island where each VCSEL sits in the optical layer.
	for _, layout := range m.onis {
		for _, v := range layout.VCSELs {
			m.overrideMaterial(v.Rect, bond.Z0, bond.Z1, tsvMat)
			m.overrideMaterial(v.Rect, m.opticalSpan.Z0, m.opticalSpan.Z1, materials.VCSELStack)
		}
		for _, r := range layout.MRs {
			m.overrideMaterial(r.Rect, m.opticalSpan.Z0, m.opticalSpan.Z1, materials.Silicon)
		}
	}
	return nil
}

// overrideMaterial replaces the material of every cell whose volume lies
// mostly inside rect × [z0, z1).
func (m *Model) overrideMaterial(rect geom.Rect, z0, z1 float64, mat materials.Material) {
	box := rect.Extrude(z0, z1)
	g := m.grid
	i0, i1, j0, j1, k0, k1 := g.CellsOverlapping(box)
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				cell := g.CellBox(i, j, k)
				if cell.OverlapVolume(box) >= 0.5*cell.Volume() {
					idx := g.Index(i, j, k)
					m.cond[idx] = mat.Conductivity
					m.heatCap[idx] = mat.VolumetricHeatCapacity()
				}
			}
		}
	}
}

// depositBox spreads a unit power over the cells overlapping box,
// proportionally to overlap volume, and appends the weighted cells.
func (m *Model) depositBox(box geom.Box, scale float64, out *[]weightedCell) error {
	g := m.grid
	i0, i1, j0, j1, k0, k1 := g.CellsOverlapping(box)
	total := 0.0
	type hit struct {
		idx int
		vol float64
	}
	var hits []hit
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				ov := g.CellBox(i, j, k).OverlapVolume(box)
				if ov > 0 {
					hits = append(hits, hit{g.Index(i, j, k), ov})
					total += ov
				}
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("thermal: power box %v overlaps no cells", box)
	}
	for _, h := range hits {
		*out = append(*out, weightedCell{h.idx, scale * h.vol / total})
	}
	return nil
}

func (m *Model) buildStencils() error {
	nV := 0
	nH := 0
	for _, layout := range m.onis {
		nV += len(layout.VCSELs)
		nH += len(layout.Heaters)
	}
	m.vcselCount = nV
	m.heaterCount = nH
	for _, layout := range m.onis {
		for _, v := range layout.VCSELs {
			box := v.Rect.Extrude(m.opticalSpan.Z0, m.opticalSpan.Z1)
			if err := m.depositBox(box, 1/float64(nV), &m.vcselCells); err != nil {
				return err
			}
		}
		for _, d := range layout.Drivers {
			box := d.Rect.Extrude(m.beolSpan.Z0, m.beolSpan.Z1)
			if err := m.depositBox(box, 1/float64(nV), &m.driverCells); err != nil {
				return err
			}
		}
		scale := m.spec.HeaterFootprintScale
		if scale == 0 {
			scale = 2.5
		}
		for _, h := range layout.Heaters {
			cx, cy := h.Rect.Center()
			rect := geom.CenteredRect(cx, cy, h.Rect.X.Length()*scale, h.Rect.Y.Length()*scale)
			box := rect.Extrude(m.opticalSpan.Z0, m.opticalSpan.Z1)
			if err := m.depositBox(box, 1/float64(nH), &m.heaterCells); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildFunctionals builds m.stencils, m.probes and m.beolMean.
func (m *Model) buildFunctionals() error {
	add := func(what string, box geom.Box) (stencil, error) {
		s, err := m.boxStencil(box)
		if err != nil {
			return stencil{}, fmt.Errorf("thermal: %s: %w", what, err)
		}
		m.stencils = append(m.stencils, s)
		return s, nil
	}
	optical := func(r geom.Rect) geom.Box { return r.Extrude(m.opticalSpan.Z0, m.opticalSpan.Z1) }
	m.probes = make([][]deviceProbe, len(m.onis))
	for i, layout := range m.onis {
		if _, err := add(fmt.Sprintf("ONI %d", i), optical(layout.Site)); err != nil {
			return err
		}
		probe := func(name string, r geom.Rect) error {
			s, err := add("probe "+name, optical(r))
			if err != nil {
				return err
			}
			m.probes[i] = append(m.probes[i], deviceProbe{name: name, stencil: s})
			return nil
		}
		for _, v := range layout.VCSELs {
			if err := probe(v.Name, v.Rect); err != nil {
				return err
			}
		}
		for _, r := range layout.MRs {
			if err := probe(r.Name, r.Rect); err != nil {
				return err
			}
		}
	}
	var err error
	m.beolMean, err = add("BEOL", m.spec.Floorplan.Die.Extrude(m.beolSpan.Z0, m.beolSpan.Z1))
	return err
}

// boxStencil weights every cell a box overlaps by its overlap volume —
// the cells and weights fvm.Solution.StatsOver averages over.
func (m *Model) boxStencil(box geom.Box) (stencil, error) {
	var s stencil
	g := m.grid
	i0, i1, j0, j1, k0, k1 := g.CellsOverlapping(box)
	var total float64
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				ov := g.CellBox(i, j, k).OverlapVolume(box)
				if ov > 0 {
					s.cells = append(s.cells, int32(g.Index(i, j, k)))
					s.weights = append(s.weights, ov)
					total += ov
				}
			}
		}
	}
	if total == 0 {
		return stencil{}, fmt.Errorf("box %v overlaps no cells", box)
	}
	for i := range s.weights {
		s.weights[i] /= total
	}
	return s, nil
}

// chipStencil distributes 1 W of chip power into BEOL cells according to
// the activity scenario.
func (m *Model) chipStencil(act activity.Scenario) ([]weightedCell, error) {
	if act == nil {
		act = activity.Uniform{}
	}
	weights, err := act.Weights(scc.TileCols, scc.TileRows)
	if err != nil {
		return nil, err
	}
	blocks, err := m.spec.Floorplan.PowerMap(1.0, weights)
	if err != nil {
		return nil, err
	}
	var cells []weightedCell
	for _, b := range blocks {
		if b.Power == 0 {
			continue
		}
		box := b.Rect.Extrude(m.beolSpan.Z0, m.beolSpan.Z1)
		if err := m.depositBox(box, b.Power, &cells); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// NumCells exposes the mesh size (diagnostics).
func (m *Model) NumCells() int { return m.grid.NumCells() }

// Grid exposes the computational grid.
func (m *Model) Grid() *mesh.Grid { return m.grid }

// ONIs exposes the generated ONI layouts.
func (m *Model) ONIs() []*oni.Layout { return m.onis }

// powerVector builds the per-cell power (W) for the given powers.
func (m *Model) powerVector(p Powers) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := m.grid.NumCells()
	power := make([]float64, n)
	chip, err := m.chipStencil(p.Activity)
	if err != nil {
		return nil, err
	}
	for _, wc := range chip {
		power[wc.idx] += p.Chip * wc.weight
	}
	for _, wc := range m.vcselCells {
		power[wc.idx] += p.VCSEL * float64(m.vcselCount) * wc.weight
	}
	for _, wc := range m.driverCells {
		power[wc.idx] += p.Driver * float64(m.vcselCount) * wc.weight
	}
	for _, wc := range m.heaterCells {
		power[wc.idx] += p.Heater * float64(m.heaterCount) * wc.weight
	}
	return power, nil
}

// solveOptions maps the spec's solver knobs onto fvm options; every
// steady solve starts from the ambient field.
func (m *Model) solveOptions() fvm.SolveOptions {
	return fvm.SolveOptions{Tolerance: m.spec.SolverTol, Workers: m.spec.Workers, InitialGuess: m.ambient}
}

// System exposes the cached finite-volume operator (diagnostics and
// benchmarking).
func (m *Model) System() *fvm.System { return m.sys }

// PowerVector exposes the per-cell power deposition (W per cell) for the
// given powers — the RHS a steady solve of this model consumes.
func (m *Model) PowerVector(p Powers) ([]float64, error) { return m.powerVector(p) }

// Problem materialises a standalone fvm.Problem for the given powers.
// Solving it with fvm.SolveSteady re-assembles the operator every call —
// the uncached path the cached System replaces; it remains available for
// raw access and for benchmarking assembly cost.
func (m *Model) Problem(p Powers) (*fvm.Problem, error) {
	power, err := m.powerVector(p)
	if err != nil {
		return nil, err
	}
	return &fvm.Problem{
		Grid:         m.grid,
		Conductivity: m.cond,
		Power:        power,
		HeatCapacity: m.heatCap,
		ZMin:         fvm.Boundary{Type: fvm.Convection, H: m.spec.BoardH, Value: m.spec.Ambient},
		ZMax:         fvm.Boundary{Type: fvm.Convection, H: m.topH, Value: m.spec.Ambient},
	}, nil
}

// Solve runs a direct steady-state simulation at the given powers against
// the cached operator.
func (m *Model) Solve(p Powers) (*Result, error) {
	power, err := m.powerVector(p)
	if err != nil {
		return nil, err
	}
	sol, err := m.sys.SolveSteady(power, m.solveOptions())
	if err != nil {
		return nil, err
	}
	return m.report(sol.T, p), nil
}

// ONIReport summarises one ONI's thermal state.
type ONIReport struct {
	Index int
	Site  geom.Rect
	// AvgTemp is the mean temperature over the ONI footprint in the
	// optical layer (°C).
	AvgTemp float64
	// Gradient is max−min over the ONI's VCSEL and MR device temperatures
	// (°C): the quantity the paper requires to stay below 1 °C.
	Gradient float64
	// VCSELTemps and MRTemps are the per-device mean temperatures.
	VCSELTemps []float64
	MRTemps    []float64
	// HottestDevice and ColdestDevice name the extreme devices.
	HottestDevice, ColdestDevice string
}

// MeanVCSELTemp returns the average of the ONI's VCSEL temperatures.
func (r ONIReport) MeanVCSELTemp() float64 { return mean(r.VCSELTemps) }

// MeanMRTemp returns the average of the ONI's MR temperatures.
func (r ONIReport) MeanMRTemp() float64 { return mean(r.MRTemps) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Result is a solved operating point.
type Result struct {
	Powers Powers
	// ONIs holds one report per ONI, ordered as the floorplan's sites.
	ONIs []ONIReport
	// ChipMax and ChipAvg summarise the BEOL (junction) layer.
	ChipMax, ChipAvg float64

	model *Model
	// t is the field of a direct or transient solve; a basis result
	// leaves it nil and rebuilds the field from basis on demand.
	t     []float64
	basis *Basis
}

// Field returns the cell temperature field (°C). A direct or transient
// solve returns the field it solved; a basis evaluation builds a fresh
// field by superposition on every call, so a query that only reads the
// report never pays NumCells of memory. Callers must not modify the
// returned slice.
func (r *Result) Field() []float64 {
	if r.basis != nil {
		return r.basis.field(r.Powers)
	}
	return r.t
}

// report applies the model's functionals to a temperature field.
func (m *Model) report(t []float64, p Powers) *Result {
	vals := make([]float64, len(m.stencils))
	for k, s := range m.stencils {
		vals[k] = s.mean(t)
	}
	chipMax := math.Inf(-1)
	for _, c := range m.beolMean.cells {
		if t[c] > chipMax {
			chipMax = t[c]
		}
	}
	res := m.assemble(p, vals, chipMax)
	res.t = t
	return res
}

// assemble builds a Result from the values of m.stencils, in order, and
// the BEOL peak. Each ONI's device temperatures are sub-slices of vals.
func (m *Model) assemble(p Powers, vals []float64, chipMax float64) *Result {
	res := &Result{Powers: p, ChipMax: chipMax, ChipAvg: vals[len(vals)-1], model: m}
	res.ONIs = make([]ONIReport, len(m.onis))
	k := 0
	for i, layout := range m.onis {
		n, nV := len(m.probes[i]), len(layout.VCSELs)
		devs := vals[k+1 : k+1+n : k+1+n]
		rep := ONIReport{Index: i, Site: layout.Site, AvgTemp: vals[k],
			VCSELTemps: devs[:nV:nV], MRTemps: devs[nV:]}
		k += 1 + n
		minT, maxT := math.Inf(1), math.Inf(-1)
		for j, v := range devs {
			if v > maxT {
				maxT = v
				rep.HottestDevice = m.probes[i][j].name
			}
			if v < minT {
				minT = v
				rep.ColdestDevice = m.probes[i][j].name
			}
		}
		rep.Gradient = maxT - minT
		res.ONIs[i] = rep
	}
	return res
}

// MeanONITemp averages the per-ONI average temperatures.
func (r *Result) MeanONITemp() float64 {
	var s float64
	for _, o := range r.ONIs {
		s += o.AvgTemp
	}
	return s / float64(len(r.ONIs))
}

// MeanONIGradient averages the per-ONI gradient temperatures — the
// quantity the heater optimisation minimises and the serving layer
// reports.
func (r *Result) MeanONIGradient() float64 {
	var s float64
	for _, o := range r.ONIs {
		s += o.Gradient
	}
	return s / float64(len(r.ONIs))
}

// MaxONIGradient returns the worst intra-ONI gradient.
func (r *Result) MaxONIGradient() float64 {
	worst := 0.0
	for _, o := range r.ONIs {
		if o.Gradient > worst {
			worst = o.Gradient
		}
	}
	return worst
}

// Summary is the part of a Result the design-space exploration and the
// serving layer read: five numbers, from which Basis.Summary answers a
// query without building any per-ONI report.
type Summary struct {
	// MeanONITemp averages the per-ONI average temperatures (°C).
	MeanONITemp float64
	// MeanGradient and MaxGradient are the mean and the worst intra-ONI
	// gradient (°C).
	MeanGradient, MaxGradient float64
	// ChipMax and ChipAvg summarise the BEOL (junction) layer (°C).
	ChipMax, ChipAvg float64
}

// Summary reads the result's Summary. For a basis result it equals
// Basis.Summary at the same powers bit for bit.
func (r *Result) Summary() Summary {
	return Summary{
		MeanONITemp:  r.MeanONITemp(),
		MeanGradient: r.MeanONIGradient(),
		MaxGradient:  r.MaxONIGradient(),
		ChipMax:      r.ChipMax,
		ChipAvg:      r.ChipAvg,
	}
}

// finite reports whether every number of the summary is finite.
func (s Summary) finite() bool {
	return finite(s.MeanONITemp) && finite(s.MeanGradient) && finite(s.MaxGradient) &&
		finite(s.ChipMax) && finite(s.ChipAvg)
}

// ONITempRange returns the min and max per-ONI average temperature, the
// inter-ONI spread the SNR analysis depends on.
func (r *Result) ONITempRange() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, o := range r.ONIs {
		if o.AvgTemp < min {
			min = o.AvgTemp
		}
		if o.AvgTemp > max {
			max = o.AvgTemp
		}
	}
	return min, max
}

// Basis is a set of unit-power solutions enabling O(1) evaluation of any
// operating point with a fixed activity shape: a query reads the
// projections and the front, never the mesh. Only its chip field is the
// activity's own: the VCSEL, driver and heater fields are the model's,
// bit-identical in every basis it builds.
type Basis struct {
	model    *Model
	activity activity.Scenario
	// unit[c] holds cell c's temperature rise for 1 W of chip, VCSEL,
	// driver and heater power, in that order.
	unit [][4]float64
	// proj[k] is the unit rises seen through the model's k-th stencil.
	proj [][4]float64
	// front holds the unit vectors of the BEOL cells no other BEOL cell
	// dominates (see dominanceFront): the only cells that can hold the
	// ChipMax peak at powers Powers.Validate accepts.
	front [][4]float64
	stats BasisBuildStats
}

// scales are the weights of one operating point's superposition: the
// ambient plus each group's total power.
type scales struct {
	ambient, chip, vcsel, driver, heater float64
}

func (b *Basis) scales(p Powers) scales {
	m := b.model
	return scales{
		ambient: m.spec.Ambient,
		chip:    p.Chip,
		vcsel:   p.VCSEL * float64(m.vcselCount),
		driver:  p.Driver * float64(m.vcselCount),
		heater:  p.Heater * float64(m.heaterCount),
	}
}

// at superposes four unit values. Field, the ChipMax scan and the
// projected functionals all go through it, so a cell of the built field
// and the peak Evaluate reports round identically. With every scale ≥ 0,
// at never falls when one component of u rises: each product and each
// rounded sum is monotone in it. The front relies on that.
func (s scales) at(u [4]float64) float64 {
	return s.ambient + s.chip*u[0] + s.vcsel*u[1] + s.driver*u[2] + s.heater*u[3]
}

// field builds the full temperature field of one operating point.
func (b *Basis) field(p Powers) []float64 {
	s := b.scales(p)
	t := make([]float64, len(b.unit))
	for i, u := range b.unit {
		t[i] = s.at(u)
	}
	return t
}

// BasisBuildStats describes the unit solves one BuildBasis call ran, for
// attachment to request traces and structured logs.
type BasisBuildStats struct {
	// Columns is the number of unit fields the basis's own build solved:
	// 4 for the uniform basis, 1 for any other activity (its chip field).
	Columns int
	// Iterations is the largest outer iteration count across those
	// solves.
	Iterations int
	// Wall is the time spent in those solves, including any hierarchy
	// set-up they triggered.
	Wall time.Duration
	// Phases is the V-cycle phase time the solves spent on this model's
	// hierarchy, plus the set-up they triggered: the hierarchy's build and
	// its coarse factorisation, which only the model's first solve pays.
	Phases mg.PhaseStats
	// Levels and CoarseCells describe the multigrid hierarchy the solves
	// ran on: its depth including the finest level, and the cell count of
	// its coarsest level, the one the coarse factor solves exactly.
	Levels, CoarseCells int
}

// buildStats returns the cost of a build whose columns unit solves ran
// since start, with the hierarchy's phase times at start in before, and
// the shape of the hierarchy they ran on.
func (m *Model) buildStats(columns int, start time.Time, before mg.PhaseStats) BasisBuildStats {
	bs := BasisBuildStats{Columns: columns, Wall: time.Since(start), Phases: m.sys.PhaseStats().Sub(before)}
	if h, err := m.sys.Hierarchy(); err == nil {
		bs.Levels, bs.CoarseCells = h.Depth(), h.CoarseOperator().N()
	}
	return bs
}

// BuildStats returns how much the basis cost to build.
func (b *Basis) BuildStats() BasisBuildStats { return b.stats }

// Basis returns the model's cached basis for an activity shape (nil means
// uniform), building it with BuildBasis on first use. Concurrent calls
// for one shape share a single build, and a failed build is not cached,
// so a later call retries. Beyond MaxBases the least-recently-used basis
// other than the uniform one leaves the cache; callers holding it, or
// waiting for it while it builds, can still evaluate it, and asking for
// it again rebuilds the same bits.
func (m *Model) Basis(act activity.Scenario) (*Basis, error) {
	key := activity.Key(act)
	m.basisMu.Lock()
	if e := m.lookup(key); e != nil {
		m.basisMu.Unlock()
		<-e.done
		return e.b, e.err
	}
	e := &cacheEntry{done: make(chan struct{}), err: errBuildAborted}
	m.insert(key, e)
	m.basisMu.Unlock()
	m.builds.Add(1)
	defer func() {
		if e.err != nil {
			m.basisMu.Lock()
			if m.bases[key] == e {
				delete(m.bases, key)
				m.warm.Add(-1)
			}
			m.basisMu.Unlock()
		}
		close(e.done)
	}()
	e.b, e.err = m.BuildBasis(act)
	return e.b, e.err
}

// CachedBasis returns the cached basis for an activity shape, or nil
// while there is none built (never asked for, evicted, building or
// failed). It never builds and never waits.
func (m *Model) CachedBasis(act activity.Scenario) *Basis {
	key := activity.Key(act)
	m.basisMu.Lock()
	e := m.lookup(key)
	m.basisMu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
		return e.b
	default:
		return nil
	}
}

// lookup returns key's cache entry, if any, stamped as the most recently
// used. The caller holds basisMu.
func (m *Model) lookup(key string) *cacheEntry {
	e := m.bases[key]
	if e != nil {
		m.clock++
		e.used = m.clock
	}
	return e
}

// insert caches a new entry under key, first evicting the
// least-recently-used basis other than the uniform one if the cache is
// full. The caller holds basisMu.
func (m *Model) insert(key string, e *cacheEntry) {
	if len(m.bases) >= m.maxBases {
		oldest := ""
		for k, o := range m.bases {
			if k != uniformKey && (oldest == "" || o.used < m.bases[oldest].used) {
				oldest = k
			}
		}
		if oldest != "" {
			delete(m.bases, oldest)
			m.warm.Add(-1)
			m.evictions.Add(1)
		}
	}
	m.clock++
	e.used = m.clock
	m.bases[key] = e
	m.warm.Add(1)
}

// BasisCacheStats describes a model's basis cache.
type BasisCacheStats struct {
	// Warm is the number of bases cached, built or building.
	Warm int
	// Builds counts the builds Basis started; Evictions the bases it
	// dropped to stay within MaxBases.
	Builds, Evictions int64
}

// BasisCacheStats reports the basis cache's occupancy and counters
// without taking a lock, so callers may read it around every Basis call.
func (m *Model) BasisCacheStats() BasisCacheStats {
	return BasisCacheStats{Warm: int(m.warm.Load()), Builds: m.builds.Load(), Evictions: m.evictions.Load()}
}

// BuildBasis builds the superposition basis for an activity shape (nil
// means uniform) without caching it.
//
// The uniform basis runs the model's four unit solves — chip, VCSELs,
// drivers, heaters — as one System.SolveSteadyBlock: one steady solve
// per field, concurrent unless Workers is 1, all on the cached
// hierarchy.
//
// The VCSEL, driver and heater fields do not depend on chip activity, so
// any other activity's basis copies them from the cached uniform basis
// (Basis(nil), built first on a fresh model) and solves only its chip
// field, with the same steady solve. Copying saves three solves: every
// unit field is its own SolveSteady, so an activity basis has the bits
// of solving all four of its fields, whatever was built before it.
func (m *Model) BuildBasis(act activity.Scenario) (*Basis, error) {
	if act == nil {
		act = activity.Uniform{}
	}
	if _, ok := act.(activity.Uniform); ok {
		return m.solveBlock(act)
	}
	chip, err := m.powerVector(Powers{Chip: 1, Activity: act})
	if err != nil {
		return nil, fmt.Errorf("thermal: chip basis: %w", err)
	}
	uniform, err := m.Basis(nil)
	if err != nil {
		return nil, err
	}
	start, before := time.Now(), m.sys.PhaseStats()
	sol, err := m.sys.SolveSteady(chip, m.solveOptions())
	if err != nil {
		return nil, fmt.Errorf("thermal: chip basis solve: %w", err)
	}
	stats := m.buildStats(1, start, before)
	stats.Iterations = sol.Stats.Iterations
	unit := make([][4]float64, len(sol.T))
	for c, t := range sol.T {
		u := uniform.unit[c]
		unit[c] = [4]float64{t - m.spec.Ambient, u[1], u[2], u[3]}
	}
	return m.newBasis(act, unit, stats), nil
}

// solveBlock solves an activity's four unit fields, one steady solve
// each.
func (m *Model) solveBlock(act activity.Scenario) (*Basis, error) {
	groups := []struct {
		name   string
		powers Powers
	}{
		{"chip", Powers{Chip: 1, Activity: act}},
		{"vcsel", Powers{VCSEL: 1 / float64(m.vcselCount)}},
		{"driver", Powers{Driver: 1 / float64(m.vcselCount)}},
		{"heater", Powers{Heater: 1 / float64(m.heaterCount)}},
	}
	batch := make([][]float64, len(groups))
	for i, g := range groups {
		power, err := m.powerVector(g.powers)
		if err != nil {
			return nil, fmt.Errorf("thermal: %s basis: %w", g.name, err)
		}
		batch[i] = power
	}
	start, before := time.Now(), m.sys.PhaseStats()
	sols, err := m.sys.SolveSteadyBlock(batch, m.solveOptions())
	if err != nil {
		return nil, fmt.Errorf("thermal: basis solves: %w", err)
	}
	stats := m.buildStats(len(sols), start, before)
	for _, sol := range sols {
		stats.Iterations = max(stats.Iterations, sol.Stats.Iterations)
	}
	// Store the rise relative to ambient.
	unit := make([][4]float64, m.grid.NumCells())
	for g, sol := range sols {
		for c, t := range sol.T {
			unit[c][g] = t - m.spec.Ambient
		}
	}
	return m.newBasis(act, unit, stats), nil
}

// newBasis wraps unit fields, projects them onto the report's
// functionals and takes the BEOL cells' front, once.
func (m *Model) newBasis(act activity.Scenario, unit [][4]float64, stats BasisBuildStats) *Basis {
	b := &Basis{model: m, activity: act, unit: unit, stats: stats}
	b.proj = make([][4]float64, len(m.stencils))
	for k, s := range m.stencils {
		for i, c := range s.cells {
			for g := range b.proj[k] {
				b.proj[k][g] += unit[c][g] * s.weights[i]
			}
		}
	}
	b.front = dominanceFront(unit, m.beolMean.cells)
	return b
}

// covers reports whether u matches or exceeds v in all four components.
func covers(u, v [4]float64) bool {
	return u[0] >= v[0] && u[1] >= v[1] && u[2] >= v[2] && u[3] >= v[3]
}

// finite4 reports whether all four components of u are finite.
func finite4(u [4]float64) bool { return finite(u[0]) && finite(u[1]) && finite(u[2]) && finite(u[3]) }

// dominanceFront returns the unit vectors of the cells that no other of
// the cells dominates — covers, both being finite — keeping one copy of
// exact duplicates. Since at is monotone for scales ≥ 0, a dominated cell
// never exceeds the cell dominating it, so the maximum of at over the
// front is the maximum over all the cells, bit for bit. A vector with a
// NaN or infinite component is always kept and dominates nothing: at can
// turn it into NaN (0 × Inf) where a vector it covers stays finite.
//
// The finite front is kept as an antichain while the cells stream in: a
// cell some member covers is dropped, and any other cell replaces the
// members it covers. Each cell is tested first against the member that
// covered the cell before it, which neighbouring cells usually share.
func dominanceFront(unit [][4]float64, cells []int32) [][4]float64 {
	var front, odd [][4]float64
	last := -1
	for _, c := range cells {
		u := unit[c]
		if !finite4(u) {
			odd = append(odd, u)
			continue
		}
		if last >= 0 && covers(front[last], u) {
			continue
		}
		if last = slices.IndexFunc(front, func(f [4]float64) bool { return covers(f, u) }); last >= 0 {
			continue
		}
		front = slices.DeleteFunc(front, func(f [4]float64) bool { return covers(u, f) })
		front = append(front, u)
		last = len(front) - 1
	}
	return slices.Clip(append(front, odd...))
}

// chipMax is the BEOL peak at one operating point: the full scan's -Inf
// start and > test over the front.
func (b *Basis) chipMax(s scales) float64 {
	peak := math.Inf(-1)
	for _, u := range b.front {
		if t := s.at(u); t > peak {
			peak = t
		}
	}
	return peak
}

// Evaluate combines the basis for the given powers into a full report:
// one 4-vector per report functional, and the front for ChipMax; the
// field itself is built only if the caller asks for Result.Field. The
// activity shape must match the one the basis was built with; Evaluate
// enforces the Chip/VCSEL/Driver/Heater scaling only. Powers whose
// temperatures overflow get an error wrapping ErrNonFinite. Callers that
// read only the five summary numbers use Summary, which allocates
// nothing. Evaluate only reads the basis and model, so it is safe to call
// concurrently from many goroutines — the property the parallel
// design-space sweeps rely on.
func (b *Basis) Evaluate(p Powers) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := b.scales(p)
	vals := make([]float64, len(b.proj))
	for k, u := range b.proj {
		vals[k] = s.at(u)
		if !finite(vals[k]) {
			return nil, nonFinite(p)
		}
	}
	pp := p
	pp.Activity = b.activity
	res := b.model.assemble(pp, vals, b.chipMax(s))
	if !res.Summary().finite() {
		return nil, nonFinite(p)
	}
	res.basis = b
	return res, nil
}

// Summary answers the design queries' five numbers at the given powers
// from the projections and the front, without allocating: the same
// values, bit for bit, as Evaluate(p) followed by Result.Summary, and the
// same ErrNonFinite whenever Evaluate returns it. It reads the
// projections in assemble's order and repeats its arithmetic: sums start
// at 0 and add the ONIs in order, each gradient is the max minus the min
// of that ONI's probes under assemble's comparisons, and the worst
// gradient starts at 0. Safe for concurrent use.
func (b *Basis) Summary(p Powers) (Summary, error) {
	if err := p.Validate(); err != nil {
		return Summary{}, err
	}
	m := b.model
	s := b.scales(p)
	var sumT, sumG, worst float64
	k := 0
	for i := range m.onis {
		avg := s.at(b.proj[k])
		if !finite(avg) {
			return Summary{}, nonFinite(p)
		}
		sumT += avg
		n := len(m.probes[i])
		minT, maxT := math.Inf(1), math.Inf(-1)
		for _, u := range b.proj[k+1 : k+1+n] {
			v := s.at(u)
			if !finite(v) {
				return Summary{}, nonFinite(p)
			}
			if v > maxT {
				maxT = v
			}
			if v < minT {
				minT = v
			}
		}
		k += 1 + n
		g := maxT - minT
		sumG += g
		if g > worst {
			worst = g
		}
	}
	chipAvg := s.at(b.proj[k])
	if !finite(chipAvg) {
		return Summary{}, nonFinite(p)
	}
	onis := float64(len(m.onis))
	sum := Summary{MeanONITemp: sumT / onis, MeanGradient: sumG / onis, MaxGradient: worst,
		ChipMax: b.chipMax(s), ChipAvg: chipAvg}
	if !sum.finite() {
		return Summary{}, nonFinite(p)
	}
	return sum, nil
}
