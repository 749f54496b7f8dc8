// Package core implements the paper's thermal-aware design methodology
// (Fig. 3): a system specification (package, floorplan, ONI layout, VCSEL
// library) feeds steady-state thermal simulation; design-space exploration
// over the laser and heater powers reduces the intra-ONI gradient; and an
// analytical SNR model evaluates the resulting ONoC's reliability and
// power efficiency under a given chip activity.
//
// Methodology is the facade a downstream user drives; each step is also
// available individually through the internal packages it composes
// (thermal, dse, ornoc, snr).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/oni"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
)

// CommPattern selects the communication set evaluated on a ring.
type CommPattern int

const (
	// Neighbour sends each ONI's traffic to the next ONI on the ring
	// (maximal wavelength reuse, shortest paths).
	Neighbour CommPattern = iota
	// Paired sends each ONI's traffic halfway around the ring (longest
	// paths, most intermediate filters).
	Paired
)

func (p CommPattern) String() string {
	switch p {
	case Neighbour:
		return "neighbour"
	case Paired:
		return "paired"
	default:
		return fmt.Sprintf("CommPattern(%d)", int(p))
	}
}

// Methodology is a configured instance of the paper's design flow. It is
// safe for concurrent use: basis builds are serialised per activity with
// single-flight deduplication (concurrent requests for a cold activity
// share one build), and everything else only reads immutable state.
type Methodology struct {
	spec   thermal.Spec
	snrCfg snr.Config

	model *thermal.Model

	mu     sync.Mutex
	bases  map[string]*basisEntry
	builds atomic.Int64
}

// basisEntry is one activity's basis slot: the once gates the build so
// concurrent BasisFor calls for the same activity share a single solve;
// done publishes b/err to goroutines that only peek (ThermalAnalysis)
// without joining the flight.
type basisEntry struct {
	once sync.Once
	done atomic.Bool
	b    *thermal.Basis
	err  error
}

// ready returns the completed basis, or nil when the entry is still
// building or its build failed.
func (e *basisEntry) ready() *thermal.Basis {
	if e == nil || !e.done.Load() || e.err != nil {
		return nil
	}
	return e.b
}

// New builds the methodology at the paper's operating point (SCC case
// study, default technology parameters).
func New() (*Methodology, error) {
	spec, err := thermal.PaperSpec()
	if err != nil {
		return nil, err
	}
	return NewWithSpec(spec, snr.DefaultConfig())
}

// NewWithSpec builds the methodology from an explicit specification.
func NewWithSpec(spec thermal.Spec, cfg snr.Config) (*Methodology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := thermal.NewModel(spec)
	if err != nil {
		return nil, err
	}
	return &Methodology{
		spec:   spec,
		snrCfg: cfg,
		model:  model,
		bases:  make(map[string]*basisEntry),
	}, nil
}

// Spec returns the system specification.
func (m *Methodology) Spec() thermal.Spec { return m.spec }

// SNRConfig returns the SNR technology configuration.
func (m *Methodology) SNRConfig() snr.Config { return m.snrCfg }

// Model exposes the assembled thermal model.
func (m *Methodology) Model() *thermal.Model { return m.model }

// basisKey identifies a scenario for basis caching. Name() alone is not
// enough for a long-lived Methodology: parameterised scenarios (Random's
// seed, Hotspot's tile) share a Name, and a warm server must not answer a
// seed-2 query from a seed-1 basis. The key therefore appends the
// scenario's field values.
func basisKey(act activity.Scenario) string {
	if act == nil {
		act = activity.Uniform{}
	}
	return fmt.Sprintf("%s|%+v", act.Name(), act)
}

// BasisFor returns (building and caching on first use) the superposition
// basis for an activity shape. Concurrent calls for the same cold
// activity are deduplicated: exactly one build runs, the rest wait for
// and share its result. Failed builds are not cached, so a later call may
// retry.
func (m *Methodology) BasisFor(act activity.Scenario) (*thermal.Basis, error) {
	if act == nil {
		act = activity.Uniform{}
	}
	name := basisKey(act)
	m.mu.Lock()
	e, ok := m.bases[name]
	if !ok {
		e = &basisEntry{}
		m.bases[name] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.builds.Add(1)
		e.b, e.err = m.model.BuildBasis(act)
		e.done.Store(true)
	})
	if e.err != nil {
		m.mu.Lock()
		if m.bases[name] == e {
			delete(m.bases, name)
		}
		m.mu.Unlock()
		return nil, e.err
	}
	return e.b, nil
}

// BasisBuilds returns the number of basis builds actually executed — the
// observable the single-flight tests and the service's stats endpoint
// use: N concurrent cold queries must report exactly one build.
func (m *Methodology) BasisBuilds() int64 { return m.builds.Load() }

// EvictBasis drops the cached basis for an activity shape so its memory
// (~4 fields × NumCells × 8 bytes) can be reclaimed, and reports whether
// an entry was present. The model's device-field memo stays, so a
// non-uniform rebuild costs one chip-field solve; the memo is the model's
// first uniform basis, so it costs nothing while that basis is the cached
// one and one basis's fields once it is evicted. Safe against racing
// BasisFor calls: an in-flight build on the evicted entry completes and
// serves its waiters — the entry just stops being shared with later
// calls, which rebuild. Because the solve pipeline is deterministic, a
// rebuilt basis is value-identical to the evicted one (pinned by the
// serve eviction tests).
func (m *Methodology) EvictBasis(act activity.Scenario) bool {
	key := basisKey(act)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.bases[key]; !ok {
		return false
	}
	delete(m.bases, key)
	return true
}

// BasisCount reports the cached basis entries (completed or building) —
// the bounded-memory invariant the serving layer's LRU maintains.
func (m *Methodology) BasisCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bases)
}

// Explorer returns a design-space explorer bound to the activity's basis.
// The spec's Workers knob caps the explorer's sweep parallelism.
func (m *Methodology) Explorer(act activity.Scenario) (*dse.Explorer, error) {
	b, err := m.BasisFor(act)
	if err != nil {
		return nil, err
	}
	ex, err := dse.NewExplorer(b)
	if err != nil {
		return nil, err
	}
	ex.SetWorkers(m.spec.Workers)
	return ex, nil
}

// ThermalAnalysis runs one steady-state simulation (step 1 of the flow).
// When a basis exists for the powers' activity it is used; otherwise a
// direct solve runs.
func (m *Methodology) ThermalAnalysis(p thermal.Powers) (*thermal.Result, error) {
	m.mu.Lock()
	e := m.bases[basisKey(p.Activity)]
	m.mu.Unlock()
	if b := e.ready(); b != nil {
		return b.Evaluate(p)
	}
	return m.model.Solve(p)
}

// SNRScenario specifies one Fig. 12-style evaluation.
type SNRScenario struct {
	// Case selects the ONI placement (ring length).
	Case ornoc.CaseStudy
	// Activity shapes the chip power.
	Activity activity.Scenario
	// ChipPower is the total processing power (W); the paper's SNR study
	// uses 24 W.
	ChipPower float64
	// PVCSEL and PHeater are the per-device powers (W); the paper uses
	// 3.6 mW and 1.08 mW (= 0.3 ratio).
	PVCSEL, PHeater float64
	// Pattern selects the communication set.
	Pattern CommPattern
}

// Validate reports scenario errors.
func (s SNRScenario) Validate() error {
	if s.ChipPower < 0 || s.PVCSEL < 0 || s.PHeater < 0 {
		return fmt.Errorf("core: negative power in scenario %+v", s)
	}
	if s.Pattern != Neighbour && s.Pattern != Paired {
		return fmt.Errorf("core: unknown pattern %v", s.Pattern)
	}
	return nil
}

// SNRResult bundles the thermal and signal outcomes of a scenario.
type SNRResult struct {
	Scenario SNRScenario
	Thermal  *thermal.Result
	Ring     *ornoc.Ring
	Report   *snr.Report
	// RingLengthM is the waveguide loop length.
	RingLengthM float64
	// NodeTempMin and NodeTempMax bound the ONI temperatures on the ring
	// (the inter-ONI spread the paper quotes per case).
	NodeTempMin, NodeTempMax float64
}

// SNRAnalysis runs the full chain: thermal map → ONI temperatures on the
// ring → analytical SNR (steps 2–3 of the flow).
func (m *Methodology) SNRAnalysis(s SNRScenario) (*SNRResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ring, err := ornoc.BuildCase(m.spec.Floorplan, s.Case)
	if err != nil {
		return nil, err
	}
	res, err := m.ThermalAnalysis(thermal.Powers{
		Chip:     s.ChipPower,
		Activity: s.Activity,
		VCSEL:    s.PVCSEL,
		Driver:   s.PVCSEL, // the paper's worst case: P_driver = P_VCSEL
		Heater:   s.PHeater,
	})
	if err != nil {
		return nil, err
	}

	var comms []ornoc.Communication
	switch s.Pattern {
	case Neighbour:
		comms = ornoc.NeighbourPattern(ring.N())
	case Paired:
		comms = ornoc.PairedPattern(ring.N())
	}
	if _, err := ring.AssignChannels(comms); err != nil {
		return nil, err
	}

	out := &SNRResult{
		Scenario:    s,
		Thermal:     res,
		Ring:        ring,
		RingLengthM: ring.Length(),
		NodeTempMin: math.Inf(1),
		NodeTempMax: math.Inf(-1),
	}
	temps := make([]float64, ring.N())
	for i, node := range ring.Nodes {
		if node.SiteIndex < 0 || node.SiteIndex >= len(res.ONIs) {
			return nil, fmt.Errorf("core: ring node %d references ONI %d outside thermal result", i, node.SiteIndex)
		}
		t := res.ONIs[node.SiteIndex].AvgTemp
		temps[i] = t
		if t < out.NodeTempMin {
			out.NodeTempMin = t
		}
		if t > out.NodeTempMax {
			out.NodeTempMax = t
		}
	}

	cfg := m.snrCfg
	cfg.PVCSEL = s.PVCSEL
	report, err := snr.Evaluate(cfg, snr.Input{Ring: ring, Comms: comms, NodeTemps: temps})
	if err != nil {
		return nil, err
	}
	out.Report = report
	return out, nil
}

// DesignEvaluation is the flow's final verdict for one operating point:
// thermal feasibility, signal quality and ONoC power cost.
type DesignEvaluation struct {
	Scenario    SNRScenario
	Feasibility dse.Feasibility
	SNR         *SNRResult
	// ONoCPower is the total optical-network electrical power: all
	// VCSELs, their drivers and all MR heaters (W).
	ONoCPower float64
	// Reliable means the gradient constraint holds, every signal clears
	// the detector floor and the worst-case SNR is positive.
	Reliable bool
}

// EvaluateDesign runs the complete methodology for one operating point.
func (m *Methodology) EvaluateDesign(s SNRScenario) (*DesignEvaluation, error) {
	ex, err := m.Explorer(s.Activity)
	if err != nil {
		return nil, err
	}
	feas, err := ex.CheckFeasibility(thermal.Powers{
		Chip:     s.ChipPower,
		Activity: s.Activity,
		VCSEL:    s.PVCSEL,
		Driver:   s.PVCSEL,
		Heater:   s.PHeater,
	})
	if err != nil {
		return nil, err
	}
	snrRes, err := m.SNRAnalysis(s)
	if err != nil {
		return nil, err
	}
	nONI := len(m.spec.Floorplan.ONISites)
	perONIVCSELs := oni.WaveguidesPerONI * oni.TransmittersPerWaveguide
	perONIMRs := oni.WaveguidesPerONI * oni.ReceiversPerWaveguide
	power := float64(nONI) * (float64(perONIVCSELs)*(s.PVCSEL+s.PVCSEL) + float64(perONIMRs)*s.PHeater)
	ev := &DesignEvaluation{
		Scenario:    s,
		Feasibility: feas,
		SNR:         snrRes,
		ONoCPower:   power,
	}
	ev.Reliable = feas.Feasible && snrRes.Report.AllDetected && snrRes.Report.WorstSNRdB > 0
	return ev, nil
}

// OptimalHeaterRatio runs the paper's headline exploration: the heater
// power fraction that minimises the intra-ONI gradient at the given chip
// activity and laser power.
func (m *Methodology) OptimalHeaterRatio(act activity.Scenario, chip, pv float64) (dse.HeaterOptimum, error) {
	ex, err := m.Explorer(act)
	if err != nil {
		return dse.HeaterOptimum{}, err
	}
	return ex.OptimalHeater(chip, pv, pv)
}
