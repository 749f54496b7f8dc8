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
// safe for concurrent use: its thermal.Model builds and caches the bases
// (one build per activity however many callers ask at once), and
// everything else only reads immutable state.
type Methodology struct {
	spec   thermal.Spec
	snrCfg snr.Config

	model *thermal.Model
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
	return &Methodology{spec: spec, snrCfg: cfg, model: model}, nil
}

// Spec returns the system specification.
func (m *Methodology) Spec() thermal.Spec { return m.spec }

// SNRConfig returns the SNR technology configuration.
func (m *Methodology) SNRConfig() snr.Config { return m.snrCfg }

// Model exposes the assembled thermal model.
func (m *Methodology) Model() *thermal.Model { return m.model }

// BasisFor returns the model's cached superposition basis for an
// activity shape, building it on first use (see thermal.Model.Basis).
func (m *Methodology) BasisFor(act activity.Scenario) (*thermal.Basis, error) {
	return m.model.Basis(act)
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
// When the model has a basis built for the powers' activity it is used;
// otherwise a direct solve runs.
func (m *Methodology) ThermalAnalysis(p thermal.Powers) (*thermal.Result, error) {
	if b := m.model.CachedBasis(p.Activity); b != nil {
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
