// Package vcselnoc is a thermal-aware design toolkit for on-chip optical
// interconnects built from CMOS-compatible VCSELs, reproducing the
// methodology of Li et al., "Thermal Aware Design Method for VCSEL-based
// On-Chip Optical Interconnect" (DATE 2015).
//
// The toolkit couples three engines:
//
//   - a steady-state (and transient) finite-volume thermal simulator of a
//     3D-stacked MPSoC package, meshed at device resolution inside the
//     Optical Network Interfaces (ONIs);
//   - electro-opto-thermal device models: VCSEL (threshold/slope/thermal
//     rollover), microring resonator (Lorentzian filter, 0.1 nm/°C drift,
//     resistive heater), photodetector and waveguide loss budget;
//   - the analytical worst-case SNR model for ORNoC rings under thermal
//     gradients, plus insertion-loss baselines (Matrix, λ-router, Snake).
//
// The central workflow mirrors the paper's Fig. 3:
//
//	m, err := vcselnoc.New()                       // SCC case study
//	opt, err := m.OptimalHeaterRatio(nil, 25, 4e-3) // ≈ 0.3 × P_VCSEL
//	res, err := m.SNRAnalysis(vcselnoc.SNRScenario{ ... })
//
// Every building block is exported here by alias so downstream code can
// depend on a single import path; the implementation lives in the
// internal packages (internal/thermal, internal/snr, ...).
package vcselnoc

import (
	"context"
	"io"
	"net/http"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/geom"
	"vcselnoc/internal/mesh"
	"vcselnoc/internal/mrr"
	"vcselnoc/internal/oni"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/photodiode"
	"vcselnoc/internal/scc"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/sparse"
	"vcselnoc/internal/stack"
	"vcselnoc/internal/thermal"
	"vcselnoc/internal/vcsel"
	"vcselnoc/internal/waveguide"
	"vcselnoc/internal/xbar"
)

// Methodology is the paper's design flow: thermal analysis + design-space
// exploration + SNR analysis. Build one with New or NewWithSpec.
type Methodology = core.Methodology

// SNRScenario describes one Fig. 12-style evaluation (placement case,
// activity, laser/heater powers, communication pattern).
type SNRScenario = core.SNRScenario

// SNRResult bundles the thermal and signal outcomes of a scenario.
type SNRResult = core.SNRResult

// DesignEvaluation is the complete verdict for one operating point.
type DesignEvaluation = core.DesignEvaluation

// CommPattern selects the communication set on a ring.
type CommPattern = core.CommPattern

// Communication patterns.
const (
	Neighbour = core.Neighbour
	Paired    = core.Paired
)

// New builds the methodology at the paper's operating point.
func New() (*Methodology, error) { return core.New() }

// NewWithSpec builds the methodology from an explicit specification.
func NewWithSpec(spec ThermalSpec, cfg SNRConfig) (*Methodology, error) {
	return core.NewWithSpec(spec, cfg)
}

// Options tunes the paper's operating point without spelling out a full
// specification: mesh density, solver tolerance and parallelism.
type Options struct {
	// Res selects the mesh density; the zero value keeps the FastResolution
	// default of PaperSpec.
	Res Resolution
	// Workers caps the goroutines used by parallel solves and design-space
	// sweeps; 0 means GOMAXPROCS.
	Workers int
	// SolverTol overrides the 1e-8 relative solver tolerance when > 0.
	SolverTol float64
}

// NewWithOptions builds the methodology at the paper's operating point
// with tolerance and parallelism overrides.
func NewWithOptions(o Options) (*Methodology, error) {
	spec, err := thermal.PaperSpec()
	if err != nil {
		return nil, err
	}
	if o.Res != (Resolution{}) {
		spec.Res = o.Res
	}
	spec.Workers = o.Workers
	if o.SolverTol > 0 {
		spec.SolverTol = o.SolverTol
	}
	return core.NewWithSpec(spec, snr.DefaultConfig())
}

// Thermal simulation layer.
type (
	// ThermalSpec is the system specification (floorplan, stack, heat
	// sink, mesh resolution).
	ThermalSpec = thermal.Spec
	// ThermalModel is an assembled mesh + materials + power stencils.
	ThermalModel = thermal.Model
	// ThermalResult is a solved operating point with per-ONI reports.
	ThermalResult = thermal.Result
	// ThermalSummary is the five numbers a design query reads (mean ONI
	// temperature, mean and max gradient, chip max and average), from
	// ThermalBasis.Summary without allocating or ThermalResult.Summary.
	ThermalSummary = thermal.Summary
	// ThermalBasis is a superposition basis for fast power sweeps.
	ThermalBasis = thermal.Basis
	// Powers are the independent power knobs of an operating point.
	Powers = thermal.Powers
	// Resolution controls mesh density.
	Resolution = thermal.Resolution
	// ONIReport summarises one ONI's thermal state.
	ONIReport = thermal.ONIReport
)

// PaperSpec returns the SCC case-study specification.
func PaperSpec() (ThermalSpec, error) { return thermal.PaperSpec() }

// NewThermalModel assembles a thermal model from a specification.
func NewThermalModel(spec ThermalSpec) (*ThermalModel, error) { return thermal.NewModel(spec) }

// Mesh resolutions.
var (
	// PaperResolution is the paper's 5 µm ONI meshing (slow, accurate).
	PaperResolution = thermal.PaperResolution
	// FastResolution is the 10 µm default.
	FastResolution = thermal.FastResolution
	// CoarseResolution is the 20 µm test/preview setting.
	CoarseResolution = thermal.CoarseResolution
)

// Design-space exploration layer.
type (
	// Explorer runs laser/heater power sweeps over a thermal basis.
	Explorer = dse.Explorer
	// HeaterOptimum is the result of the optimal-heater search.
	HeaterOptimum = dse.HeaterOptimum
	// Feasibility reports the 1 °C gradient constraint at a point.
	Feasibility = dse.Feasibility
	// AvgTempPoint is one Fig. 9-a sweep cell.
	AvgTempPoint = dse.AvgTempPoint
	// GradientPoint is one Fig. 9-b sweep cell.
	GradientPoint = dse.GradientPoint
	// ComparisonRow is one Fig. 10 row.
	ComparisonRow = dse.ComparisonRow
)

// GradientLimit is the paper's 1 °C intra-ONI gradient constraint.
const GradientLimit = dse.GradientLimit

// NewExplorer wraps a thermal basis for design-space exploration.
func NewExplorer(b *ThermalBasis) (*Explorer, error) { return dse.NewExplorer(b) }

// Device models.
type (
	// VCSELParams parameterise the laser model.
	VCSELParams = vcsel.Params
	// VCSEL is the electro-opto-thermal laser model.
	VCSEL = vcsel.Device
	// VCSELOperatingPoint is a self-consistent laser state.
	VCSELOperatingPoint = vcsel.OperatingPoint
	// MRParams parameterise the microring model.
	MRParams = mrr.Params
	// MR is a microring resonator.
	MR = mrr.Ring
	// DetectorParams parameterise the photodetector.
	DetectorParams = photodiode.Params
	// Detector is a photodetector.
	Detector = photodiode.Detector
	// LossBudget prices waveguide elements in dB.
	LossBudget = waveguide.LossBudget
)

// Device constructors and defaults.
func NewVCSEL(p VCSELParams) (*VCSEL, error)          { return vcsel.New(p) }
func DefaultVCSELParams() VCSELParams                 { return vcsel.DefaultParams() }
func NewMR(p MRParams) (*MR, error)                   { return mrr.New(p) }
func DefaultMRParams() MRParams                       { return mrr.DefaultParams() }
func NewDetector(p DetectorParams) (*Detector, error) { return photodiode.New(p) }
func DefaultDetectorParams() DetectorParams           { return photodiode.DefaultParams() }
func DefaultLossBudget() LossBudget                   { return waveguide.DefaultLossBudget() }

// Network layer.
type (
	// Ring is an ORNoC ring of ONIs.
	Ring = ornoc.Ring
	// RingNode is one ONI on a ring.
	RingNode = ornoc.Node
	// RingCommunication is a point-to-point channel on a ring.
	RingCommunication = ornoc.Communication
	// CaseStudy selects one of the paper's three ONI placements.
	CaseStudy = ornoc.CaseStudy
	// SNRConfig gathers the SNR technology parameters.
	SNRConfig = snr.Config
	// SNRReport is an evaluated communication set.
	SNRReport = snr.Report
	// CommReport is one communication's outcome.
	CommReport = snr.CommReport
)

// The paper's three ONI placements (Fig. 11).
const (
	Case18mm = ornoc.Case18mm
	Case32mm = ornoc.Case32mm
	Case47mm = ornoc.Case47mm
)

// NewRing builds a ring from ordered nodes.
func NewRing(nodes []RingNode) (*Ring, error) { return ornoc.NewRing(nodes) }

// BuildCase constructs one of the paper's placement cases.
func BuildCase(fp *Floorplan, c CaseStudy) (*Ring, error) { return ornoc.BuildCase(fp, c) }

// DefaultSNRConfig returns the paper's technology point (Table 1).
func DefaultSNRConfig() SNRConfig { return snr.DefaultConfig() }

// EvaluateSNR runs the analytical SNR model directly.
func EvaluateSNR(cfg SNRConfig, in snr.Input) (*SNRReport, error) { return snr.Evaluate(cfg, in) }

// SNRInput is the direct input to the SNR model.
type SNRInput = snr.Input

// Crossbar baselines.
type (
	// XbarTopology identifies a crossbar architecture.
	XbarTopology = xbar.Topology
	// XbarDesign couples topology, scale and loss budget.
	XbarDesign = xbar.Design
	// XbarAnalysis holds a design's loss statistics.
	XbarAnalysis = xbar.Analysis
	// XbarComparison is the ORNoC-vs-crossbars table.
	XbarComparison = xbar.Comparison
)

// Crossbar topologies.
const (
	TopoORNoC        = xbar.ORNoC
	TopoMatrix       = xbar.Matrix
	TopoLambdaRouter = xbar.LambdaRouter
	TopoSnake        = xbar.Snake
)

// AnalyzeXbar evaluates one crossbar design.
func AnalyzeXbar(d XbarDesign) (*XbarAnalysis, error) { return xbar.Analyze(d) }

// CompareXbars analyses every topology at one scale.
func CompareXbars(n int, pitch float64, b LossBudget) (*XbarComparison, error) {
	return xbar.Compare(n, pitch, b)
}

// Architecture layer.
type (
	// Floorplan is the SCC die layout.
	Floorplan = scc.Floorplan
	// PowerBlock is a rectangular heat source.
	PowerBlock = scc.PowerBlock
	// PackageStack is the vertical layer pile.
	PackageStack = stack.Stack
	// HeatSink is the finned air-cooled sink model.
	HeatSink = stack.HeatSink
	// ONILayout is a placed optical network interface.
	ONILayout = oni.Layout
	// ONIStyle selects chessboard or clustered placement.
	ONIStyle = oni.Style
)

// ONI placement styles.
const (
	Chessboard = oni.Chessboard
	Clustered  = oni.Clustered
)

// NewSCCFloorplan builds the 24-tile SCC floorplan.
func NewSCCFloorplan() (*Floorplan, error) { return scc.New() }

// DefaultPackageStack returns the paper's Fig. 7 layer pile.
func DefaultPackageStack() (*PackageStack, error) { return stack.DefaultSCC() }

// DefaultHeatSink returns the 125 W-class forced-air sink.
func DefaultHeatSink() HeatSink { return stack.DefaultHeatSink() }

// GenerateONI places ONI devices inside a site rectangle.
func GenerateONI(site ONISite, style ONIStyle) (*ONILayout, error) { return oni.Generate(site, style) }

// ONISite is the footprint rectangle of one ONI (die coordinates, metres).
type ONISite = geom.Rect

// NewONISite builds a w×h site centred at (cx, cy), all in metres.
func NewONISite(cx, cy, w, h float64) ONISite { return geom.CenteredRect(cx, cy, w, h) }

// Activity scenarios.
type (
	// ActivityScenario produces per-tile activity weights.
	ActivityScenario = activity.Scenario
	// UniformActivity loads all tiles equally.
	UniformActivity = activity.Uniform
	// DiagonalActivity is the paper's hot-diagonal pattern.
	DiagonalActivity = activity.Diagonal
	// RandomActivity is a seeded random pattern.
	RandomActivity = activity.Random
	// HotspotActivity concentrates load on one tile.
	HotspotActivity = activity.Hotspot
	// CheckerboardActivity alternates hot and cold tiles.
	CheckerboardActivity = activity.Checkerboard
)

// ActivityByName resolves a CLI-style scenario name.
func ActivityByName(name string, seed int64) (ActivityScenario, error) {
	return activity.ByName(name, seed)
}

// Serving layer: the warm thermal-analysis service behind cmd/vcseld and
// the scatter/gather client behind `dse -shards`.
type (
	// Server is the warm HTTP service: a long-lived model and its bases,
	// superposition queries evaluated inline against bases projected
	// onto the report's functionals, and single-flight basis builds. It
	// implements http.Handler.
	Server = serve.Server
	// ServeConfig sets the one spec a Server owns warm state for and
	// tunes its admission and job handling.
	ServeConfig = serve.Config
	// ServeScenario is the wire form of one operating point.
	ServeScenario = serve.Scenario
	// ShardClient scatters design-space sweep grids across a vcseld
	// fleet and gathers rows back deterministically, retrying failed
	// chunks locally.
	ShardClient = serve.ShardClient
)

// NewServer builds the warm thermal-analysis service.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewShardClient parses a comma-separated worker list into a sharded
// sweep client; fallback (optional) builds the local explorer used to
// recompute chunks whose worker failed.
func NewShardClient(shards string, sc ServeScenario, fallback func() (*Explorer, error)) (*ShardClient, error) {
	return serve.NewShardClient(shards, sc, fallback)
}

// RunServer serves handler on addr until ctx is cancelled, then drains
// in-flight requests gracefully (see serve.ListenAndRun).
func RunServer(ctx context.Context, addr string, handler http.Handler) error {
	return serve.ListenAndRun(ctx, addr, handler, 0, nil)
}

// Low-level solver access (for users building their own structures).
type (
	// FVMProblem is a raw finite-volume conduction problem.
	FVMProblem = fvm.Problem
	// FVMSystem is an assembled conduction operator, reusable across every
	// solve that shares geometry and boundaries (steady, block, transient).
	FVMSystem = fvm.System
	// FVMSolution is a solved temperature field.
	FVMSolution = fvm.Solution
	// FVMBoundary describes one domain face's condition.
	FVMBoundary = fvm.Boundary
	// FVMSolveOptions configures a steady solve (tolerance, workers,
	// V-cycle precision).
	FVMSolveOptions = fvm.SolveOptions
	// FVMTransientOptions configures a raw transient run.
	FVMTransientOptions = fvm.TransientOptions
	// SparseResult reports how an iterative solve went.
	SparseResult = sparse.Result
	// SparseCSR is a compressed-sparse-row matrix.
	SparseCSR = sparse.CSR
	// MeshGrid is a structured non-uniform grid.
	MeshGrid = mesh.Grid
	// MeshAxisBuilder accumulates breakpoints/refinements for one axis.
	MeshAxisBuilder = mesh.AxisBuilder
	// TransientSpec configures a system-level transient simulation
	// (observer, checkpoint and resume knobs included).
	TransientSpec = thermal.TransientSpec
	// TransientRun is an in-flight resumable system-level transient
	// simulation: step-at-a-time API over the cached transient operator.
	TransientRun = thermal.TransientRun
	// TransientObservation is one step's cheap monitoring statistics
	// (peak temperature, per-ONI device gradients).
	TransientObservation = thermal.TransientObservation
	// TransientStepper is the raw fvm-level step-at-a-time integrator.
	TransientStepper = fvm.TransientStepper
	// TransientCheckpoint is the serialisable state of a transient run;
	// restores are fingerprint-checked against mesh, operator, power
	// vector, time step and solver.
	TransientCheckpoint = fvm.TransientCheckpoint
	// LayerMap is a lateral temperature slice through one stack layer.
	LayerMap = thermal.LayerMap
)

// DecodeTransientCheckpoint reads and validates a JSON transient
// checkpoint (the format TransientCheckpoint.Encode writes).
func DecodeTransientCheckpoint(r io.Reader) (*TransientCheckpoint, error) {
	return fvm.DecodeTransientCheckpoint(r)
}

// NewMeshGrid builds a grid from per-axis line coordinates.
func NewMeshGrid(x, y, z []float64) (*MeshGrid, error) { return mesh.NewGrid(x, y, z) }

// NewMeshAxisBuilder starts an axis over [lo, hi] with a default cell size.
func NewMeshAxisBuilder(lo, hi, defaultStep float64) *MeshAxisBuilder {
	return mesh.NewAxisBuilder(lo, hi, defaultStep)
}

// Boundary condition kinds.
const (
	Adiabatic  = fvm.Adiabatic
	Convection = fvm.Convection
	Dirichlet  = fvm.Dirichlet
)

// NewFVMSystem assembles a problem's conduction operator once for reuse
// across many solves (steady, several power vectors at once, transient).
func NewFVMSystem(p *FVMProblem) (*FVMSystem, error) { return fvm.NewSystem(p) }

// SolveSteady solves a raw steady-state conduction problem.
func SolveSteady(p *FVMProblem, opts fvm.SolveOptions) (*FVMSolution, error) {
	return fvm.SolveSteady(p, opts)
}

// SolveTransient integrates a raw transient conduction problem.
func SolveTransient(p *FVMProblem, opts fvm.TransientOptions) (*FVMSolution, error) {
	return fvm.SolveTransient(p, opts)
}
