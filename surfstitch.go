// Package surfstitch is a Go implementation of Surf-Stitch, the surface code
// synthesis framework of "A Synthesis Framework for Stitching Surface Code
// with Superconducting Quantum Devices" (Wu et al., ISCA 2022).
//
// Surf-Stitch compiles the rotated surface code onto connectivity-
// constrained superconducting architectures in three stages: data qubit
// allocation via bridge rectangles, bridge tree construction (star-tree and
// branching-tree heuristics), and stabilizer measurement scheduling
// (iterative refinement). The library also contains every substrate needed
// to evaluate the synthesized codes: the five architecture families of the
// paper, a stabilizer (tableau) simulator, a bit-parallel Pauli-frame
// sampler, detector error model extraction, and a minimum-weight
// perfect-matching decoder built on a sparse-blossom matcher.
//
// Every long-running entry point is context-first and fails with a typed
// sentinel (ErrInvalidConfig, ErrNoPlacement, ErrDisconnected,
// ErrBudgetExceeded, ErrBadDefect) rather than a bare string, and accepts
// an optional metrics Registry for live observability.
//
// Quick start:
//
//	dev, err := surfstitch.NewDevice(surfstitch.HeavyHexagon, 4, 5)
//	if err != nil { ... }
//	syn, err := surfstitch.Synthesize(ctx, dev, 3, surfstitch.Options{})
//	if err != nil { ... }
//	fmt.Println(syn.Describe(8))
//	result, err := surfstitch.EstimateLogicalErrorRate(ctx, syn, 0.001, surfstitch.RunConfig{Shots: 10000})
package surfstitch

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"surfstitch/internal/decoder"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/grid"
	"surfstitch/internal/noise"
	"surfstitch/internal/obs"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
	"surfstitch/internal/verify"
)

// The typed error taxonomy of the facade. Every error returned by this
// package unwraps (errors.Is) to one of these sentinels, so callers branch
// on error identity instead of string-matching messages.
var (
	// ErrInvalidConfig: a facade argument or RunConfig field is out of its
	// documented domain (nil device, negative shots, degenerate sweep
	// range, unknown architecture or preset name, ...).
	ErrInvalidConfig = errors.New("surfstitch: invalid configuration")
	// ErrBudgetExceeded: the context canceled the search; the chain also
	// matches the context's own error.
	ErrBudgetExceeded = synth.ErrBudgetExceeded
	// ErrNoPlacement: no data-qubit allocation of the requested distance
	// fits the device.
	ErrNoPlacement = synth.ErrNoPlacement
	// ErrDisconnected: a stabilizer's data qubits cannot be bridged on the
	// coupling graph.
	ErrDisconnected = synth.ErrDisconnected
	// ErrBadDefect: a defect entry is malformed (rate outside [0,1],
	// unknown generator, out-of-range density).
	ErrBadDefect = device.ErrBadDefect
	// ErrBadCalibration: a calibration snapshot is malformed (non-finite or
	// out-of-range figure, duplicate entry, incomplete device coverage,
	// unknown snapshot preset).
	ErrBadCalibration = device.ErrBadCalibration
)

// Registry is a process-local metrics registry: counters, gauges and
// histograms with atomic hot-path updates, exposable in Prometheus text
// format. Attach one via RunConfig.Registry (estimation) or WithRegistry
// (synthesis) to watch a run live; a nil *Registry is valid everywhere and
// records nothing.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// WithRegistry attaches a metrics registry to the context, enabling
// per-stage span timing series (span_seconds_total{span="synth.trees"}, ...)
// and degradation-ladder counters for synthesis calls under it.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	return obs.ContextWithRegistry(ctx, r)
}

// Architecture selects one of the superconducting architecture families of
// the paper's Table 1.
type Architecture int

// The five parametric architecture families.
const (
	Square Architecture = iota
	Hexagon
	Octagon
	HeavySquare
	HeavyHexagon
)

// String names the architecture.
func (a Architecture) String() string {
	k, err := a.kind()
	if err != nil {
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
	return k.String()
}

func (a Architecture) kind() (device.Kind, error) {
	switch a {
	case Square:
		return device.KindSquare, nil
	case Hexagon:
		return device.KindHexagon, nil
	case Octagon:
		return device.KindOctagon, nil
	case HeavySquare:
		return device.KindHeavySquare, nil
	case HeavyHexagon:
		return device.KindHeavyHexagon, nil
	default:
		return 0, fmt.Errorf("%w: unknown architecture %d", ErrInvalidConfig, int(a))
	}
}

// Device is a superconducting quantum processor model: a coupling graph
// embedded in a 2-D grid.
type Device = device.Device

// Coord is an integer grid coordinate.
type Coord = grid.Coord

// NewDevice builds a device of the given architecture family tiled w x h.
// Unknown architectures and non-positive tilings fail with
// ErrInvalidConfig.
func NewDevice(a Architecture, w, h int) (*Device, error) {
	k, err := a.kind()
	if err != nil {
		return nil, err
	}
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("%w: tiling %dx%d must be at least 1x1", ErrInvalidConfig, w, h)
	}
	return device.ByKind(k, w, h), nil
}

// MustDevice is NewDevice for static, known-good arguments (examples,
// tests); it panics on error.
func MustDevice(a Architecture, w, h int) *Device {
	d, err := NewDevice(a, w, h)
	if err != nil {
		panic(err)
	}
	return d
}

// NewCustomDevice builds a device from explicit qubit coordinates and
// couplings (pairs of coordinates).
func NewCustomDevice(name string, qubits []Coord, couplings [][2]Coord) (*Device, error) {
	return device.FromGraph(name, qubits, couplings)
}

// Mode selects the syndrome-rectangle induction strategy of the synthesis.
type Mode = synth.Mode

// Synthesis modes: ModeDefault induces syndrome rectangles from pairs of
// three-degree qubits; ModeFour centers them on four-degree qubits (the
// paper's "-4" code variants).
const (
	ModeDefault = synth.ModeDefault
	ModeFour    = synth.ModeFour
)

// Options configures Synthesize. Set Degrade to arm the graceful-
// degradation ladder on defective devices.
type Options = synth.Options

// Synthesis is a fully synthesized surface code: layout, bridge trees,
// measurement plans and schedule.
type Synthesis = synth.Synthesis

// Metrics are the per-code statistics of the paper's Table 2.
type Metrics = synth.Metrics

// Utilization is the qubit-utilization breakdown of the paper's Table 3.
type Utilization = synth.Utilization

// Synthesize runs the full Surf-Stitch pipeline: data qubit allocation,
// bridge tree construction, and stabilizer measurement scheduling. The
// context bounds the search (on cancellation the error matches both
// ErrBudgetExceeded and the context's error) and may carry a metrics
// registry (WithRegistry) for per-stage timings. With Options.Degrade set,
// unroutable stabilizers are sacrificed and reported in the result's
// Degradation field instead of failing the synthesis.
func Synthesize(ctx context.Context, dev *Device, distance int, opts Options) (*Synthesis, error) {
	if ctx == nil {
		return nil, fmt.Errorf("%w: nil context", ErrInvalidConfig)
	}
	if dev == nil {
		return nil, fmt.Errorf("%w: nil device", ErrInvalidConfig)
	}
	if distance < 2 {
		return nil, fmt.Errorf("%w: code distance %d must be at least 2", ErrInvalidConfig, distance)
	}
	return synth.Synthesize(ctx, dev, distance, opts)
}

// DefectSet describes hardware faults to impose on a device: dead qubits,
// broken couplers, and per-element error-rate overrides.
type DefectSet = device.DefectSet

// GenerateDefects draws a reproducible defect set from one of the preset
// generators ("random", "clustered", "edge") at the given density. Unknown
// generators and out-of-range densities fail with ErrBadDefect.
func GenerateDefects(d *Device, generator string, density float64, seed int64) (DefectSet, error) {
	if d == nil {
		return DefectSet{}, fmt.Errorf("%w: nil device", ErrInvalidConfig)
	}
	return device.GenerateDefects(d, generator, density, seed)
}

// Calibration is a full calibration snapshot of a device: per-qubit T1/T2,
// single-qubit gate fidelity and readout error, plus per-coupler two-qubit
// gate fidelity. Attach one with Device.WithCalibration; a calibrated
// device drives per-location noise channels, calibration-weighted bridge
// routing, and participates in ConfigHash.
type Calibration = device.Calibration

// ParseCalibration decodes a calibration snapshot from JSON. Unknown fields
// fail with ErrBadCalibration; full validation happens when the snapshot is
// attached to a device.
func ParseCalibration(data []byte) (*Calibration, error) {
	return device.ParseCalibration(data)
}

// GenerateCalibration draws a reproducible full-coverage snapshot from one
// of the preset bands ("good", "median", "bad"). Unknown names fail with
// ErrBadCalibration.
func GenerateCalibration(d *Device, snapshot string, seed int64) (*Calibration, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil device", ErrInvalidConfig)
	}
	return device.GenerateCalibration(d, snapshot, seed)
}

// CalibrationSnapshots lists the preset snapshot names, best chip first.
func CalibrationSnapshots() []string { return device.CalibrationSnapshots() }

// Memory is an assembled logical-memory experiment over a synthesis.
type Memory = experiment.Memory

// MemoryOptions configures memory-experiment assembly.
type MemoryOptions = experiment.Options

// NewMemory assembles a logical-memory experiment with the given number of
// error-detection rounds (the paper uses 3d).
func NewMemory(s *Synthesis, rounds int, opts MemoryOptions) (*Memory, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil synthesis", ErrInvalidConfig)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds %d must be at least 1", ErrInvalidConfig, rounds)
	}
	return experiment.NewMemory(s, rounds, opts)
}

// Basis selects the protected logical state of a memory experiment.
type Basis = experiment.Basis

// Memory bases: BasisZ protects |0>_L against Pauli-X errors (the paper's
// threshold setting); BasisX protects |+>_L against Pauli-Z errors.
const (
	BasisZ = experiment.BasisZ
	BasisX = experiment.BasisX
)

// RunConfig controls Monte-Carlo logical error estimation. The zero value
// is valid and selects the paper's defaults; Validate reports the first
// out-of-domain field as an ErrInvalidConfig.
type RunConfig struct {
	// Shots per estimate; defaults to 2000. With TargetRSE or MaxErrors set
	// this is the hard cap of the adaptive run.
	Shots int
	// Rounds of error detection; defaults to 3*distance.
	Rounds int
	// IdleError per time step; defaults to the paper's 0.0002. Set NoIdle to
	// disable idle noise entirely (zero here means "use the default").
	IdleError float64
	// NoIdle turns idle noise off completely.
	NoIdle bool
	// Seed for reproducible sampling; results are bit-identical for a fixed
	// seed at any worker count.
	Seed int64
	// Basis selects the protected logical state (default BasisZ).
	Basis Basis
	// Workers sizes the Monte-Carlo worker pool; zero means NumCPU.
	Workers int
	// TargetRSE stops sampling early once the Wilson interval's relative
	// half-width reaches this value (zero disables).
	TargetRSE float64
	// MaxErrors stops sampling early after this many logical errors (zero
	// disables).
	MaxErrors int
	// UnionFind decodes with the almost-linear union-find decoder instead of
	// sparse-blossom minimum-weight matching. Results stay deterministic for a fixed
	// seed; accuracy trades slightly for speed on large graphs.
	UnionFind bool
	// Registry, when non-nil, receives live metrics from the run: the
	// Monte-Carlo engine's shot counters and shots/sec gauge, the decoder's
	// syndrome-weight histogram, decode-path and cache counters, and
	// per-stage span timings.
	Registry *Registry
}

// Validate reports the first out-of-domain field, wrapped in
// ErrInvalidConfig; the zero value passes.
func (cfg RunConfig) Validate() error {
	switch {
	case cfg.Shots < 0:
		return fmt.Errorf("%w: Shots %d must not be negative", ErrInvalidConfig, cfg.Shots)
	case cfg.Rounds < 0:
		return fmt.Errorf("%w: Rounds %d must not be negative", ErrInvalidConfig, cfg.Rounds)
	case cfg.IdleError < 0 || cfg.IdleError > 1:
		return fmt.Errorf("%w: IdleError %g outside [0, 1]", ErrInvalidConfig, cfg.IdleError)
	case cfg.Basis != BasisZ && cfg.Basis != BasisX:
		return fmt.Errorf("%w: unknown basis %v", ErrInvalidConfig, cfg.Basis)
	case cfg.Workers < 0:
		return fmt.Errorf("%w: Workers %d must not be negative", ErrInvalidConfig, cfg.Workers)
	case cfg.TargetRSE < 0 || cfg.TargetRSE >= 1:
		return fmt.Errorf("%w: TargetRSE %g outside [0, 1)", ErrInvalidConfig, cfg.TargetRSE)
	case cfg.MaxErrors < 0:
		return fmt.Errorf("%w: MaxErrors %d must not be negative", ErrInvalidConfig, cfg.MaxErrors)
	}
	return nil
}

// thresholdConfig projects RunConfig onto the threshold package — the one
// place the facade's run parameters translate into engine configuration.
func (cfg RunConfig) thresholdConfig() threshold.Config {
	return threshold.Config{
		Shots:     cfg.Shots,
		IdleError: cfg.IdleError,
		NoIdle:    cfg.NoIdle,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		TargetRSE: cfg.TargetRSE,
		MaxErrors: cfg.MaxErrors,
		Decoder:   decoder.Options{UnionFind: cfg.UnionFind},
		Registry:  cfg.Registry,
	}
}

// checkEstimateArgs validates the shared preconditions of the Estimate*
// family and returns the context with the config's registry attached, so
// stage spans under the call record into it.
func (cfg RunConfig) checkEstimateArgs(ctx context.Context, ps []float64) (context.Context, error) {
	if ctx == nil {
		return nil, fmt.Errorf("%w: nil context", ErrInvalidConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: no physical error rates given", ErrInvalidConfig)
	}
	for _, p := range ps {
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("%w: physical error rate %g outside (0, 1)", ErrInvalidConfig, p)
		}
	}
	return obs.ContextWithRegistry(ctx, cfg.Registry), nil
}

// memoryRun assembles the memory experiment the Estimate* family samples
// and the threshold configuration it runs under. A calibrated device swaps
// the uniform model for per-location channels; BuilderFor returns nil on
// uncalibrated devices, keeping their results bit-identical.
func (cfg RunConfig) memoryRun(s *Synthesis) (threshold.Input, threshold.Config, error) {
	if s == nil {
		return threshold.Input{}, threshold.Config{}, fmt.Errorf("%w: nil synthesis", ErrInvalidConfig)
	}
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 3 * s.Layout.Code.Distance()
	}
	m, err := experiment.NewMemory(s, rounds, experiment.Options{Basis: cfg.Basis})
	if err != nil {
		return threshold.Input{}, threshold.Config{}, err
	}
	tc := cfg.thresholdConfig()
	tc.Noise = noise.BuilderFor(s.Layout.Dev)
	return threshold.Input{Circuit: m.Circuit, IdleQubits: s.AllQubits()}, tc, nil
}

// Result is a measured logical error rate.
type Result struct {
	PhysicalErrorRate float64
	LogicalErrorRate  float64
	Shots             int
	Errors            int
}

// EstimateLogicalErrorRate assembles a memory experiment for the synthesis,
// applies the paper's circuit-level error model at physical rate p, samples,
// decodes with minimum-weight perfect matching, and reports the logical
// error rate. The context cancels the run between chunks; partial work is
// discarded.
func EstimateLogicalErrorRate(ctx context.Context, s *Synthesis, p float64, cfg RunConfig) (Result, error) {
	ctx, err := cfg.checkEstimateArgs(ctx, []float64{p})
	if err != nil {
		return Result{}, err
	}
	in, tc, err := cfg.memoryRun(s)
	if err != nil {
		return Result{}, err
	}
	pt, err := threshold.EstimatePointContext(ctx, in, p, tc)
	if err != nil {
		return Result{}, err
	}
	return Result{PhysicalErrorRate: pt.P, LogicalErrorRate: pt.Logical, Shots: pt.Shots, Errors: pt.Errors}, nil
}

// Curve is a measured logical-vs-physical error curve.
type Curve = threshold.Curve

// EstimateCurve sweeps physical error rates for the synthesis. On
// cancellation it returns the completed prefix of the curve alongside the
// error.
func EstimateCurve(ctx context.Context, s *Synthesis, ps []float64, cfg RunConfig) (Curve, error) {
	ctx, err := cfg.checkEstimateArgs(ctx, ps)
	if err != nil {
		return Curve{}, err
	}
	in, tc, err := cfg.memoryRun(s)
	if err != nil {
		return Curve{}, err
	}
	return threshold.EstimateCurveContext(
		ctx,
		fmt.Sprintf("%s-d%d", s.Layout.Dev.Name(), s.Layout.Code.Distance()),
		s.Layout.Code.Distance(),
		in,
		ps,
		tc,
	)
}

// EstimateThreshold estimates the error threshold of codes produced by the
// builder at distances 3 and 5: the physical error rate where the two
// logical error curves cross (the paper's definition).
func EstimateThreshold(ctx context.Context, build func(distance int) (*Synthesis, error), ps []float64, cfg RunConfig) (float64, error) {
	if _, err := cfg.checkEstimateArgs(ctx, ps); err != nil {
		return 0, err
	}
	if build == nil {
		return 0, fmt.Errorf("%w: nil builder", ErrInvalidConfig)
	}
	var curves []Curve
	for _, d := range []int{3, 5} {
		s, err := build(d)
		if err != nil {
			return 0, fmt.Errorf("surfstitch: building distance-%d code: %w", d, err)
		}
		c := cfg
		c.Rounds = 3 * d
		curve, err := EstimateCurve(ctx, s, ps, c)
		if err != nil {
			return 0, err
		}
		curves = append(curves, curve)
	}
	th, ok := threshold.Crossing(curves[0], curves[1])
	if !ok {
		return 0, fmt.Errorf("surfstitch: curves do not cross within the sweep range")
	}
	return th, nil
}

// Sweep returns n log-spaced physical error rates in [lo, hi]. Degenerate
// ranges (n < 2, non-positive lo, hi <= lo) fail with ErrInvalidConfig.
func Sweep(lo, hi float64, n int) ([]float64, error) {
	ps, err := threshold.Sweep(lo, hi, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return ps, nil
}

// DefaultIdleError is the paper's idle depolarizing probability per step.
const DefaultIdleError = noise.DefaultIdleError

// PresetDevice returns a chip-preset device modeled on a published
// processor: "falcon-like-27q", "hummingbird-like-65q", "aspen-like-32q" or
// "sycamore-like-54q". Unknown names fail with ErrInvalidConfig.
func PresetDevice(name string) (*Device, error) {
	d, err := device.Preset(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return d, nil
}

// PresetNames lists the available chip presets.
func PresetNames() []string {
	var names []string
	for name := range device.Presets() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// VerifyReport is the structured outcome of end-to-end verification.
type VerifyReport = verify.Report

// Verify runs end-to-end validation of a synthesis: structural invariants,
// detector determinism under exact simulation, the single-fault property of
// the decoder, and a hook-orientation audit. See the report's Pass method.
// A nil synthesis yields a failing report rather than a panic.
func Verify(s *Synthesis) VerifyReport {
	if s == nil {
		return VerifyReport{Structural: []string{"nil synthesis"}}
	}
	return verify.Synthesis(s, verify.Options{})
}

// SynthReport is the machine-readable synthesis report (schema_version,
// lattice, stabilizers, schedule, metrics, degradation).
type SynthReport = synth.Report

// CertifiedDistance statically certifies the fault distance of a synthesis:
// the exact minimum number of elementary circuit faults that flip a logical
// observable without tripping any detector, taken over both logical bases.
// Zero means no undetectable logical fault set exists. Much cheaper than
// Verify — no stabilizer simulation or decoding — so it is the right call
// for serving paths that only need the certificate.
func CertifiedDistance(s *Synthesis) (int, error) {
	if s == nil {
		return 0, fmt.Errorf("%w: nil synthesis", ErrInvalidConfig)
	}
	return verify.CertifiedDistance(s)
}
