// Package paper encodes the evaluation section of the ISCA'22 Surf-Stitch
// paper as runnable experiments: every table and figure has a function that
// regenerates its rows or series using this repository's synthesis,
// simulation and decoding stack. The cmd tools and the benchmark harness are
// thin wrappers around this package.
package paper

import (
	"context"
	"fmt"
	"strings"

	"surfstitch/internal/baseline"
	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/mc"
	"surfstitch/internal/obs"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
)

// Config scales the Monte-Carlo effort. The zero value uses quick defaults;
// the paper's full setting is Shots: 100000.
type Config struct {
	Shots int
	Seed  int64
	// Ps overrides the sweep points for threshold experiments.
	Ps []float64
	// Workers sizes the Monte-Carlo engine's pool; zero means NumCPU.
	Workers int
	// TargetRSE and MaxErrors enable adaptive early stopping per sweep
	// point (zero values keep the fixed shot budget, the paper's mode).
	TargetRSE float64
	MaxErrors int
	// Progress, when non-nil, receives live per-point sampling progress.
	Progress func(p float64, pr mc.Progress)
	// Ctx bounds the experiment; nil means context.Background(). Canceling
	// it stops sampling early — experiment functions then return whatever
	// partial results completed alongside the context's error.
	Ctx context.Context
	// Registry, when non-nil, receives live metrics from the underlying
	// Monte-Carlo engine and decoder (see threshold.Config.Registry).
	Registry *obs.Registry
}

// ctx returns the run context, defaulting to context.Background(). A
// configured Registry is attached so synthesis-stage spans record into it
// even when the caller did not thread it through Ctx itself.
func (c Config) ctx() context.Context {
	base := c.Ctx
	if base == nil {
		base = context.Background()
	}
	if c.Registry != nil && obs.RegistryFromContext(base) == nil {
		base = obs.ContextWithRegistry(base, c.Registry)
	}
	return base
}

// thresholdConfig projects the paper config onto the threshold package.
func (c Config) thresholdConfig() threshold.Config {
	return threshold.Config{
		Shots:     c.Shots,
		Seed:      c.Seed,
		Workers:   c.Workers,
		TargetRSE: c.TargetRSE,
		MaxErrors: c.MaxErrors,
		Progress:  c.Progress,
		Registry:  c.Registry,
	}
}

func (c Config) withDefaults() Config {
	if c.Shots == 0 {
		c.Shots = 3000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Ps) == 0 {
		c.Ps = []float64{0.0005, 0.001, 0.002, 0.004, 0.006}
	}
	return c
}

// CodeSpec names one synthesized code of the paper.
type CodeSpec struct {
	Name string
	Kind device.Kind
	Mode synth.Mode
}

// SurfStitchCodes lists the seven Surf-Stitch codes of Tables 2 and 3.
func SurfStitchCodes() []CodeSpec {
	return []CodeSpec{
		{"Surf-Stitch Heavy Square", device.KindHeavySquare, synth.ModeDefault},
		{"Surf-Stitch Heavy Hexagon", device.KindHeavyHexagon, synth.ModeDefault},
		{"Surf-Stitch Square", device.KindSquare, synth.ModeDefault},
		{"Surf-Stitch Hexagon", device.KindHexagon, synth.ModeDefault},
		{"Surf-Stitch Octagon", device.KindOctagon, synth.ModeDefault},
		{"Surf-Stitch Square-4", device.KindSquare, synth.ModeFour},
		{"Surf-Stitch Heavy Square-4", device.KindHeavySquare, synth.ModeFour},
	}
}

// Build synthesizes the spec's code at the given distance on the smallest
// supporting device.
func (cs CodeSpec) Build(distance int) (*synth.Synthesis, error) {
	return cs.BuildContext(context.Background(), distance)
}

// BuildContext is Build bounded by a context; synthesis-stage spans record
// into the context's registry and tracer.
func (cs CodeSpec) BuildContext(ctx context.Context, distance int) (*synth.Synthesis, error) {
	dev, layout, err := synth.FitDevice(cs.Kind, distance, cs.Mode)
	if err != nil {
		return nil, fmt.Errorf("paper: %s d=%d: %w", cs.Name, distance, err)
	}
	_ = dev
	return synth.SynthesizeOnLayoutContext(ctx, layout, synth.Options{Mode: cs.Mode})
}

// memoryInput assembles a Z-memory with 3d rounds for threshold runs.
func memoryInput(s *synth.Synthesis) (threshold.Input, error) {
	m, err := experiment.NewMemory(s, 3*s.Layout.Code.Distance(), experiment.Options{})
	if err != nil {
		return threshold.Input{}, err
	}
	return threshold.Input{Circuit: m.Circuit, IdleQubits: s.AllQubits()}, nil
}

// CurvePair holds the distance-3 and distance-5 curves of one code plus the
// crossing-point threshold (zero when the curves do not cross in range).
type CurvePair struct {
	Name      string
	D3, D5    threshold.Curve
	Threshold float64
}

// curvePair sweeps one code at distances 3 and 5.
func curvePair(name string, build func(d int) (threshold.Input, error), cfg Config) (CurvePair, error) {
	cfg = cfg.withDefaults()
	out := CurvePair{Name: name}
	tc := cfg.thresholdConfig()
	for _, d := range []int{3, 5} {
		in, err := build(d)
		if err != nil {
			return out, err
		}
		curve, err := threshold.EstimateCurveContext(cfg.ctx(), fmt.Sprintf("%s d=%d", name, d), d, in, cfg.Ps, tc)
		if d == 3 {
			out.D3 = curve
		} else {
			out.D5 = curve
		}
		if err != nil {
			return out, err
		}
	}
	if th, ok := threshold.Crossing(out.D3, out.D5); ok {
		out.Threshold = th
	}
	return out, nil
}

// Figure9a compares Surf-Stitch and IBM-style codes on the heavy-hexagon
// architecture: logical error curves at distances 3 and 5 and the resulting
// thresholds.
func Figure9a(cfg Config) ([]CurvePair, error) {
	surf, err := curvePair("Surf-Stitch Heavy Hexagon", func(d int) (threshold.Input, error) {
		s, err := CodeSpec{Kind: device.KindHeavyHexagon}.BuildContext(cfg.ctx(), d)
		if err != nil {
			return threshold.Input{}, err
		}
		return memoryInput(s)
	}, cfg)
	if err != nil {
		return []CurvePair{surf}, err
	}
	ibm, err := curvePair("IBM Heavy Hexagon", func(d int) (threshold.Input, error) {
		dev, _, err := synth.FitDevice(device.KindHeavyHexagon, d, synth.ModeDefault)
		if err != nil {
			return threshold.Input{}, err
		}
		hh, err := baseline.NewHeavyHexCode(dev, d)
		if err != nil {
			return threshold.Input{}, err
		}
		c, err := hh.MemoryCircuit(3 * d)
		if err != nil {
			return threshold.Input{}, err
		}
		return threshold.Input{Circuit: c, IdleQubits: hh.IdleQubits()}, nil
	}, cfg)
	if err != nil {
		return []CurvePair{surf, ibm}, err
	}
	return []CurvePair{surf, ibm}, nil
}

// Figure9b compares Surf-Stitch and the IBM code on the heavy-square
// architecture. The two are circuit-identical in this reproduction (the
// paper finds them "almost identical" with equal thresholds), so the figure
// regenerates both from the same synthesis while keeping separate labels.
func Figure9b(cfg Config) ([]CurvePair, error) {
	build := func(d int) (threshold.Input, error) {
		s, err := CodeSpec{Kind: device.KindHeavySquare}.BuildContext(cfg.ctx(), d)
		if err != nil {
			return threshold.Input{}, err
		}
		return memoryInput(s)
	}
	surf, err := curvePair("Surf-Stitch Heavy Square", build, cfg)
	if err != nil {
		return []CurvePair{surf}, err
	}
	ibm := surf
	ibm.Name = "IBM Heavy Square"
	return []CurvePair{surf, ibm}, nil
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Code           string
	AvgBridge      float64
	AvgCNOT        float64
	AvgTimeSteps   float64
	TotalTimeSteps int
	Threshold      float64 // zero when thresholds were not requested
}

// Table2 computes the stabilizer-measurement statistics of every code. When
// withThresholds is set, each code's d3/d5 crossing is estimated too (slow).
func Table2(cfg Config, withThresholds bool) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, spec := range SurfStitchCodes() {
		s, err := spec.Build(3)
		if err != nil {
			return nil, err
		}
		m := s.Metrics()
		row := Table2Row{
			Code: spec.Name, AvgBridge: m.AvgBridgeQubits, AvgCNOT: m.AvgCNOTs,
			AvgTimeSteps: m.AvgTimeSteps, TotalTimeSteps: m.TotalTimeSteps,
		}
		if withThresholds {
			spec := spec
			pair, err := curvePair(spec.Name, func(d int) (threshold.Input, error) {
				s, err := spec.Build(d)
				if err != nil {
					return threshold.Input{}, err
				}
				return memoryInput(s)
			}, cfg)
			if err != nil {
				return nil, err
			}
			row.Threshold = pair.Threshold
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Code                          string
	DataPct, BridgePct, UnusedPct float64
	TotalQubits                   int
}

// Table3 computes the distance-5 qubit utilization on the smallest
// supporting tiling of each architecture.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, spec := range SurfStitchCodes() {
		_, layout, err := synth.FitDevice(spec.Kind, 5, spec.Mode)
		if err != nil {
			return nil, err
		}
		s, err := synth.SynthesizeOnLayout(layout, synth.Options{Mode: spec.Mode})
		if err != nil {
			return nil, err
		}
		u := s.Utilization()
		rows = append(rows, Table3Row{
			Code: spec.Name, DataPct: u.DataPercent(), BridgePct: u.BridgePercent(),
			UnusedPct: u.UnusedPercent(), TotalQubits: u.TotalQubits,
		})
	}
	return rows, nil
}

// Table4Row reports the resource scaling of one code at one distance.
type Table4Row struct {
	Code        string
	Distance    int
	BridgeCount int     // distinct bridge qubits used
	BridgeRatio float64 // bridge / data
	TwoQubit    int     // CNOTs per error-detection cycle
	OneQubit    int     // H gates per error-detection cycle
}

// Table4 measures resource usage at distances 3, 5 and 7 per architecture,
// demonstrating the linear-in-d^2 scaling the paper derives analytically.
func Table4() ([]Table4Row, error) {
	specs := []CodeSpec{
		{"Surf-Stitch Heavy Square", device.KindHeavySquare, synth.ModeDefault},
		{"Surf-Stitch Heavy Hexagon", device.KindHeavyHexagon, synth.ModeDefault},
		{"Surf-Stitch Square", device.KindSquare, synth.ModeDefault},
		{"Surf-Stitch Hexagon", device.KindHexagon, synth.ModeDefault},
		{"Surf-Stitch Octagon", device.KindOctagon, synth.ModeDefault},
	}
	var rows []Table4Row
	for _, spec := range specs {
		for _, d := range []int{3, 5, 7} {
			s, err := spec.Build(d)
			if err != nil {
				return nil, err
			}
			cnots, hs := cycleGateCounts(s)
			u := s.Utilization()
			rows = append(rows, Table4Row{
				Code: spec.Name, Distance: d,
				BridgeCount: u.BridgeQubits,
				BridgeRatio: float64(u.BridgeQubits) / float64(u.DataQubits),
				TwoQubit:    cnots, OneQubit: hs,
			})
		}
	}
	return rows, nil
}

// cycleGateCounts counts the CNOT and Hadamard gates of one full
// error-detection cycle (all schedule sets).
func cycleGateCounts(s *synth.Synthesis) (cnots, hs int) {
	b := circuit.NewBuilder(s.Layout.Dev.Len())
	for _, set := range s.Schedule {
		flagbridge.AppendSet(b, set)
	}
	c := b.MustBuild()
	return c.CountOp(circuit.OpCX), c.CountOp(circuit.OpH)
}

// Figure10 renders the first four stabilizers of the five syntheses shown in
// the paper's Figure 10.
func Figure10() (string, error) {
	specs := []CodeSpec{
		{"(a) square", device.KindSquare, synth.ModeDefault},
		{"(b) hexagon", device.KindHexagon, synth.ModeDefault},
		{"(c) octagon", device.KindOctagon, synth.ModeDefault},
		{"(d) square-4", device.KindSquare, synth.ModeFour},
		{"(e) heavy-square-4", device.KindHeavySquare, synth.ModeFour},
	}
	var sb strings.Builder
	for _, spec := range specs {
		s, err := spec.Build(3)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "--- Figure 10%s ---\n%s\n", spec.Name, s.Describe(4))
	}
	return sb.String(), nil
}

// Figure11aResult compares bridge-tree synthesis against SWAP routing.
type Figure11aResult struct {
	SurfCNOTs    int
	RoutedCNOTs  int
	SurfLogical  []threshold.Point
	RouteLogical []threshold.Point
}

// Figure11a runs the bridge-tree vs revised-SABRE comparison on the
// heavy-square architecture at distance 3.
func Figure11a(cfg Config) (Figure11aResult, error) {
	cfg = cfg.withDefaults()
	var out Figure11aResult
	dev, _, err := synth.FitDevice(device.KindHeavySquare, 3, synth.ModeDefault)
	if err != nil {
		return out, err
	}
	s, err := synth.Synthesize(cfg.ctx(), dev, 3, synth.Options{})
	if err != nil {
		return out, err
	}
	for _, p := range s.Plans {
		out.SurfCNOTs += p.NumCNOTs()
	}
	sr, err := baseline.NewSabreRouted(dev, 3)
	if err != nil {
		return out, err
	}
	out.RoutedCNOTs = sr.CNOTCount

	surfProv, err := memoryInput(s)
	if err != nil {
		return out, err
	}
	rc, err := sr.MemoryCircuit(9)
	if err != nil {
		return out, err
	}
	routeProv := threshold.Input{Circuit: rc, IdleQubits: sr.IdleQubits()}
	tc := cfg.thresholdConfig()
	for _, p := range cfg.Ps {
		sp, err := threshold.EstimatePointContext(cfg.ctx(), surfProv, p, tc)
		if err != nil {
			return out, err
		}
		rp, err := threshold.EstimatePointContext(cfg.ctx(), routeProv, p, tc)
		if err != nil {
			return out, err
		}
		out.SurfLogical = append(out.SurfLogical, sp)
		out.RouteLogical = append(out.RouteLogical, rp)
	}
	return out, nil
}

// Figure11bResult holds one idle-error point of the scheduling comparison.
type Figure11bResult struct {
	IdleError       float64
	RefinedLogical  float64
	TwoStageLogical float64
}

// Figure11b compares the Surf-Stitch schedule against the two-stage X-then-Z
// schedule on the heavy-square-4 synthesis as the idle error grows,
// measuring the distance-3 logical error rate at a fixed gate error.
func Figure11b(cfg Config, gateError float64, idles []float64) ([]Figure11bResult, error) {
	cfg = cfg.withDefaults()
	if gateError == 0 {
		gateError = 0.001
	}
	if len(idles) == 0 {
		idles = []float64{0.0001, 0.0002, 0.0005, 0.001}
	}
	dev, _, err := synth.FitDevice(device.KindHeavySquare, 3, synth.ModeFour)
	if err != nil {
		return nil, err
	}
	refined, err := synth.Synthesize(cfg.ctx(), dev, 3, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		return nil, err
	}
	twoStage, err := synth.Synthesize(cfg.ctx(), dev, 3, synth.Options{Mode: synth.ModeFour, NoRefine: true})
	if err != nil {
		return nil, err
	}
	refProv, err := memoryInput(refined)
	if err != nil {
		return nil, err
	}
	twoProv, err := memoryInput(twoStage)
	if err != nil {
		return nil, err
	}
	var out []Figure11bResult
	for _, idle := range idles {
		tc := cfg.thresholdConfig()
		tc.IdleError = idle
		tc.NoIdle = idle == 0 // idle = 0 now really means "no idle noise"
		rp, err := threshold.EstimatePointContext(cfg.ctx(), refProv, gateError, tc)
		if err != nil {
			return out, err
		}
		tp, err := threshold.EstimatePointContext(cfg.ctx(), twoProv, gateError, tc)
		if err != nil {
			return out, err
		}
		out = append(out, Figure11bResult{IdleError: idle, RefinedLogical: rp.Logical, TwoStageLogical: tp.Logical})
	}
	return out, nil
}

// AllocationStudy runs the §5.4 data-qubit-allocation comparison.
func AllocationStudy(trials int, seed int64) ([]baseline.AllocationResult, error) {
	if trials == 0 {
		trials = 1000
	}
	dev, _, err := synth.FitDevice(device.KindHeavyHexagon, 3, synth.ModeDefault)
	if err != nil {
		return nil, err
	}
	rnd, err := baseline.RandomAllocator(dev, 3, trials, seed)
	if err != nil {
		return nil, err
	}
	sab, err := baseline.SabreLayoutAllocator(dev, 3, trials, seed+1)
	if err != nil {
		return nil, err
	}
	na, err := baseline.NoiseAdaptiveAllocator(dev, 3, trials, seed+2)
	if err != nil {
		return nil, err
	}
	ss := baseline.SurfStitchAllocator(dev, 3, trials)
	return []baseline.AllocationResult{ss, rnd, sab, na}, nil
}
