// Package server is the serving layer of the repository: surfstitchd's
// HTTP API, its bounded job queue and worker pool, and the persistent job
// store, which indexes jobs by content address. The package turns the
// facade's batch computations (synthesize, estimate a point, sweep a
// curve, lattice surgery) into asynchronous jobs with validation,
// backpressure, cancellation, checkpointed resume, and re-serving of
// identical requests: a done job answers them, and a queued or running one
// absorbs them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"surfstitch"
	"surfstitch/internal/device"
)

// Job kinds, one per async endpoint.
const (
	KindSynthesize = "synthesize"
	KindEstimate   = "estimate"
	KindCurve      = "curve"
	KindSurgery    = "surgery"
)

// Request is the wire form of every job submission. Exactly one device
// source must be given (arch+width+height, preset, or custom); the P / Ps
// fields select the estimation payload per endpoint.
type Request struct {
	Device  DeviceSpec  `json:"device"`
	Defects *DefectSpec `json:"defects,omitempty"`
	// Calibration attaches a calibration snapshot, switching the job's noise
	// model (and the content address) to the calibrated chip.
	Calibration *CalibrationSpec `json:"calibration,omitempty"`
	Distance    int              `json:"distance"`
	Options     OptionsSpec      `json:"options"`
	// Layout is the multi-patch payload of a surgery job; it replaces
	// Distance, which surgery requests must leave zero (each patch carries
	// its own distance).
	Layout *LayoutSpecWire `json:"layout,omitempty"`
	// P is the physical error rate of an estimate job, or the optional
	// Monte-Carlo point of a surgery job.
	P float64 `json:"p,omitempty"`
	// Ps are the sweep points of a curve job.
	Ps []float64 `json:"ps,omitempty"`
	// Run tunes Monte-Carlo estimation; ignored by synthesize jobs.
	Run RunSpec `json:"run"`
	// TimeoutSeconds bounds the job's context; zero inherits the server
	// default.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// DeviceSpec names the device to synthesize onto.
type DeviceSpec struct {
	// Arch + Width + Height select a parametric tiling: square, hexagon,
	// octagon, heavy-square or heavy-hexagon.
	Arch   string `json:"arch,omitempty"`
	Width  int    `json:"width,omitempty"`
	Height int    `json:"height,omitempty"`
	// Preset selects a chip preset (surfstitch.PresetNames).
	Preset string `json:"preset,omitempty"`
	// Custom is a device coupling-map export (the internal/device JSON
	// interchange schema).
	Custom json.RawMessage `json:"custom,omitempty"`
}

// DefectSpec draws a reproducible defect set onto the device before
// synthesis, via the preset generators.
type DefectSpec struct {
	Generator string  `json:"generator"`
	Density   float64 `json:"density"`
	Seed      int64   `json:"seed,omitempty"`
}

// CalibrationSpec selects a calibration snapshot: either a named preset
// (drawn reproducibly from Seed) or a full custom snapshot in the
// internal/device calibration JSON schema. Exactly one source must be given.
type CalibrationSpec struct {
	Preset string          `json:"preset,omitempty"`
	Seed   int64           `json:"seed,omitempty"`
	Custom json.RawMessage `json:"custom,omitempty"`
}

// build resolves the spec against dev, returning the calibrated device.
func (cs CalibrationSpec) build(dev *surfstitch.Device) (*surfstitch.Device, error) {
	var cal *surfstitch.Calibration
	var err error
	switch {
	case cs.Preset != "" && len(cs.Custom) > 0:
		return nil, fmt.Errorf("%w: calibration needs exactly one of preset or custom", surfstitch.ErrBadCalibration)
	case cs.Preset != "":
		cal, err = surfstitch.GenerateCalibration(dev, cs.Preset, cs.Seed)
	case len(cs.Custom) > 0:
		if cs.Seed != 0 {
			return nil, fmt.Errorf("%w: seed only applies to preset snapshots", surfstitch.ErrBadCalibration)
		}
		cal, err = surfstitch.ParseCalibration(cs.Custom)
	default:
		return nil, fmt.Errorf("%w: calibration needs exactly one of preset or custom", surfstitch.ErrBadCalibration)
	}
	if err != nil {
		return nil, err
	}
	return dev.WithCalibration(cal)
}

// LayoutSpecWire mirrors surfstitch.LayoutSpec on the wire: patches on a
// coarse grid, surgery ops between grid-adjacent patches, and the
// three-phase round counts (zero defaults to the code distance).
type LayoutSpecWire struct {
	Patches     []PatchSpecWire `json:"patches"`
	Ops         []SurgeryOpWire `json:"ops,omitempty"`
	PreRounds   int             `json:"pre_rounds,omitempty"`
	MergeRounds int             `json:"merge_rounds,omitempty"`
	PostRounds  int             `json:"post_rounds,omitempty"`
}

// PatchSpecWire is one named patch at a grid cell.
type PatchSpecWire struct {
	Name     string `json:"name,omitempty"`
	Row      int    `json:"row,omitempty"`
	Col      int    `json:"col,omitempty"`
	Distance int    `json:"distance"`
}

// SurgeryOpWire is one joint measurement: "zz" between vertical neighbors,
// "xx" between horizontal neighbors.
type SurgeryOpWire struct {
	A     int    `json:"a"`
	B     int    `json:"b"`
	Joint string `json:"joint"`
}

// build resolves the wire layout into the facade spec. Structural
// validation (adjacency, distances, rounds) happens inside the facade's
// normalization, so this only translates field shapes.
func (ls LayoutSpecWire) build() (surfstitch.LayoutSpec, error) {
	spec := surfstitch.LayoutSpec{
		PreRounds:   ls.PreRounds,
		MergeRounds: ls.MergeRounds,
		PostRounds:  ls.PostRounds,
	}
	for _, p := range ls.Patches {
		spec.Patches = append(spec.Patches, surfstitch.PatchSpec{
			Name: p.Name, Row: p.Row, Col: p.Col, Distance: p.Distance,
		})
	}
	for _, op := range ls.Ops {
		var j surfstitch.Joint
		switch op.Joint {
		case "zz":
			j = surfstitch.JointZZ
		case "xx":
			j = surfstitch.JointXX
		default:
			return spec, fmt.Errorf("%w: unknown joint %q (want zz or xx)", surfstitch.ErrBadLayout, op.Joint)
		}
		spec.Ops = append(spec.Ops, surfstitch.SurgeryOp{A: op.A, B: op.B, Joint: j})
	}
	return spec, nil
}

// OptionsSpec mirrors surfstitch.Options on the wire.
type OptionsSpec struct {
	Mode          string `json:"mode,omitempty"` // "default" (zero) or "four"
	NoRefine      bool   `json:"no_refine,omitempty"`
	StarOnlyTrees bool   `json:"star_only_trees,omitempty"`
	CoOptimize    bool   `json:"co_optimize,omitempty"`
	Degrade       bool   `json:"degrade,omitempty"`
}

// RunSpec mirrors the semantic fields of surfstitch.RunConfig on the wire.
// Workers is deliberately absent: results are bit-identical at any worker
// count, so parallelism is a server policy, not a request parameter.
type RunSpec struct {
	Shots     int     `json:"shots,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	IdleError float64 `json:"idle_error,omitempty"`
	NoIdle    bool    `json:"no_idle,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Basis     string  `json:"basis,omitempty"` // "Z" (zero) or "X"
	TargetRSE float64 `json:"target_rse,omitempty"`
	MaxErrors int     `json:"max_errors,omitempty"`
	UnionFind bool    `json:"union_find,omitempty"`
}

// compiled is a validated request resolved into engine inputs: the
// (possibly defective) device, synthesis options and run config, plus the
// content-address identifying the computation.
type compiled struct {
	kind    string
	req     Request
	dev     *surfstitch.Device
	opts    surfstitch.Options
	cfg     surfstitch.RunConfig
	layout  surfstitch.LayoutSpec // surgery only
	ps      []float64             // estimate: [P]; curve: Ps; surgery: [P] or nil; synthesize: nil
	timeout time.Duration
	key     string
}

// Request size limits. compile rejects a request over any of them before it
// builds a device, a defect set or a layout. They sit well above every
// request the repository sends: tilings up to 12x14, distance 5, four sweep
// points, two patches, and 50 000 000-shot jobs that run until cancelled.
const (
	maxTilingSide  = 64
	maxDistance    = 25
	maxShots       = 1 << 30
	maxRounds      = 256
	maxSweepPoints = 64
	maxPatches     = 16
)

// checkLimits rejects a request whose sizes exceed the limits above.
func (req Request) checkLimits() error {
	type limit struct {
		what   string
		v, max int
	}
	limits := []limit{
		{"tiling width", req.Device.Width, maxTilingSide},
		{"tiling height", req.Device.Height, maxTilingSide},
		{"distance", req.Distance, maxDistance},
		{"shots", req.Run.Shots, maxShots},
		{"rounds", req.Run.Rounds, maxRounds},
		{"sweep points", len(req.Ps), maxSweepPoints},
	}
	if l := req.Layout; l != nil {
		limits = append(limits,
			limit{"patches", len(l.Patches), maxPatches},
			limit{"pre rounds", l.PreRounds, maxRounds},
			limit{"merge rounds", l.MergeRounds, maxRounds},
			limit{"post rounds", l.PostRounds, maxRounds})
		for _, p := range l.Patches {
			limits = append(limits, limit{"patch distance", p.Distance, maxDistance})
		}
	}
	for _, l := range limits {
		if l.v > l.max {
			return fmt.Errorf("%w: %s %d exceeds the limit of %d", surfstitch.ErrInvalidConfig, l.what, l.v, l.max)
		}
	}
	return nil
}

// compile validates req for the given job kind and resolves every wire
// field into engine types. All failures wrap the facade's typed taxonomy
// (ErrInvalidConfig / ErrBadDefect), which statusFor maps to HTTP 400.
func compile(kind string, req Request) (*compiled, error) {
	if err := req.checkLimits(); err != nil {
		return nil, err
	}
	dev, err := req.Device.build()
	if err != nil {
		return nil, err
	}
	if req.Defects != nil {
		ds, err := surfstitch.GenerateDefects(dev, req.Defects.Generator, req.Defects.Density, req.Defects.Seed)
		if err != nil {
			return nil, err
		}
		dev, err = dev.WithDefects(ds)
		if err != nil {
			return nil, err
		}
	}
	if req.Calibration != nil {
		dev, err = req.Calibration.build(dev)
		if err != nil {
			return nil, err
		}
	}
	opts, err := req.Options.build()
	if err != nil {
		return nil, err
	}
	cfg, err := req.Run.build()
	if err != nil {
		return nil, err
	}
	if req.Layout != nil && kind != KindSurgery {
		return nil, fmt.Errorf("%w: %s takes no layout", surfstitch.ErrInvalidConfig, kind)
	}
	var ps []float64
	var layout surfstitch.LayoutSpec
	switch kind {
	case KindSynthesize:
		if req.P != 0 || len(req.Ps) != 0 {
			return nil, fmt.Errorf("%w: synthesize takes no error rates (p/ps)", surfstitch.ErrInvalidConfig)
		}
	case KindEstimate:
		if len(req.Ps) != 0 {
			return nil, fmt.Errorf("%w: estimate takes a single p, not ps", surfstitch.ErrInvalidConfig)
		}
		if req.P <= 0 || req.P >= 1 {
			return nil, fmt.Errorf("%w: physical error rate %g outside (0, 1)", surfstitch.ErrInvalidConfig, req.P)
		}
		ps = []float64{req.P}
	case KindCurve:
		if req.P != 0 {
			return nil, fmt.Errorf("%w: curve takes ps, not a single p", surfstitch.ErrInvalidConfig)
		}
		if len(req.Ps) == 0 {
			return nil, fmt.Errorf("%w: curve needs at least one sweep point", surfstitch.ErrInvalidConfig)
		}
		seen := map[float64]bool{}
		for _, p := range req.Ps {
			if seen[p] {
				return nil, fmt.Errorf("%w: duplicate sweep point %g", surfstitch.ErrInvalidConfig, p)
			}
			seen[p] = true
		}
		ps = append([]float64{}, req.Ps...)
	case KindSurgery:
		if req.Layout == nil {
			return nil, fmt.Errorf("%w: surgery needs a layout", surfstitch.ErrInvalidConfig)
		}
		if req.Distance != 0 {
			return nil, fmt.Errorf("%w: surgery takes per-patch distances, not a top-level distance", surfstitch.ErrInvalidConfig)
		}
		if len(req.Ps) != 0 {
			return nil, fmt.Errorf("%w: surgery takes an optional single p, not ps", surfstitch.ErrInvalidConfig)
		}
		if req.P != 0 {
			if req.P < 0 || req.P >= 1 {
				return nil, fmt.Errorf("%w: physical error rate %g outside (0, 1)", surfstitch.ErrInvalidConfig, req.P)
			}
			ps = []float64{req.P}
		}
		layout, err = req.Layout.build()
		if err != nil {
			return nil, err
		}
		// Normalization validates the layout eagerly so malformed specs fail
		// at submission with a 400, not inside a queued job.
		layout, err = layout.Normalized()
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown job kind %q", surfstitch.ErrInvalidConfig, kind)
	}
	if req.TimeoutSeconds < 0 {
		return nil, fmt.Errorf("%w: timeout_seconds %g must not be negative", surfstitch.ErrInvalidConfig, req.TimeoutSeconds)
	}
	// The content address re-validates distance, ps and cfg, so malformed
	// requests cannot even be given a cache key.
	var key string
	if kind == KindSurgery {
		key, err = surfstitch.LayoutConfigHash(kind, dev, layout, opts, ps, cfg)
	} else {
		key, err = surfstitch.ConfigHash(kind, dev, req.Distance, opts, ps, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &compiled{
		kind: kind, req: req, dev: dev, opts: opts, cfg: cfg, layout: layout, ps: ps,
		timeout: time.Duration(req.TimeoutSeconds * float64(time.Second)),
		key:     key,
	}, nil
}

func (ds DeviceSpec) build() (*surfstitch.Device, error) {
	sources := 0
	if ds.Arch != "" {
		sources++
	}
	if ds.Preset != "" {
		sources++
	}
	if len(ds.Custom) > 0 {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: device needs exactly one of arch, preset or custom", surfstitch.ErrInvalidConfig)
	}
	switch {
	case ds.Preset != "":
		return surfstitch.PresetDevice(ds.Preset)
	case len(ds.Custom) > 0:
		d, err := device.FromJSON(ds.Custom)
		if err != nil {
			return nil, fmt.Errorf("%w: custom device: %v", surfstitch.ErrInvalidConfig, err)
		}
		return d, nil
	default:
		kind, err := device.ParseKind(ds.Arch)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", surfstitch.ErrInvalidConfig, err)
		}
		if ds.Width < 1 || ds.Height < 1 {
			return nil, fmt.Errorf("%w: tiling %dx%d must be at least 1x1", surfstitch.ErrInvalidConfig, ds.Width, ds.Height)
		}
		return device.ByKind(kind, ds.Width, ds.Height), nil
	}
}

func (spec OptionsSpec) build() (surfstitch.Options, error) {
	var mode surfstitch.Mode
	switch spec.Mode {
	case "", "default":
		mode = surfstitch.ModeDefault
	case "four":
		mode = surfstitch.ModeFour
	default:
		return surfstitch.Options{}, fmt.Errorf("%w: unknown mode %q (want default or four)", surfstitch.ErrInvalidConfig, spec.Mode)
	}
	return surfstitch.Options{
		Mode: mode, NoRefine: spec.NoRefine, StarOnlyTrees: spec.StarOnlyTrees,
		CoOptimize: spec.CoOptimize, Degrade: spec.Degrade,
	}, nil
}

func (rs RunSpec) build() (surfstitch.RunConfig, error) {
	var basis surfstitch.Basis
	switch rs.Basis {
	case "", "Z":
		basis = surfstitch.BasisZ
	case "X":
		basis = surfstitch.BasisX
	default:
		return surfstitch.RunConfig{}, fmt.Errorf("%w: unknown basis %q (want Z or X)", surfstitch.ErrInvalidConfig, rs.Basis)
	}
	cfg := surfstitch.RunConfig{
		Shots: rs.Shots, Rounds: rs.Rounds, IdleError: rs.IdleError,
		NoIdle: rs.NoIdle, Seed: rs.Seed, Basis: basis,
		TargetRSE: rs.TargetRSE, MaxErrors: rs.MaxErrors, UnionFind: rs.UnionFind,
	}
	if err := cfg.Validate(); err != nil {
		return surfstitch.RunConfig{}, err
	}
	return cfg, nil
}

// statusFor maps the facade's typed error taxonomy to HTTP statuses:
// malformed requests are the client's fault (400), infeasible but
// well-formed synthesis problems are unprocessable (422), exhausted budgets
// read as timeouts (504), and anything untyped is a server error (500).
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, surfstitch.ErrInvalidConfig), errors.Is(err, surfstitch.ErrBadDefect),
		errors.Is(err, surfstitch.ErrBadCalibration), errors.Is(err, surfstitch.ErrBadLayout):
		return http.StatusBadRequest
	case errors.Is(err, surfstitch.ErrNoPlacement), errors.Is(err, surfstitch.ErrDisconnected):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// errorKind names the typed sentinel an error chain reaches, for the
// machine-readable `error_kind` field of failed job records. Order matters:
// budget/cancellation checks come first because the facade wraps context
// errors into ErrBudgetExceeded.
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, surfstitch.ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.Is(err, surfstitch.ErrInvalidConfig):
		return "invalid_config"
	case errors.Is(err, surfstitch.ErrBadDefect):
		return "bad_defect"
	case errors.Is(err, surfstitch.ErrBadCalibration):
		return "bad_calibration"
	case errors.Is(err, surfstitch.ErrBadLayout):
		return "bad_layout"
	case errors.Is(err, surfstitch.ErrNoPlacement):
		return "no_placement"
	case errors.Is(err, surfstitch.ErrDisconnected):
		return "disconnected"
	default:
		return "internal"
	}
}
