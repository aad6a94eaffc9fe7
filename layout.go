package surfstitch

import (
	"context"
	"fmt"

	"surfstitch/internal/noise"
	"surfstitch/internal/surgery"
	"surfstitch/internal/threshold"
	"surfstitch/internal/verify"
)

// ErrBadLayout: a layout spec is malformed (no patches, mixed or even
// distances, overlapping grid cells, a surgery op between non-adjacent
// patches, ...). Errors carry the offending field in their message and
// unwrap to this sentinel.
var ErrBadLayout = surgery.ErrBadSpec

// PatchSpec places one named logical patch on the layout's coarse grid.
// Patches sit on integer (Row, Col) cells; the packer translates cells into
// device coordinates with a one-seam-wide corridor between neighbors.
type PatchSpec = surgery.PatchSpec

// SurgeryOp declares one lattice-surgery joint measurement between two
// grid-adjacent patches: JointZZ merges a vertically adjacent pair across
// their shared horizontal boundary, JointXX a horizontally adjacent pair.
type SurgeryOp = surgery.Op

// Joint selects the two-qubit logical observable a surgery op measures.
type Joint = surgery.Joint

// The two seam orientations: JointZZ measures Z⊗Z of a vertical pair,
// JointXX measures X⊗X of a horizontal pair.
const (
	JointZZ = surgery.JointZZ
	JointXX = surgery.JointXX
)

// LayoutSpec is a multi-patch computation: patches on a coarse grid, the
// surgery ops to perform between them, and the three-phase round counts
// (separate / merged / separate; zero means the code distance). The zero
// rounds and empty names are defaulted by normalization inside
// SynthesizeLayout.
type LayoutSpec = surgery.Spec

// Placement is a packed multi-patch placement: the shared lattice basis,
// per-patch syntheses, and per-op merged-lattice syntheses with seam
// metadata.
type Placement = surgery.Placement

// SurgeryExperiment is an assembled lattice-surgery experiment over a
// placement: the combined circuit (merge → joint measure → split), its
// detector round map, and the joint-parity observables.
type SurgeryExperiment = surgery.Experiment

// LayoutSynthesis is a fully synthesized multi-patch layout, the surgery
// counterpart of Synthesis. Placement holds the packing (per-patch
// syntheses under Placement.Patches); Experiment holds the combined circuit
// whose observables list the joint parities first (one per surgery op,
// deterministically +1 under the ideal circuit) followed by one memory
// observable per patch.
type LayoutSynthesis struct {
	Placement  *Placement
	Experiment *SurgeryExperiment
}

// Spec returns the normalized layout spec the synthesis realized.
func (ls *LayoutSynthesis) Spec() LayoutSpec { return ls.Placement.Spec }

// Patches returns the per-patch syntheses, in spec order.
func (ls *LayoutSynthesis) Patches() []*Synthesis { return ls.Placement.Patches }

// SynthesizeLayout packs a multi-patch layout onto the device and assembles
// the combined lattice-surgery circuit. It is the canonical multi-patch
// entry point; Synthesize is its one-patch special case, and a one-patch
// zero-op layout reproduces Synthesize bit for bit.
//
// Packing places every patch and every op's merged lattice under one shared
// lattice basis (defect- and calibration-aware, same allocator as
// Synthesize) with seam corridors reserved between neighbors, then
// synthesizes bridge trees and schedules for each. Assembly checks the
// circuit with the exact backward walk of dem.CheckDeterminism: every
// detector and every observable — joint parities included — must be
// deterministic under the ideal circuit, or synthesis fails.
//
// Errors: ErrBadLayout for malformed specs (including Options.Degrade on a
// multi-patch layout — the degradation ladder is single-patch only),
// ErrNoPlacement when the device cannot host the layout, ErrBudgetExceeded
// on context cancellation.
func SynthesizeLayout(ctx context.Context, dev *Device, layout LayoutSpec, opts Options) (*LayoutSynthesis, error) {
	if ctx == nil {
		return nil, fmt.Errorf("%w: nil context", ErrInvalidConfig)
	}
	if dev == nil {
		return nil, fmt.Errorf("%w: nil device", ErrInvalidConfig)
	}
	p, err := surgery.Pack(ctx, dev, layout, opts)
	if err != nil {
		return nil, err
	}
	e, err := surgery.NewExperiment(p, surgery.Options{})
	if err != nil {
		return nil, err
	}
	return &LayoutSynthesis{Placement: p, Experiment: e}, nil
}

// VerifyLayout runs end-to-end validation of a layout synthesis: per-patch
// structural checks and certified fault distances (placement with neighbors
// must not cost any patch its claim — see the report's Patches field), then
// the combined circuit through the same gauntlet as Verify: static IR
// checks, determinism with joint parities (the exact check and the
// tableau), distance certification of the merged detector graph, and the
// single-fault sweep. A nil layout yields a failing report rather than a
// panic.
func VerifyLayout(ls *LayoutSynthesis) VerifyReport {
	if ls == nil || ls.Placement == nil {
		return VerifyReport{Structural: []string{"nil layout synthesis"}}
	}
	return verify.Layout(ls.Placement, verify.Options{})
}

// EstimateLayoutErrorRate applies the circuit-level error model at physical
// rate p to the combined surgery circuit, samples, decodes the merged
// detector graph, and reports the logical error rate: a shot errs when the
// decoder mispredicts any observable, joint parities included.
//
// RunConfig.Rounds and Basis are ignored for layouts — the spec's round
// counts fix the schedule, and each patch's basis follows its surgery ops
// (X for XX-merged patches, Z otherwise). Set RunConfig.UnionFind to decode
// with the union-find decoder instead of blossom matching.
func EstimateLayoutErrorRate(ctx context.Context, ls *LayoutSynthesis, p float64, cfg RunConfig) (Result, error) {
	ctx, err := cfg.checkEstimateArgs(ctx, []float64{p})
	if err != nil {
		return Result{}, err
	}
	if ls == nil || ls.Placement == nil || ls.Experiment == nil {
		return Result{}, fmt.Errorf("%w: nil layout synthesis", ErrInvalidConfig)
	}
	tc := cfg.thresholdConfig()
	tc.Noise = noise.BuilderFor(ls.Placement.Dev)
	in := threshold.Input{
		Circuit:        ls.Experiment.Circuit,
		IdleQubits:     ls.Placement.AllQubits(),
		DetectorRounds: ls.Experiment.DetectorRound,
	}
	pt, err := threshold.EstimatePointContext(ctx, in, p, tc)
	if err != nil {
		return Result{}, err
	}
	return Result{PhysicalErrorRate: pt.P, LogicalErrorRate: pt.Logical, Shots: pt.Shots, Errors: pt.Errors}, nil
}
