package verify

import (
	"fmt"

	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// PatchReport is the per-patch slice of a multi-patch verification: each
// patch must keep its certified fault distance after being placed with
// neighbors and seam corridors reserved around it.
type PatchReport struct {
	// Name is the patch's name from the layout spec.
	Name string
	// ClaimedDistance is the patch's nominal code distance.
	ClaimedDistance int
	// CertifiedDistance is the statically certified fault distance of the
	// patch's own memory under its packed layout (worst basis). Zero means
	// no undetectable logical fault set exists.
	CertifiedDistance int
	// VerticalXHooks counts hook-orientation violations in the patch's
	// bridge trees.
	VerticalXHooks int
	// Structural problems of the patch synthesis; empty when well-formed.
	Structural []string
	// Degradation is non-nil when the patch synthesis sacrificed
	// stabilizers (single-patch layouts only; packing rejects Degrade).
	Degradation *synth.Degradation
}

// DefaultLayoutMaxMisdecodeRatio is the single-fault misdecode tolerance for
// multi-patch merged graphs. Merged lattices carry undecomposable hyperedge
// mechanisms (weight-3 flag faults spanning both patches' detector chains)
// whose minimum-weight decompositions are tie-degenerate across observable
// assignments; they inflate the misdecode count without lowering the
// certified distance, so layouts tolerate more than a single-patch memory.
const DefaultLayoutMaxMisdecodeRatio = 0.10

// Pass reports whether the patch meets the placement bar.
func (pr PatchReport) Pass() bool {
	distanceOK := pr.CertifiedDistance == 0 || pr.CertifiedDistance >= pr.ClaimedDistance
	return len(pr.Structural) == 0 && pr.VerticalXHooks == 0 && distanceOK
}

// Layout verifies a packed multi-patch placement end to end: per-patch
// structural checks and certified distances (placement-with-neighbors must
// not cost any patch its claim), then the combined surgery circuit through
// the same gauntlet as a single-patch synthesis — static IR check, exact
// and tableau determinism (joint parities included), decoder build, static
// distance certification of the merged detector graph, and the
// single-fault sweep.
func Layout(p *surgery.Placement, opts Options) Report {
	var r Report
	if opts.GateError == 0 {
		opts.GateError = 0.001
	}
	if opts.MaxMisdecodeRatio == 0 {
		opts.MaxMisdecodeRatio = DefaultMaxMisdecodeRatio
		if len(p.Spec.Ops) > 0 {
			opts.MaxMisdecodeRatio = DefaultLayoutMaxMisdecodeRatio
		}
	}
	r.MaxMisdecodeRatio = opts.MaxMisdecodeRatio

	for pi, s := range p.Patches {
		pr := PatchReport{
			Name:            p.Spec.Patches[pi].Name,
			ClaimedDistance: p.Spec.Patches[pi].Distance,
			VerticalXHooks:  countVerticalXHooks(s),
			Structural:      structuralChecks(s),
			Degradation:     s.Degradation,
		}
		if s.Degradation != nil {
			pr.ClaimedDistance = s.Degradation.EffectiveDistance
		}
		cd, err := CertifiedDistance(s)
		if err != nil {
			pr.Structural = append(pr.Structural, fmt.Sprintf("distance certification failed: %v", err))
		}
		pr.CertifiedDistance = cd
		r.Patches = append(r.Patches, pr)
		r.VerticalXHooks += pr.VerticalXHooks
	}
	for mi, m := range p.Merges {
		for _, s := range structuralChecks(m.Synth) {
			r.Structural = append(r.Structural, fmt.Sprintf("merge %d (%v): %s", mi, m.Op.Joint, s))
		}
		r.VerticalXHooks += countVerticalXHooks(m.Synth)
	}

	e, err := surgery.NewExperiment(p, surgery.Options{SkipVerify: true})
	if err != nil {
		r.DeterminismError = err.Error()
		return r
	}
	// The merged detector graph's certified distance must meet the common
	// patch distance: the joint parity is protected space-like by the seam
	// width and time-like by the merge-round count. (The hook/certificate
	// cross-check is skipped: it models a single-observable memory.)
	r.checkCircuit(e.Circuit, p.Dev.Graph(), p.AllQubits(), opts.GateError, minClaim(p))
	return r
}

// minClaim bounds what the combined circuit can promise: the patch distance,
// capped by the merge-phase round counts that set the joint parities'
// time-like protection.
func minClaim(p *surgery.Placement) int {
	claim := p.Spec.Distance()
	if len(p.Spec.Ops) > 0 && p.Spec.MergeRounds < claim {
		claim = p.Spec.MergeRounds
	}
	return claim
}
