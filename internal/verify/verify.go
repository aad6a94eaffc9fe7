// Package verify runs end-to-end validation of a synthesized surface code —
// the checks a hardware team would demand before trusting a layout:
//
//  1. structural invariants (trees are device-respecting, schedules
//     conflict-free);
//  2. detector determinism of the full memory circuit under exact
//     stabilizer simulation;
//  3. the single-fault property: every elementary noise mechanism decodes
//     without a logical error (up to tie degeneracies, which are reported);
//  4. a hook-orientation audit: X-stabilizer bridge leaves must not couple
//     data pairs parallel to the logical X operator.
//
// The report is structured so CI pipelines can gate on it.
package verify

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/distance"
	"surfstitch/internal/experiment"
	"surfstitch/internal/lint/circ"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
	"surfstitch/internal/tableau"
)

// Report is the outcome of a verification run.
type Report struct {
	// Structural problems; empty when trees and schedule are well-formed.
	Structural []string
	// Static problems found by the circuit-IR checker (internal/lint/circ)
	// on the assembled memory circuit: same-moment qubit conflicts,
	// off-device couplings, unreset measurement targets, malformed
	// detector annotations. Populated before — and gating — the expensive
	// stabilizer-simulation stages.
	Static []string
	// Deterministic is true when every detector parity of the memory
	// circuit is invariant under noiseless execution.
	Deterministic    bool
	DeterminismError string

	// SingleFaultTotal counts the elementary mechanisms of the circuit-level
	// error model; SingleFaultMisdecoded counts those the MWPM decoder gets
	// wrong (tie-degenerate boundary mechanisms), and MisdecodedProb sums
	// their probability — a linear-in-p logical error floor.
	SingleFaultTotal      int
	SingleFaultMisdecoded int
	MisdecodedProb        float64

	// VerticalXHooks counts X-stabilizer bridge leaves whose data pairs are
	// parallel to the logical X operator (each halves the effective
	// distance; zero is required for full-distance protection).
	VerticalXHooks int

	// UndetectableLogical is true when some mechanism flips the observable
	// without tripping any detector — a fatal code defect.
	UndetectableLogical bool

	// ClaimedDistance is the distance the synthesis claims to deliver: the
	// nominal code distance, or the degradation ladder's effective distance
	// when stabilizers were sacrificed. Zero when the certification stage
	// did not run.
	ClaimedDistance int
	// CertifiedDistance is the statically certified fault distance of the
	// memory's error model: the exact minimum number of elementary faults
	// that flip the logical observable while tripping no detector
	// (internal/distance). Zero means no undetectable logical fault set
	// exists at all — stronger than any finite claim. A certified value
	// below ClaimedDistance is a hard FAIL.
	CertifiedDistance int
	// DistanceWitness is one minimum-weight undetectable logical fault set
	// realizing CertifiedDistance.
	DistanceWitness []distance.Fault
	// DistanceGraphlike reports whether every error mechanism flipped at
	// most two detectors; DistanceUndecomposable counts hyperedge
	// mechanisms the certifier could not prove redundant — when non-zero
	// the certificate covers the graphlike sub-model only.
	DistanceGraphlike      bool
	DistanceUndecomposable int
	// DistanceHookMismatch is non-empty when the certifier and the
	// VerticalXHooks heuristic disagree about distance loss on a
	// non-degraded synthesis — either direction is a synthesis bug.
	DistanceHookMismatch string

	// MaxMisdecodeRatio is the single-fault misdecode ratio Pass tolerates,
	// copied from Options (DefaultMaxMisdecodeRatio when zero there).
	MaxMisdecodeRatio float64

	// Patches holds the per-patch verification of a multi-patch layout
	// (verify.Layout); nil for single-patch synthesis reports, so existing
	// callers are unaffected.
	Patches []PatchReport
}

// DefaultMaxMisdecodeRatio is the single-fault misdecode ratio Pass
// tolerates when Options leave it unset: 2% of elementary mechanisms may
// hit tie degeneracies.
const DefaultMaxMisdecodeRatio = 0.02

// Pass reports whether the synthesis meets the strict bar: structurally
// sound, deterministic, no undetectable logicals, no vertical X hooks, a
// certified fault distance meeting the claim (and agreeing with the hook
// heuristic), and a single-fault misdecode ratio within MaxMisdecodeRatio.
func (r Report) Pass() bool {
	maxRatio := r.MaxMisdecodeRatio
	if maxRatio == 0 {
		maxRatio = DefaultMaxMisdecodeRatio
	}
	distanceOK := r.ClaimedDistance == 0 || // stage did not run
		r.CertifiedDistance == 0 || // no undetectable logical error at all
		r.CertifiedDistance >= r.ClaimedDistance
	for _, pr := range r.Patches {
		if !pr.Pass() {
			return false
		}
	}
	return len(r.Structural) == 0 &&
		len(r.Static) == 0 &&
		r.Deterministic &&
		!r.UndetectableLogical &&
		r.VerticalXHooks == 0 &&
		distanceOK &&
		r.DistanceHookMismatch == "" &&
		float64(r.SingleFaultMisdecoded) <= maxRatio*float64(r.SingleFaultTotal)
}

// String renders the report for humans.
func (r Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "verification: %s\n", status)
	for _, s := range r.Structural {
		fmt.Fprintf(&b, "  structural: %s\n", s)
	}
	for _, s := range r.Static {
		fmt.Fprintf(&b, "  static: %s\n", s)
	}
	fmt.Fprintf(&b, "  deterministic detectors: %v", r.Deterministic)
	if r.DeterminismError != "" {
		fmt.Fprintf(&b, " (%s)", r.DeterminismError)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  single faults: %d/%d misdecoded (probability %.3g)\n",
		r.SingleFaultMisdecoded, r.SingleFaultTotal, r.MisdecodedProb)
	fmt.Fprintf(&b, "  vertical X hooks: %d\n", r.VerticalXHooks)
	fmt.Fprintf(&b, "  undetectable logical mechanisms: %v\n", r.UndetectableLogical)
	if r.ClaimedDistance > 0 {
		cert := fmt.Sprintf("%d", r.CertifiedDistance)
		if r.CertifiedDistance == 0 {
			cert = "none (no undetectable logical fault set)"
		}
		fmt.Fprintf(&b, "  certified distance: %s (claimed %d, graphlike %v", cert, r.ClaimedDistance, r.DistanceGraphlike)
		if r.DistanceUndecomposable > 0 {
			fmt.Fprintf(&b, ", %d undecomposable hyperedges", r.DistanceUndecomposable)
		}
		b.WriteString(")\n")
		if len(r.DistanceWitness) > 0 {
			fmt.Fprintf(&b, "  distance witness: %v\n", r.DistanceWitness)
		}
		if r.DistanceHookMismatch != "" {
			fmt.Fprintf(&b, "  hook/certificate mismatch: %s\n", r.DistanceHookMismatch)
		}
	}
	for _, pr := range r.Patches {
		status := "ok"
		if !pr.Pass() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  patch %q: certified distance %d (claimed %d) %s\n",
			pr.Name, pr.CertifiedDistance, pr.ClaimedDistance, status)
		for _, s := range pr.Structural {
			fmt.Fprintf(&b, "    structural: %s\n", s)
		}
	}
	return b.String()
}

// Options tunes verification.
type Options struct {
	// Rounds of the memory experiment (default 3*distance).
	Rounds int
	// GateError used when building the error model (default 0.001).
	GateError float64
	// MaxMisdecodeRatio is the tolerated fraction of elementary mechanisms
	// the decoder may misdecode before Pass fails (default
	// DefaultMaxMisdecodeRatio).
	MaxMisdecodeRatio float64
}

// Synthesis verifies a surface-code synthesis end to end.
func Synthesis(s *synth.Synthesis, opts Options) Report {
	var r Report
	if opts.Rounds == 0 {
		opts.Rounds = 3 * s.Layout.Code.Distance()
	}
	if opts.GateError == 0 {
		opts.GateError = 0.001
	}
	if opts.MaxMisdecodeRatio == 0 {
		opts.MaxMisdecodeRatio = DefaultMaxMisdecodeRatio
	}
	r.MaxMisdecodeRatio = opts.MaxMisdecodeRatio

	r.Structural = structuralChecks(s)
	r.VerticalXHooks = countVerticalXHooks(s)

	// Assemble the memory circuit without the built-in determinism check:
	// checkCircuit's static IR pass gates the expensive simulation stages.
	mem, err := experiment.NewMemory(s, opts.Rounds, experiment.Options{SkipVerify: true})
	if err != nil {
		r.DeterminismError = err.Error()
		return r
	}

	claimed := s.Layout.Code.Distance()
	if s.Degradation != nil {
		claimed = s.Degradation.EffectiveDistance
	}
	if !r.checkCircuit(mem.Circuit, s.Layout.Dev.Graph(), s.AllQubits(), opts.GateError, claimed) {
		return r
	}
	if s.Degradation == nil {
		// On a non-degraded synthesis the certificate and the vertical-hook
		// heuristic must tell the same story: hooks halve the distance, so
		// a hook finding without certified distance loss — or distance loss
		// without a hook finding — means one of the two analyses is wrong.
		// Without degradation the claim is the nominal distance.
		lost := r.CertifiedDistance != 0 && r.CertifiedDistance < claimed
		switch {
		case r.VerticalXHooks > 0 && !lost:
			r.DistanceHookMismatch = fmt.Sprintf(
				"heuristic flags %d vertical X hooks but certified distance %d shows no loss vs nominal %d",
				r.VerticalXHooks, r.CertifiedDistance, claimed)
		case r.VerticalXHooks == 0 && lost:
			r.DistanceHookMismatch = fmt.Sprintf(
				"certified distance %d below nominal %d with no vertical-hook finding",
				r.CertifiedDistance, claimed)
		}
	}
	return r
}

// checkCircuit runs the simulation-backed chain Synthesis and Layout share
// on an assembled noise-free circuit, recording every finding in r:
//
//  1. the static circuit-IR check against the device couplings, which gates
//     the expensive stages (a malformed circuit is rejected in linear time
//     with a moment-level finding instead of a stabilizer-sim failure);
//  2. detector determinism under exact stabilizer simulation;
//  3. the circuit-level error model at gateError and its decoder;
//  4. static distance certification of the very model the decoder
//     consumes, held against the claimed distance;
//  5. the single-fault sweep.
//
// It reports whether the whole chain ran; on false a stage failed and the
// later ones were skipped.
func (r *Report) checkCircuit(c *circuit.Circuit, g circ.Coupler, idle []int, gateError float64, claimed int) bool {
	for _, f := range circ.Check(c, g) {
		r.Static = append(r.Static, f.String())
	}
	if len(r.Static) > 0 {
		return false
	}
	if _, _, err := tableau.Reference(c, 3); err != nil {
		r.DeterminismError = err.Error()
		return false
	}
	r.Deterministic = true

	noisy, err := noise.Model{GateError: gateError, IdleError: noise.DefaultIdleError, IdleOnly: idle}.Apply(c)
	if err != nil {
		r.Structural = append(r.Structural, fmt.Sprintf("noise application failed: %v", err))
		return false
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		r.Structural = append(r.Structural, fmt.Sprintf("detector error model failed: %v", err))
		return false
	}
	dec, err := decoder.New(model)
	if err != nil {
		r.Structural = append(r.Structural, fmt.Sprintf("decoder build failed: %v", err))
		return false
	}
	if dec.UndetectableObs != 0 {
		r.UndetectableLogical = true
	}

	r.ClaimedDistance = claimed
	cert, err := distance.Certify(model)
	if err != nil {
		r.Structural = append(r.Structural, fmt.Sprintf("distance certification failed: %v", err))
		return false
	}
	r.CertifiedDistance = cert.Distance
	r.DistanceWitness = cert.Witness
	r.DistanceGraphlike = cert.Graphlike
	r.DistanceUndecomposable = cert.Undecomposable

	// The sweep decodes contiguous shards of the mechanisms concurrently,
	// one scratch per worker; the decoder's graph is immutable, its matcher
	// state lives in the scratch and its cache never changes an answer. The tally runs afterwards in
	// mechanism order, so the probability sum is the same on any number of
	// workers.
	mechs := model.Mechanisms
	wrong := make([]bool, len(mechs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(mechs)/workers, (w+1)*len(mechs)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := dec.NewScratch()
			for i := lo; i < hi; i++ {
				if len(mechs[i].Detectors) == 0 {
					continue
				}
				pred, err := dec.DecodeWithScratch(mechs[i].Detectors, scratch)
				wrong[i] = err != nil || pred != mechs[i].Obs
			}
		}()
	}
	wg.Wait()
	for i, mech := range mechs {
		if len(mech.Detectors) == 0 {
			continue
		}
		r.SingleFaultTotal++
		if wrong[i] {
			r.SingleFaultMisdecoded++
			r.MisdecodedProb += mech.Prob
		}
	}
	return true
}

// CertifiedDistance statically certifies the fault distance of the
// synthesized memory in both logical bases (a Z-basis memory only measures
// protection against X errors and vice versa) and returns the weaker one —
// the number the degradation ladder's EffectiveDistance claims. Zero means
// neither basis admits any undetectable logical fault set. This is the
// cheap certification entry point: no stabilizer simulation, no decoding —
// just circuit assembly, error-model extraction, and the static
// minimum-odd-cycle search.
func CertifiedDistance(s *synth.Synthesis) (int, error) {
	worst := 0
	for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
		mem, err := experiment.NewMemory(s, 2, experiment.Options{SkipVerify: true, Basis: basis})
		if err != nil {
			return 0, fmt.Errorf("%v memory: %w", basis, err)
		}
		noisy, err := mem.Noisy(noise.Model{GateError: 0.001, IdleError: noise.DefaultIdleError})
		if err != nil {
			return 0, fmt.Errorf("%v noise: %w", basis, err)
		}
		model, err := dem.FromCircuit(noisy)
		if err != nil {
			return 0, fmt.Errorf("%v dem: %w", basis, err)
		}
		res, err := distance.Certify(model)
		if err != nil {
			return 0, fmt.Errorf("%v certify: %w", basis, err)
		}
		if res.Distance != 0 && (worst == 0 || res.Distance < worst) {
			worst = res.Distance
		}
	}
	return worst, nil
}

// Structural runs only the linear-time structural invariants — schedule
// coverage, device-respecting trees, degradation accounting — without the
// simulation stages. The chaos harness calls this on every successful
// synthesis; the full Synthesis run is reserved for subsampled scenarios.
func Structural(s *synth.Synthesis) []string { return structuralChecks(s) }

// structuralChecks validates trees and schedule against the device. Dropped
// stabilizers (graceful degradation) are exempt from the per-tree checks but
// must be accounted for in the Degradation report — a nil tree without a
// matching degradation entry is a structural defect.
func structuralChecks(s *synth.Synthesis) []string {
	var out []string
	if err := s.Schedule.Validate(len(s.RetainedPlans())); err != nil {
		out = append(out, err.Error())
	}
	droppedIdx := map[int]bool{}
	if dg := s.Degradation; dg != nil {
		for _, d := range dg.Dropped {
			droppedIdx[d.Index] = true
		}
		retX, retZ := 0, 0
		for si, st := range s.Layout.Code.Stabilizers() {
			if s.Plans[si] == nil {
				continue
			}
			if st.Type == code.StabX {
				retX++
			} else {
				retZ++
			}
		}
		if retX != dg.RetainedX || retZ != dg.RetainedZ {
			out = append(out, fmt.Sprintf("degradation accounting: reports %dX+%dZ retained, circuit has %dX+%dZ",
				dg.RetainedX, dg.RetainedZ, retX, retZ))
		}
	}
	g := s.Layout.Dev.Graph()
	for si, tree := range s.Trees {
		st := s.Layout.Code.Stabilizers()[si]
		if tree == nil {
			if !droppedIdx[si] {
				out = append(out, fmt.Sprintf("stabilizer %v has no tree and no degradation record", st))
			}
			continue
		}
		if droppedIdx[si] {
			out = append(out, fmt.Sprintf("stabilizer %v reported dropped but has a tree", st))
		}
		if s.Layout.IsData[tree.Root] {
			out = append(out, fmt.Sprintf("stabilizer %v rooted on a data qubit", st))
		}
		for _, e := range tree.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				out = append(out, fmt.Sprintf("stabilizer %v uses missing coupling %v", st, e))
			}
		}
		if len(tree.Leaves()) != st.Weight() {
			out = append(out, fmt.Sprintf("stabilizer %v tree has %d leaves, want %d",
				st, len(tree.Leaves()), st.Weight()))
		}
	}
	return out
}

// countVerticalXHooks audits hook orientation: bridge leaves of X-type
// trees coupling two data qubits of the same abstract column.
func countVerticalXHooks(s *synth.Synthesis) int {
	layout := s.Layout
	col := map[int]int{}
	for idx, q := range layout.DataQubit {
		_, c := layout.Code.DataPos(idx)
		col[q] = c
	}
	bad := 0
	for si, st := range layout.Code.Stabilizers() {
		if st.Type != code.StabX || s.Trees[si] == nil {
			continue
		}
		t := s.Trees[si]
		byLeaf := map[int][]int{}
		for _, dq := range st.Data {
			q := layout.DataQubit[dq]
			byLeaf[t.Parent(q)] = append(byLeaf[t.Parent(q)], q)
		}
		for _, group := range byLeaf {
			if len(group) == 2 && col[group[0]] == col[group[1]] {
				bad++
			}
		}
	}
	return bad
}
