package surgery

import (
	"fmt"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/dem"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// Options configures surgery-experiment assembly.
type Options struct {
	// SkipVerify skips the determinism check (dem.CheckDeterminism).
	SkipVerify bool
}

// Experiment is the assembled multi-patch surgery circuit: logical
// preparation, PreRounds of separate stabilizer rounds, the merge (seam
// preparation + MergeRounds of merged rounds, whose first round yields the
// joint-parity observables), the split (seam readout), PostRounds of
// separate rounds, and a transversal data readout per patch.
//
// Observables are indexed ops-then-patches: observable oi (oi < len(Ops))
// is op oi's joint parity; observable len(Ops)+pi is patch pi's logical
// memory observable (Z̄ or X̄, following the patch's basis).
type Experiment struct {
	Placement *Placement
	Circuit   *circuit.Circuit
	Rounds    int // total stabilizer rounds (pre + merge + post)

	// DetectorRound records which round each detector belongs to (the final
	// data-readout detectors carry round == Rounds).
	DetectorRound []int
}

// NumJointObs returns how many leading observables are joint parities.
func (e *Experiment) NumJointObs() int { return len(e.Placement.Spec.Ops) }

// basisOf returns the preparation/readout convention per patch: patches in
// an XX op live in the X basis (|+>̄ preparation, X̄ memory observable, X-type
// syndrome detectors); everything else uses the Z basis.
func basisOf(p *Placement) []code.StabType {
	out := make([]code.StabType, len(p.Spec.Patches))
	for pi := range out {
		out[pi] = code.StabZ
	}
	for _, op := range p.Spec.Ops {
		if op.Joint == JointXX {
			out[op.A], out[op.B] = code.StabX, code.StabX
		}
	}
	return out
}

// NewExperiment assembles the surgery circuit for a packed placement, each
// patch protecting the basis its op implies (basisOf). Unless disabled,
// every detector and observable is checked deterministic by the exact
// backward walk of dem.CheckDeterminism — in particular the joint-parity
// observables, which must read +1 on the noiseless circuit.
func NewExperiment(p *Placement, opts Options) (*Experiment, error) {
	return Assemble(p, basisOf(p), opts)
}

// Assemble builds the circuit of a placement in which patch pi protects the
// logical state of basis[pi]: code.StabZ prepares |0>̄, reads out Z̄ and
// places detectors on the Z-type stabilizers; code.StabX does the same with
// |+>̄, X̄ and the X-type stabilizers. A one-patch placement with no ops is a
// logical memory of Spec.TotalRounds() rounds. The patches of an XX op must
// protect the X basis and those of a ZZ op the Z basis, or the joint parity
// fails the determinism check (dem.CheckDeterminism), unless
// opts.SkipVerify is set.
func Assemble(p *Placement, basis []code.StabType, opts Options) (*Experiment, error) {
	spec := p.Spec
	total := spec.TotalRounds()
	if total < 1 {
		return nil, badSpec("zero total rounds")
	}
	if len(basis) != len(p.Patches) {
		return nil, fmt.Errorf("surgery: %d bases for %d patches", len(basis), len(p.Patches))
	}

	b := circuit.NewBuilder(p.Dev.Len())

	// Logical preparation: |0…0> everywhere, Hadamard the X-basis patches.
	var allData, xData []int
	for pi, s := range p.Patches {
		allData = append(allData, s.Layout.DataQubit...)
		if basis[pi] == code.StabX {
			xData = append(xData, s.Layout.DataQubit...)
		}
	}
	b.Begin().R(allData...)
	if len(xData) > 0 {
		b.Begin().H(xData...)
	}

	e := &Experiment{Placement: p, Rounds: total}

	// Plan ownership: route every AppendSet result back to the patch
	// stabilizer or merged stabilizer it measures.
	type planRef struct {
		merge int // -1 for a patch plan
		patch int // patch index for patch plans, -1 for merged plans
		si    int // stabilizer index in the owning code
	}
	owner := map[*flagbridge.Plan]planRef{}
	for pi, s := range p.Patches {
		for si, pl := range s.Plans {
			owner[pl] = planRef{merge: -1, patch: pi, si: si}
		}
	}
	for mi, m := range p.Merges {
		for si, pl := range m.Synth.Plans {
			owner[pl] = planRef{merge: mi, patch: -1, si: si}
		}
	}

	// Record chains. prevPatch[pi][si] is the last syndrome record of patch
	// pi's stabilizer si (-1 before its first measurement); merged rounds
	// extend the same chains through the Merge owner mapping, so pair
	// detectors bridge the merge and split transitions. prevSeam[mi][msi]
	// tracks the new seam stabilizers, whose chains exist only while merged.
	prevPatch := make([][]int, len(p.Patches))
	curPatch := make([][]int, len(p.Patches))
	for pi, s := range p.Patches {
		n := len(s.Layout.Code.Stabilizers())
		prevPatch[pi], curPatch[pi] = fillInt(n, -1), make([]int, n)
	}
	prevSeam := make([][]int, len(p.Merges))
	curSeam := make([][]int, len(p.Merges))
	for mi, m := range p.Merges {
		n := len(m.Code.Stabilizers())
		prevSeam[mi], curSeam[mi] = fillInt(n, -1), make([]int, n)
	}

	// The two phase schedules: separate rounds zip every patch schedule;
	// merged rounds, if any, zip the merged schedules with the solo
	// patches'.
	var sepGroups []synth.Schedule
	for _, s := range p.Patches {
		sepGroups = append(sepGroups, s.Schedule)
	}
	sepSets := zipSchedules(sepGroups)
	var mrgSets [][]*flagbridge.Plan
	if spec.MergeRounds > 0 {
		var mrgGroups []synth.Schedule
		for _, m := range p.Merges {
			mrgGroups = append(mrgGroups, m.Synth.Schedule)
		}
		for pi, s := range p.Patches {
			if p.OpOf(pi) < 0 {
				mrgGroups = append(mrgGroups, s.Schedule)
			}
		}
		mrgSets = zipSchedules(mrgGroups)
	}

	var seamAll, seamPlus []int // |+>-basis seams belong to ZZ merges
	for _, m := range p.Merges {
		seamAll = append(seamAll, m.Seam...)
		if m.Op.Joint == JointZZ {
			seamPlus = append(seamPlus, m.Seam...)
		}
	}

	for r := 0; r < total; r++ {
		if len(spec.Ops) > 0 && r == spec.PreRounds {
			// Merge transition: seam qubits join the lattice, in the basis
			// that commutes with the joint observable's stabilizer flow.
			b.Begin().R(seamAll...)
			if len(seamPlus) > 0 {
				b.Begin().H(seamPlus...)
			}
		}
		if len(spec.Ops) > 0 && r == spec.PreRounds+spec.MergeRounds {
			// Split transition: measure the seams out; the outcomes are
			// absorbed by the dangling ends of the seam-stabilizer chains.
			if len(seamPlus) > 0 {
				b.Begin().H(seamPlus...)
			}
			b.Begin()
			b.M(seamAll...)
		}
		merged := r >= spec.PreRounds && r < spec.PreRounds+spec.MergeRounds
		sets := sepSets
		if merged {
			sets = mrgSets
		}

		for pi := range curPatch {
			fill(curPatch[pi], -1)
		}
		for mi := range curSeam {
			fill(curSeam[mi], -1)
		}
		for _, set := range sets {
			for _, res := range flagbridge.AppendSet(b, set) {
				ref := owner[res.Plan]
				if ref.merge < 0 {
					curPatch[ref.patch][ref.si] = res.SyndromeRec
				} else if op := p.Merges[ref.merge].OwnerPatch[ref.si]; op >= 0 {
					curPatch[op][p.Merges[ref.merge].OwnerStab[ref.si]] = res.SyndromeRec
				} else {
					curSeam[ref.merge][ref.si] = res.SyndromeRec
				}
				// Every flag outcome is deterministic; each becomes its own
				// single-record detector (the paper's bridge-signal setup).
				for _, f := range res.FlagRecs {
					b.Detector(f)
					e.DetectorRound = append(e.DetectorRound, r)
				}
			}
		}

		// Syndrome comparison detectors: basis-type stabilizers only. A
		// chain's first outcome is deterministic given the logical
		// preparation; a stabilizer dropped by graceful degradation is never
		// measured and gets none. Patch chains run continuously through the
		// merge (the merged lattice preserves every basis-type patch
		// stabilizer), so pair detectors bridge both transitions.
		for pi, s := range p.Patches {
			for si, st := range s.Layout.Code.Stabilizers() {
				cur := curPatch[pi][si]
				if st.Type != basis[pi] || cur < 0 {
					continue
				}
				if prevPatch[pi][si] < 0 {
					b.Detector(cur)
				} else {
					b.Detector(prevPatch[pi][si], cur)
				}
				e.DetectorRound = append(e.DetectorRound, r)
			}
		}
		// New seam stabilizers: first-round outcomes are individually random
		// (they carry the joint parity), so detectors start at the second
		// merged round; the final outcomes dangle at the split.
		for mi, m := range p.Merges {
			jt := m.Op.Joint.StabType()
			for msi, st := range m.Code.Stabilizers() {
				cur := curSeam[mi][msi]
				if st.Type != jt || cur < 0 || m.OwnerPatch[msi] >= 0 {
					continue
				}
				if prevSeam[mi][msi] >= 0 {
					b.Detector(prevSeam[mi][msi], cur)
					e.DetectorRound = append(e.DetectorRound, r)
				}
			}
		}

		// Joint-parity observables, one per op in spec order: the product of
		// the first merged round's basis-type outcomes over patch A and the
		// seam equals Ā⊗B̄ by the telescoping stabilizer identity (the seam
		// qubits appear an even number of times and cancel).
		if len(spec.Ops) > 0 && r == spec.PreRounds {
			for mi, m := range p.Merges {
				jt := m.Op.Joint.StabType()
				var obs []int
				for msi, st := range m.Code.Stabilizers() {
					if st.Type != jt {
						continue
					}
					switch {
					case m.OwnerPatch[msi] == m.Op.A:
						obs = append(obs, curPatch[m.Op.A][m.OwnerStab[msi]])
					case m.OwnerPatch[msi] < 0:
						obs = append(obs, curSeam[mi][msi])
					}
				}
				b.Observable(obs...)
			}
		}

		for pi := range curPatch {
			carry(prevPatch[pi], curPatch[pi])
		}
		for mi := range curSeam {
			carry(prevSeam[mi], curSeam[mi])
		}
	}

	// Transversal data readout per patch, in each patch's basis.
	if len(xData) > 0 {
		b.Begin().H(xData...)
	}
	b.Begin()
	finalRecs := b.M(allData...)
	recOf := make([][]int, len(p.Patches)) // patch, data index -> record
	at := 0
	for pi, s := range p.Patches {
		n := len(s.Layout.DataQubit)
		recOf[pi] = finalRecs[at : at+n]
		at += n
	}

	// Closing detectors: last syndrome vs the product of the final data
	// measurements in the stabilizer's support.
	for pi, s := range p.Patches {
		for si, st := range s.Layout.Code.Stabilizers() {
			if st.Type != basis[pi] || prevPatch[pi][si] < 0 {
				continue
			}
			set := []int{prevPatch[pi][si]}
			for _, dq := range st.Data {
				set = append(set, recOf[pi][dq])
			}
			b.Detector(set...)
			e.DetectorRound = append(e.DetectorRound, total)
		}
	}

	// Per-patch logical memory observables, after the joint parities.
	for pi, s := range p.Patches {
		logical := s.Layout.Code.LogicalZ()
		if basis[pi] == code.StabX {
			logical = s.Layout.Code.LogicalX()
		}
		var obs []int
		for _, dq := range logical.Support() {
			obs = append(obs, recOf[pi][dq])
		}
		b.Observable(obs...)
	}

	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("surgery: %w", err)
	}
	e.Circuit = c
	if !opts.SkipVerify {
		if err := dem.CheckDeterminism(c); err != nil {
			return nil, fmt.Errorf("surgery: circuit failed determinism check: %w", err)
		}
	}
	return e, nil
}

// Noisy returns the experiment circuit under the given error model,
// restricting idle noise to the qubits the placement actually uses.
func (e *Experiment) Noisy(model noise.Model) (*circuit.Circuit, error) {
	model.IdleOnly = e.Placement.AllQubits()
	return model.Apply(e.Circuit)
}

// NumDetectors returns the number of annotated detectors.
func (e *Experiment) NumDetectors() int { return len(e.Circuit.Detectors) }

// zipSchedules interleaves several schedules into one sequence of plan sets
// per round: step i unions every group's i-th set when all cross-group plan
// pairs are compatible (no shared bridge qubit, no data slot collision),
// and splits them into separate sequential sets otherwise.
func zipSchedules(groups []synth.Schedule) [][]*flagbridge.Plan {
	steps := 0
	for _, g := range groups {
		if len(g) > steps {
			steps = len(g)
		}
	}
	var out [][]*flagbridge.Plan
	for i := 0; i < steps; i++ {
		var bins [][]*flagbridge.Plan
		for _, g := range groups {
			if i >= len(g) {
				continue
			}
			placed := false
			for bi := range bins {
				if crossCompatible(bins[bi], g[i]) {
					bins[bi] = append(bins[bi], g[i]...)
					placed = true
					break
				}
			}
			if !placed {
				bins = append(bins, append([]*flagbridge.Plan(nil), g[i]...))
			}
		}
		out = append(out, bins...)
	}
	return out
}

// crossCompatible reports whether every plan pair across the two sets can
// share a measurement set.
func crossCompatible(a, b []*flagbridge.Plan) bool {
	for _, p1 := range a {
		for _, p2 := range b {
			if !flagbridge.Compatible(p1, p2) {
				return false
			}
		}
	}
	return true
}

func fillInt(n, v int) []int {
	out := make([]int, n)
	fill(out, v)
	return out
}

func fill(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

// carry folds this round's records into the running chains, keeping the
// previous record where a stabilizer was not measured this round.
func carry(prev, cur []int) {
	for i, v := range cur {
		if v >= 0 {
			prev[i] = v
		}
	}
}
