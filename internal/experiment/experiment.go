// Package experiment wraps a synthesized surface code as a logical-memory
// experiment: `rounds` rounds of the scheduled stabilizer measurements
// followed by a transversal data readout, with detector and observable
// annotations ready for the sampling/decoding pipeline. This mirrors the
// paper's evaluation protocol (§5.1): 3d error-detection rounds, error rates
// measured with respect to Pauli X errors, decoding with measurement signals
// from bridge qubits (flags). A memory is the one-patch, zero-operation case
// of a lattice-surgery schedule, so the circuit comes from the surgery
// assembler.
package experiment

import (
	"fmt"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/noise"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// Basis selects which logical state the memory protects.
type Basis int

const (
	// BasisZ prepares |0>_L and detects Pauli-X errors with the Z-type
	// stabilizers (the paper's threshold setting).
	BasisZ Basis = iota
	// BasisX prepares |+>_L and detects Pauli-Z errors with the X-type
	// stabilizers.
	BasisX
)

// String names the basis.
func (b Basis) String() string {
	if b == BasisX {
		return "X"
	}
	return "Z"
}

// Options configures memory-experiment assembly.
type Options struct {
	Basis Basis
	// SkipVerify skips the tableau determinism verification (useful in
	// benchmarks where the construction is already trusted).
	SkipVerify bool
}

// Memory is an assembled logical-memory experiment.
type Memory struct {
	Synth   *synth.Synthesis
	Rounds  int
	Basis   Basis
	Circuit *circuit.Circuit

	// DetectorRound records which round each detector belongs to (the final
	// data-readout detectors carry round == Rounds).
	DetectorRound []int
}

// NewMemory builds a memory experiment with the given number of rounds: the
// synthesis becomes the one patch of a placement with no surgery ops and
// `rounds` separate rounds, assembled by surgery.Assemble in the protected
// basis. Unless disabled, the construction is verified with the tableau
// simulator: every detector must be deterministic, which catches scheduling
// or circuit generation bugs at assembly time.
func NewMemory(s *synth.Synthesis, rounds int, opts Options) (*Memory, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("experiment: need at least one round, got %d", rounds)
	}
	p := &surgery.Placement{
		Dev: s.Layout.Dev,
		Spec: surgery.Spec{
			Patches:   []surgery.PatchSpec{{Distance: s.Layout.Code.Distance()}},
			PreRounds: rounds,
		},
		Patches: []*synth.Synthesis{s},
	}
	basis := code.StabZ
	if opts.Basis == BasisX {
		basis = code.StabX
	}
	e, err := surgery.Assemble(p, []code.StabType{basis}, surgery.Options{SkipVerify: opts.SkipVerify})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return &Memory{
		Synth: s, Rounds: rounds, Basis: opts.Basis,
		Circuit: e.Circuit, DetectorRound: e.DetectorRound,
	}, nil
}

// Noisy returns the experiment circuit with the given error model applied,
// restricting idle noise to the qubits the code actually uses.
func (m *Memory) Noisy(model noise.Model) (*circuit.Circuit, error) {
	model.IdleOnly = m.Synth.AllQubits()
	return model.Apply(m.Circuit)
}

// NumDetectors returns the number of annotated detectors.
func (m *Memory) NumDetectors() int { return len(m.Circuit.Detectors) }
