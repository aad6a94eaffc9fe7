// Package circuit defines the Clifford circuit intermediate representation
// shared by the simulators, the noise models and the synthesis backend.
//
// A Circuit is a sequence of Moments. Each moment is one hardware time step:
// its gates act on disjoint qubits and execute simultaneously. Noise
// channels attach to moments separately from gates and do not occupy time.
// Measurements produce a global record of bits in program order; detectors
// and logical observables are declared as parities over record indices,
// mirroring the model used by stim.
package circuit

import (
	"fmt"
)

// Op enumerates gate and channel kinds.
type Op uint8

// Gate operations (unitary or projective) and noise channels.
const (
	// Gates.
	OpR  Op = iota // reset to |0>
	OpH            // Hadamard
	OpX            // Pauli X
	OpY            // Pauli Y
	OpZ            // Pauli Z
	OpS            // phase gate S = sqrt(Z)
	OpCX           // controlled-X; Qubits holds (control, target) pairs
	OpCZ           // controlled-Z; Qubits holds pairs
	OpM            // Z-basis measurement, appends one record bit per qubit

	// Noise channels (Arg is the error probability).
	OpDepolarize1 // uniform {X,Y,Z} on each qubit
	OpDepolarize2 // uniform 15 non-identity Paulis on each pair
	OpXError      // X with probability Arg
	OpZError      // Z with probability Arg
)

// String returns the mnemonic for the op.
func (o Op) String() string {
	switch o {
	case OpR:
		return "R"
	case OpH:
		return "H"
	case OpX:
		return "X"
	case OpY:
		return "Y"
	case OpZ:
		return "Z"
	case OpS:
		return "S"
	case OpCX:
		return "CX"
	case OpCZ:
		return "CZ"
	case OpM:
		return "M"
	case OpDepolarize1:
		return "DEPOLARIZE1"
	case OpDepolarize2:
		return "DEPOLARIZE2"
	case OpXError:
		return "X_ERROR"
	case OpZError:
		return "Z_ERROR"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsNoise reports whether the op is a stochastic channel rather than a gate.
func (o Op) IsNoise() bool {
	return o == OpDepolarize1 || o == OpDepolarize2 || o == OpXError || o == OpZError
}

// IsTwoQubit reports whether the op consumes qubit pairs.
func (o Op) IsTwoQubit() bool {
	return o == OpCX || o == OpCZ || o == OpDepolarize2
}

// Instruction is one gate or channel application. For two-qubit ops, Qubits
// holds consecutive pairs. Arg is only meaningful for noise channels.
type Instruction struct {
	Op     Op
	Qubits []int
	Arg    float64
}

// Targets returns the number of logical targets (pairs count once).
func (in Instruction) Targets() int {
	if in.Op.IsTwoQubit() {
		return len(in.Qubits) / 2
	}
	return len(in.Qubits)
}

func (in Instruction) String() string {
	if in.Op.IsNoise() {
		return fmt.Sprintf("%v(%g) %v", in.Op, in.Arg, in.Qubits)
	}
	return fmt.Sprintf("%v %v", in.Op, in.Qubits)
}

// Moment is one hardware time step: gates on disjoint qubits, plus noise
// channels applied after the gates of the step.
type Moment struct {
	Gates []Instruction
	Noise []Instruction
}

// ActiveQubits returns the set of qubits acted on by gates in the moment.
func (m Moment) ActiveQubits() map[int]bool {
	act := map[int]bool{}
	for _, g := range m.Gates {
		for _, q := range g.Qubits {
			act[q] = true
		}
	}
	return act
}

// Circuit is a moment-ordered Clifford circuit with detector and observable
// annotations over the measurement record.
type Circuit struct {
	NumQubits int
	Moments   []Moment

	// Detectors are parities of measurement-record indices that are
	// deterministic under noiseless execution; a flipped detector signals
	// an error. Observables are the logical measurements being protected.
	Detectors   [][]int
	Observables [][]int
}

// Depth returns the number of moments that contain at least one gate — the
// paper's "time-step" count.
func (c *Circuit) Depth() int {
	n := 0
	for _, m := range c.Moments {
		if len(m.Gates) > 0 {
			n++
		}
	}
	return n
}

// NumMeasurements returns the total number of measurement record bits.
func (c *Circuit) NumMeasurements() int {
	n := 0
	for _, m := range c.Moments {
		for _, g := range m.Gates {
			if g.Op == OpM {
				n += len(g.Qubits)
			}
		}
	}
	return n
}

// CountOp returns the number of target applications of the op across the
// circuit (pairs count once), e.g. CountOp(OpCX) is the CNOT count.
func (c *Circuit) CountOp(op Op) int {
	n := 0
	for _, m := range c.Moments {
		for _, g := range m.Gates {
			if g.Op == op {
				n += g.Targets()
			}
		}
		for _, g := range m.Noise {
			if g.Op == op {
				n += g.Targets()
			}
		}
	}
	return n
}

// Validate checks structural invariants: qubit indices in range, two-qubit
// ops with even target lists and distinct pair members, gate disjointness
// within each moment, and detector/observable indices within the record.
func (c *Circuit) Validate() error {
	// used[q] holds one more than the index of the last moment whose gates
	// touch qubit q; checkTargets bounds every index before it is read.
	used := make([]int, c.NumQubits)
	for mi, m := range c.Moments {
		for _, g := range m.Gates {
			if g.Op.IsNoise() {
				return fmt.Errorf("circuit: moment %d has noise op %v in gate list", mi, g.Op)
			}
			if err := c.checkTargets(g); err != nil {
				return fmt.Errorf("circuit: moment %d: %w", mi, err)
			}
			for _, q := range g.Qubits {
				if used[q] == mi+1 {
					return fmt.Errorf("circuit: moment %d uses qubit %d twice", mi, q)
				}
				used[q] = mi + 1
			}
		}
		for _, g := range m.Noise {
			if !g.Op.IsNoise() {
				return fmt.Errorf("circuit: moment %d has gate op %v in noise list", mi, g.Op)
			}
			if err := c.checkTargets(g); err != nil {
				return fmt.Errorf("circuit: moment %d: %w", mi, err)
			}
			if g.Arg < 0 || g.Arg > 1 {
				return fmt.Errorf("circuit: moment %d: probability %g out of range", mi, g.Arg)
			}
		}
	}
	nm := c.NumMeasurements()
	for di, det := range c.Detectors {
		for _, r := range det {
			if r < 0 || r >= nm {
				return fmt.Errorf("circuit: detector %d references record %d of %d", di, r, nm)
			}
		}
	}
	for oi, obs := range c.Observables {
		for _, r := range obs {
			if r < 0 || r >= nm {
				return fmt.Errorf("circuit: observable %d references record %d of %d", oi, r, nm)
			}
		}
	}
	return nil
}

func (c *Circuit) checkTargets(g Instruction) error {
	if g.Op.IsTwoQubit() {
		if len(g.Qubits)%2 != 0 {
			return fmt.Errorf("%v has odd target list", g.Op)
		}
		for i := 0; i < len(g.Qubits); i += 2 {
			if g.Qubits[i] == g.Qubits[i+1] {
				return fmt.Errorf("%v pair (%d,%d) is degenerate", g.Op, g.Qubits[i], g.Qubits[i+1])
			}
		}
	}
	for _, q := range g.Qubits {
		if q < 0 || q >= c.NumQubits {
			return fmt.Errorf("qubit %d out of range [0,%d)", q, c.NumQubits)
		}
	}
	return nil
}

// String renders the circuit moment by moment for debugging.
func (c *Circuit) String() string {
	s := fmt.Sprintf("circuit over %d qubits, %d moments, %d measurements\n",
		c.NumQubits, len(c.Moments), c.NumMeasurements())
	for i, m := range c.Moments {
		s += fmt.Sprintf("  t=%d:", i)
		for _, g := range m.Gates {
			s += " " + g.String()
		}
		for _, g := range m.Noise {
			s += " " + g.String()
		}
		s += "\n"
	}
	return s
}
