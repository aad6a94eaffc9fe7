// Package noise implements the circuit-level error model of the paper's
// §5.1: a depolarizing channel with probability p after every gate (1-qubit
// channels after 1-qubit gates, 2-qubit channels after 2-qubit gates), a
// Pauli-X error channel on measurement and reset operations, and a
// per-time-step idle depolarizing channel (default probability 0.0002,
// estimated from t=20ns gate time and T=100us coherence) on every qubit not
// acted on during a moment.
package noise

import (
	"fmt"

	"surfstitch/internal/circuit"
)

// DefaultIdleError is the idle depolarizing probability per gate duration
// used throughout the paper: 1 - exp(-t/T) with t = 20ns and T = 100us.
const DefaultIdleError = 0.0002

// Model parameterizes the circuit-level error model.
type Model struct {
	// GateError is the paper's p_e: depolarizing strength after each gate
	// and X-flip probability on measurement and reset.
	GateError float64
	// IdleError is the per-moment depolarizing strength on idle qubits.
	IdleError float64
	// IdleOnly restricts which qubits receive idle noise; nil means every
	// qubit that the circuit ever touches with a gate.
	IdleOnly []int
}

// Uniform returns a model with gate error p and the paper's default idle
// error.
func Uniform(p float64) Model {
	return Model{GateError: p, IdleError: DefaultIdleError}
}

// Apply returns a noisy copy of the circuit with channels inserted according
// to the model. The input circuit must be noise-free; detectors and
// observables are preserved.
func (m Model) Apply(c *circuit.Circuit) (*circuit.Circuit, error) {
	if m.GateError < 0 || m.GateError > 1 || m.IdleError < 0 || m.IdleError > 1 {
		return nil, fmt.Errorf("noise: probabilities out of range: gate=%g idle=%g", m.GateError, m.IdleError)
	}
	idleSet := m.IdleOnly
	if idleSet == nil {
		idleSet = usedQubits(c)
	}

	out := &circuit.Circuit{
		NumQubits:   c.NumQubits,
		Detectors:   cloneSets(c.Detectors),
		Observables: cloneSets(c.Observables),
	}
	active := make([]int, c.NumQubits)
	for mi, mom := range c.Moments {
		if len(mom.Noise) > 0 {
			return nil, fmt.Errorf("noise: input circuit already contains noise channels")
		}
		if len(mom.Gates) == 0 {
			out.Moments = append(out.Moments, circuit.Moment{})
			continue
		}
		// Measurement errors act before the measurement: emit a noise-only
		// moment carrying X errors on all measured qubits.
		var measured []int
		for _, g := range mom.Gates {
			if g.Op == circuit.OpM {
				measured = append(measured, g.Qubits...)
			}
		}
		if len(measured) > 0 && m.GateError > 0 {
			out.Moments = append(out.Moments, circuit.Moment{
				Noise: []circuit.Instruction{{Op: circuit.OpXError, Qubits: measured, Arg: m.GateError}},
			})
		}

		noisy := circuit.Moment{Gates: cloneGates(mom.Gates)}
		if m.GateError > 0 {
			var dep1, dep2, flip []int
			for _, g := range mom.Gates {
				switch g.Op {
				case circuit.OpCX, circuit.OpCZ:
					dep2 = append(dep2, g.Qubits...)
				case circuit.OpR:
					flip = append(flip, g.Qubits...)
				case circuit.OpM:
					// error already emitted before the moment
				default:
					dep1 = append(dep1, g.Qubits...)
				}
			}
			if len(dep1) > 0 {
				noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpDepolarize1, Qubits: dep1, Arg: m.GateError})
			}
			if len(dep2) > 0 {
				noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpDepolarize2, Qubits: dep2, Arg: m.GateError})
			}
			if len(flip) > 0 {
				noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpXError, Qubits: flip, Arg: m.GateError})
			}
		}
		if m.IdleError > 0 {
			stamp(active, mom, mi)
			var idle []int
			for _, q := range idleSet {
				if !stamped(active, q, mi) {
					idle = append(idle, q)
				}
			}
			if len(idle) > 0 {
				noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpDepolarize1, Qubits: idle, Arg: m.IdleError})
			}
		}
		out.Moments = append(out.Moments, noisy)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("noise: generated circuit invalid: %w", err)
	}
	return out, nil
}

// MustApply is Apply that panics on error; for use with circuits whose
// validity is guaranteed by construction.
func (m Model) MustApply(c *circuit.Circuit) *circuit.Circuit {
	out, err := m.Apply(c)
	if err != nil {
		panic(err)
	}
	return out
}

// stamp marks the qubits the gates of moment mi act on by setting
// active[q] = mi+1, so one slice serves every moment of a circuit. Qubits
// out of range are left for the output's Validate to reject.
func stamp(active []int, mom circuit.Moment, mi int) {
	for _, g := range mom.Gates {
		for _, q := range g.Qubits {
			if q >= 0 && q < len(active) {
				active[q] = mi + 1
			}
		}
	}
}

// stamped reports whether stamp marked qubit q in moment mi.
func stamped(active []int, q, mi int) bool {
	return q >= 0 && q < len(active) && active[q] == mi+1
}

// usedQubits returns the sorted set of qubits touched by any gate.
func usedQubits(c *circuit.Circuit) []int {
	used := make([]bool, c.NumQubits)
	for _, mom := range c.Moments {
		for _, g := range mom.Gates {
			for _, q := range g.Qubits {
				used[q] = true
			}
		}
	}
	var out []int
	for q, u := range used {
		if u {
			out = append(out, q)
		}
	}
	return out
}

func cloneGates(gs []circuit.Instruction) []circuit.Instruction {
	out := make([]circuit.Instruction, len(gs))
	for i, g := range gs {
		out[i] = circuit.Instruction{Op: g.Op, Qubits: append([]int(nil), g.Qubits...), Arg: g.Arg}
	}
	return out
}

func cloneSets(sets [][]int) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = append([]int(nil), s...)
	}
	return out
}
