package tableau

import (
	"fmt"
	"math/rand"

	"surfstitch/internal/circuit"
)

// Result holds the measurement record of one noiseless circuit execution.
type Result struct {
	// Records holds each measurement outcome bit in program order.
	Records []uint8
	// Random flags which records were intrinsically random coin flips.
	Random []bool
}

// DetectorValues returns the parity of each detector of c under the record.
func DetectorValues(c *circuit.Circuit, records []uint8) []uint8 {
	return parities(c.Detectors, records)
}

// ObservableValues returns the parity of each observable of c under the
// record.
func ObservableValues(c *circuit.Circuit, records []uint8) []uint8 {
	return parities(c.Observables, records)
}

func parities(sets [][]int, records []uint8) []uint8 {
	out := make([]uint8, len(sets))
	for i, set := range sets {
		var p uint8
		for _, r := range set {
			p ^= records[r]
		}
		out[i] = p
	}
	return out
}

// Run executes the circuit noiselessly (all noise channels are skipped) on a
// fresh simulator and returns the measurement record. The RNG resolves
// intrinsically random outcomes; nil uses a fixed seed.
func Run(c *circuit.Circuit, rng *rand.Rand) *Result {
	sim := New(c.NumQubits, rng)
	nm := c.NumMeasurements()
	res := &Result{Records: make([]uint8, 0, nm), Random: make([]bool, 0, nm)}
	for _, m := range c.Moments {
		for _, g := range m.Gates {
			applyGate(sim, g, res)
		}
	}
	return res
}

func applyGate(sim *Simulator, g circuit.Instruction, res *Result) {
	switch g.Op {
	case circuit.OpR:
		for _, q := range g.Qubits {
			sim.Reset(q)
		}
	case circuit.OpH:
		for _, q := range g.Qubits {
			sim.H(q)
		}
	case circuit.OpS:
		for _, q := range g.Qubits {
			sim.S(q)
		}
	case circuit.OpX:
		for _, q := range g.Qubits {
			sim.X(q)
		}
	case circuit.OpY:
		for _, q := range g.Qubits {
			sim.Y(q)
		}
	case circuit.OpZ:
		for _, q := range g.Qubits {
			sim.Z(q)
		}
	case circuit.OpCX:
		for i := 0; i < len(g.Qubits); i += 2 {
			sim.CX(g.Qubits[i], g.Qubits[i+1])
		}
	case circuit.OpCZ:
		for i := 0; i < len(g.Qubits); i += 2 {
			sim.CZ(g.Qubits[i], g.Qubits[i+1])
		}
	case circuit.OpM:
		for _, q := range g.Qubits {
			out, random := sim.Measure(q)
			res.Records = append(res.Records, uint8(out))
			res.Random = append(res.Random, random)
		}
	default:
		panic(fmt.Sprintf("tableau: cannot execute op %v", g.Op))
	}
}

// Reference runs the circuit once and returns its detector and observable
// parities, after verifying determinism with the given number of independent
// randomized trials (minimum 2). A non-deterministic detector indicates an
// invalid measurement schedule (e.g. a zig-zag ordering violation between
// concurrently measured X- and Z-stabilizers) and yields an error.
func Reference(c *circuit.Circuit, trials int) (detectors, observables []uint8, err error) {
	if trials < 2 {
		trials = 2
	}
	var refDet, refObs []uint8
	for t := 0; t < trials; t++ {
		res := Run(c, rand.New(rand.NewSource(int64(1000+t*7919))))
		det := DetectorValues(c, res.Records)
		obs := ObservableValues(c, res.Records)
		if t == 0 {
			refDet, refObs = det, obs
			continue
		}
		for i := range det {
			if det[i] != refDet[i] {
				return nil, nil, fmt.Errorf("tableau: detector %d is not deterministic", i)
			}
		}
		for i := range obs {
			if obs[i] != refObs[i] {
				return nil, nil, fmt.Errorf("tableau: observable %d is not deterministic", i)
			}
		}
	}
	return refDet, refObs, nil
}
