package noise

import (
	"fmt"
	"math"

	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
)

// Applier inserts noise channels into a noise-free circuit. Model and
// DeviceAware both satisfy it; threshold estimation is written against this
// interface so calibrated and uniform chips share one pipeline.
type Applier interface {
	Apply(c *circuit.Circuit) (*circuit.Circuit, error)
}

// Builder constructs the channel applier for one sweep point: p is the
// swept gate-error parameter, idleError the resolved uniform idle strength
// (0 disables idle noise), idleOnly the restriction set (nil = all used
// qubits).
type Builder func(p, idleError float64, idleOnly []int) (Applier, error)

// BuilderFor returns a Builder deriving per-location channels from the
// device's calibration snapshot, or nil when the device carries none —
// callers fall back to the uniform Model, keeping uncalibrated results
// bit-identical to the pre-calibration pipeline.
func BuilderFor(dev *device.Device) Builder {
	if dev == nil || dev.Calibration() == nil {
		return nil
	}
	return func(p, idleError float64, idleOnly []int) (Applier, error) {
		return NewDeviceAware(dev, p, idleError != 0, idleOnly)
	}
}

// momentNs is the assumed wall-clock duration of one circuit moment,
// matching the 20ns gate time behind DefaultIdleError.
const momentNs = 20.0

// maxChannelStrength caps derived channel probabilities after sweep
// scaling; a swept p far above the chip's reference rate would otherwise
// push probabilities past 1.
const maxChannelStrength = 0.5

// DeviceAware is the calibration-driven counterpart of Model: channel
// strengths vary per location, derived from a device calibration snapshot.
//
//   - 1q gate depolarizing: p1 = 3(1-F1)/2, the uniform-Pauli channel whose
//     average gate fidelity is F1.
//   - 2q gate depolarizing: p2 = 5(1-F2)/4 per coupler, likewise for the
//     15-lane two-qubit channel.
//   - idle depolarizing: 1 - exp(-t/Teff) per moment with t = 20ns and
//     2/Teff = 1/T1 + 1/T2 (at the canonical T1 = T2 = 100us this
//     reproduces DefaultIdleError).
//   - measurement and reset X-flip: the per-qubit readout error.
//
// All strengths are scaled by p / ReferenceRate(cal), so sweeping p moves
// the whole chip's quality up and down coherently and p = ReferenceRate
// reproduces the calibration verbatim. Per-location strengths flow through
// DEM extraction instruction-by-instruction, so the decoder's matching
// graph automatically reflects the chip.
type DeviceAware struct {
	// Gate1, Meas, Reset and Idle are indexed by qubit id; Gate2 is keyed
	// by sorted qubit-id pairs (couplers).
	Gate1 []float64
	Meas  []float64
	Reset []float64
	Idle  []float64
	Gate2 map[[2]int]float64
	// IdleOnly restricts which qubits receive idle noise; nil means every
	// qubit that the circuit ever touches with a gate.
	IdleOnly []int
}

// Gate1Rate converts an average single-qubit gate fidelity into the
// strength of the uniform depolarizing channel with that fidelity:
// p1 = 3(1-F1)/2.
func Gate1Rate(f1 float64) float64 { return 3 * (1 - f1) / 2 }

// Gate2Rate converts an average two-qubit gate fidelity into the strength of
// the 15-lane two-qubit depolarizing channel with that fidelity:
// p2 = 5(1-F2)/4.
func Gate2Rate(f2 float64) float64 { return 5 * (1 - f2) / 4 }

// IdleRate returns the per-moment (20ns) idle depolarizing strength of a
// qubit with the given coherence times in microseconds:
// 1 - exp(-t/Teff) with 2/Teff = 1/T1 + 1/T2.
func IdleRate(t1Us, t2Us float64) float64 {
	teffUs := 2 / (1/t1Us + 1/t2Us)
	return 1 - math.Exp(-momentNs/(teffUs*1000))
}

// ReferenceRate returns the calibration's mean two-qubit depolarizing
// strength — the natural anchor for the swept gate-error parameter: a sweep
// point at p = ReferenceRate applies the snapshot's channel strengths
// unscaled.
func ReferenceRate(cal *device.Calibration) float64 {
	if cal == nil || len(cal.Couplers) == 0 {
		return 0
	}
	sum := 0.0
	for _, cc := range cal.Couplers {
		sum += Gate2Rate(cc.Fidelity2Q)
	}
	return sum / float64(len(cal.Couplers))
}

// NewDeviceAware derives per-location channel strengths from the device's
// calibration snapshot, scaled so the mean 2q strength equals p. idleOn
// false disables idle noise entirely (the NoIdle ablation); the uniform
// IdleError magnitude is otherwise superseded by the T1/T2-derived rates.
func NewDeviceAware(dev *device.Device, p float64, idleOn bool, idleOnly []int) (*DeviceAware, error) {
	cal := dev.Calibration()
	if cal == nil {
		return nil, fmt.Errorf("noise: device %s carries no calibration snapshot", dev.Name())
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("noise: gate error %g outside [0,1]", p)
	}
	ref := ReferenceRate(cal)
	if ref <= 0 {
		return nil, fmt.Errorf("noise: calibration %q has zero reference rate; cannot anchor sweep scaling", cal.Name)
	}
	scale := p / ref
	clamp := func(x float64) float64 {
		if x > maxChannelStrength {
			return maxChannelStrength
		}
		return x
	}
	da := &DeviceAware{
		Gate1:    make([]float64, dev.Len()),
		Meas:     make([]float64, dev.Len()),
		Reset:    make([]float64, dev.Len()),
		Idle:     make([]float64, dev.Len()),
		Gate2:    make(map[[2]int]float64, len(cal.Couplers)),
		IdleOnly: idleOnly,
	}
	for _, qc := range cal.Qubits {
		q, ok := dev.QubitAt(qc.At)
		if !ok {
			return nil, fmt.Errorf("noise: calibration qubit %v missing from device", qc.At)
		}
		da.Gate1[q] = clamp(scale * Gate1Rate(qc.Fidelity1Q))
		da.Meas[q] = clamp(scale * qc.ReadoutError)
		da.Reset[q] = da.Meas[q]
		if idleOn {
			da.Idle[q] = clamp(scale * IdleRate(qc.T1Us, qc.T2Us))
		}
	}
	for _, cc := range cal.Couplers {
		a, aok := dev.QubitAt(cc.Between[0])
		b, bok := dev.QubitAt(cc.Between[1])
		if !aok || !bok {
			return nil, fmt.Errorf("noise: calibration coupler %v-%v missing from device", cc.Between[0], cc.Between[1])
		}
		if a > b {
			a, b = b, a
		}
		da.Gate2[[2]int{a, b}] = clamp(scale * Gate2Rate(cc.Fidelity2Q))
	}
	return da, nil
}

// Apply returns a noisy copy of the circuit with per-location channels
// inserted. The moment structure mirrors Model.Apply — measurement X errors
// in a pre-moment, then gate channels, then idle channels — but every
// instruction carries its location's own strength.
func (da *DeviceAware) Apply(c *circuit.Circuit) (*circuit.Circuit, error) {
	if c.NumQubits > len(da.Gate1) {
		return nil, fmt.Errorf("noise: circuit uses %d qubits, calibration covers %d", c.NumQubits, len(da.Gate1))
	}
	idleSet := da.IdleOnly
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
		var measNoise []circuit.Instruction
		for _, g := range mom.Gates {
			if g.Op == circuit.OpM {
				for _, q := range g.Qubits {
					if da.Meas[q] > 0 {
						measNoise = append(measNoise, circuit.Instruction{Op: circuit.OpXError, Qubits: []int{q}, Arg: da.Meas[q]})
					}
				}
			}
		}
		if len(measNoise) > 0 {
			out.Moments = append(out.Moments, circuit.Moment{Noise: measNoise})
		}

		noisy := circuit.Moment{Gates: cloneGates(mom.Gates)}
		for _, g := range mom.Gates {
			switch g.Op {
			case circuit.OpCX, circuit.OpCZ:
				for i := 0; i+1 < len(g.Qubits); i += 2 {
					a, b := g.Qubits[i], g.Qubits[i+1]
					key := [2]int{a, b}
					if a > b {
						key = [2]int{b, a}
					}
					p2, ok := da.Gate2[key]
					if !ok {
						return nil, fmt.Errorf("noise: 2q gate on %d-%d has no calibrated coupler", a, b)
					}
					if p2 > 0 {
						noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpDepolarize2, Qubits: []int{a, b}, Arg: p2})
					}
				}
			case circuit.OpR:
				for _, q := range g.Qubits {
					if da.Reset[q] > 0 {
						noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpXError, Qubits: []int{q}, Arg: da.Reset[q]})
					}
				}
			case circuit.OpM:
				// error already emitted before the moment
			default:
				for _, q := range g.Qubits {
					if da.Gate1[q] > 0 {
						noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpDepolarize1, Qubits: []int{q}, Arg: da.Gate1[q]})
					}
				}
			}
		}
		stamp(active, mom, mi)
		for _, q := range idleSet {
			if !stamped(active, q, mi) && da.Idle[q] > 0 {
				noisy.Noise = append(noisy.Noise, circuit.Instruction{Op: circuit.OpDepolarize1, Qubits: []int{q}, Arg: da.Idle[q]})
			}
		}
		out.Moments = append(out.Moments, noisy)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("noise: generated circuit invalid: %w", err)
	}
	return out, nil
}
