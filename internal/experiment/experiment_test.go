package experiment

import (
	"context"
	"math/rand"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

func synthOn(t *testing.T, dev *device.Device, d int, mode synth.Mode) *synth.Synthesis {
	t.Helper()
	s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{Mode: mode})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return s
}

func TestMemoryAssemblesAndIsDeterministic(t *testing.T) {
	// NewMemory runs the determinism check internally; success on
	// every architecture is itself the assertion.
	cases := []struct {
		name string
		dev  *device.Device
		mode synth.Mode
	}{
		{"square", device.Square(8, 4), synth.ModeDefault},
		{"square-4", device.Square(6, 6), synth.ModeFour},
		{"hexagon", device.Hexagon(4, 6), synth.ModeDefault},
		{"octagon", device.Octagon(4, 4), synth.ModeDefault},
		{"heavy-square", device.HeavySquare(4, 3), synth.ModeDefault},
		{"heavy-square-4", device.HeavySquare(5, 5), synth.ModeFour},
		{"heavy-hexagon", device.HeavyHexagon(4, 5), synth.ModeDefault},
	}
	for _, c := range cases {
		s := synthOn(t, c.dev, 3, c.mode)
		m, err := NewMemory(s, 3, Options{})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if m.NumDetectors() == 0 {
			t.Errorf("%s: no detectors", c.name)
		}
		if len(m.Circuit.Observables) != 1 {
			t.Errorf("%s: %d observables, want 1", c.name, len(m.Circuit.Observables))
		}
	}
}

func TestMemoryXBasis(t *testing.T) {
	s := synthOn(t, device.Square(6, 6), 3, synth.ModeFour)
	m, err := NewMemory(s, 2, Options{Basis: BasisX})
	if err != nil {
		t.Fatalf("X-basis memory: %v", err)
	}
	if m.Basis != BasisX {
		t.Error("basis not recorded")
	}
	if BasisX.String() != "X" || BasisZ.String() != "Z" {
		t.Error("Basis.String broken")
	}
}

func TestMemoryRejectsZeroRounds(t *testing.T) {
	s := synthOn(t, device.Square(6, 6), 3, synth.ModeFour)
	if _, err := NewMemory(s, 0, Options{}); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestDetectorRoundAnnotations(t *testing.T) {
	s := synthOn(t, device.Square(6, 6), 3, synth.ModeFour)
	rounds := 3
	m, err := NewMemory(s, rounds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DetectorRound) != m.NumDetectors() {
		t.Fatalf("DetectorRound len %d != detectors %d", len(m.DetectorRound), m.NumDetectors())
	}
	seenFinal := false
	for _, r := range m.DetectorRound {
		if r < 0 || r > rounds {
			t.Fatalf("detector round %d out of range", r)
		}
		if r == rounds {
			seenFinal = true
		}
	}
	if !seenFinal {
		t.Error("no final-readout detectors")
	}
}

// insertXBefore returns a copy of c with a deterministic X error channel on
// qubit q inserted before moment index at.
func insertXBefore(c *circuit.Circuit, q, at int) *circuit.Circuit {
	out := &circuit.Circuit{NumQubits: c.NumQubits, Detectors: c.Detectors, Observables: c.Observables}
	out.Moments = append(out.Moments, c.Moments[:at]...)
	out.Moments = append(out.Moments, circuit.Moment{
		Noise: []circuit.Instruction{{Op: circuit.OpXError, Qubits: []int{q}, Arg: 1}},
	})
	out.Moments = append(out.Moments, c.Moments[at:]...)
	return out
}

func TestSingleXErrorAlwaysDetected(t *testing.T) {
	// In a Z-basis memory, an X error on any data qubit between rounds must
	// flip at least one detector and never silently flip the observable.
	s := synthOn(t, device.Square(6, 6), 3, synth.ModeFour)
	m, err := NewMemory(s, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Insert after the first round: moment index right after the first set's
	// final measurement. Moment 1 (after reset) is inside round one; use the
	// midpoint of the circuit.
	at := len(m.Circuit.Moments) / 2
	for _, dq := range s.Layout.DataQubit {
		injected := insertXBefore(m.Circuit, dq, at)
		sampler, err := frame.NewSampler(injected, rand.New(rand.NewSource(12345)))
		if err != nil {
			t.Fatal(err)
		}
		batch := sampler.Sample(1)
		if len(batch.ShotDetectors(0)) == 0 {
			t.Errorf("X on data qubit %d undetected", dq)
		}
	}
}

func TestSingleErrorsDecodeWithoutLogicalError(t *testing.T) {
	// Every elementary mechanism of the noisy d=3 memory must decode to its
	// own observable effect (single-fault correctability).
	s := synthOn(t, device.Square(6, 6), 3, synth.ModeFour)
	m, err := NewMemory(s, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := m.Noisy(noise.Uniform(0.001))
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decoder.New(model)
	if err != nil {
		t.Fatal(err)
	}
	if dec.UndetectableObs != 0 {
		t.Fatalf("memory has undetectable logical mechanisms")
	}
	failures := 0
	for _, mech := range model.Mechanisms {
		if len(mech.Detectors) == 0 {
			continue
		}
		pred, err := dec.Decode(mech.Detectors)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if pred != mech.Obs {
			failures++
		}
	}
	if failures > 0 {
		t.Errorf("%d of %d single mechanisms misdecoded", failures, len(model.Mechanisms))
	}
}

func TestEndToEndLogicalErrorRateFalls(t *testing.T) {
	// Full pipeline on the ideal square-4 synthesis: logical error rate at a
	// physical rate below threshold must beat the unencoded error rate and
	// fall with distance.
	if testing.Short() {
		t.Skip("end-to-end Monte Carlo in short mode")
	}
	p := 0.003
	rates := map[int]float64{}
	for _, d := range []int{3, 5} {
		s := synthOn(t, device.Square(2*d, 2*d), d, synth.ModeFour)
		m, err := NewMemory(s, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := m.Noisy(noise.Uniform(p))
		if err != nil {
			t.Fatal(err)
		}
		model, err := dem.FromCircuit(noisy)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoder.New(model)
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := dec.DecodeBatch(sampler.Sample(3000))
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = stats.LogicalErrorRate()
		t.Logf("d=%d: logical error rate %.5f", d, rates[d])
	}
	if rates[5] >= rates[3] && rates[3] > 0 {
		t.Errorf("below threshold the rate should fall with distance: d3=%.5f d5=%.5f",
			rates[3], rates[5])
	}
}

func TestNoisyRestrictsIdleToUsedQubits(t *testing.T) {
	s := synthOn(t, device.Square(8, 4), 3, synth.ModeDefault)
	m, err := NewMemory(s, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := m.Noisy(noise.Uniform(0.01))
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, q := range s.AllQubits() {
		used[q] = true
	}
	for _, mom := range noisy.Moments {
		for _, nz := range mom.Noise {
			if nz.Op != circuit.OpDepolarize1 {
				continue
			}
			for _, q := range nz.Qubits {
				if !used[q] {
					t.Fatalf("idle noise on unused qubit %d", q)
				}
			}
		}
	}
}
