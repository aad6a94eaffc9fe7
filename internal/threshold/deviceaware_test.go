package threshold

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/frame"
	"surfstitch/internal/grid"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// asymmetricCalibration alternates coupler quality across the whole chip:
// couplers whose lexicographically smaller endpoint has even coordinate
// parity are near-perfect, the rest nearly two orders of magnitude worse in
// infidelity. The alternation guarantees every synthesized patch straddles
// both populations, so a matched decoder has real information to exploit.
// Qubit figures are kept benign so two-qubit gates dominate the error
// budget.
func asymmetricCalibration(d *device.Device) *device.Calibration {
	cal := &device.Calibration{Name: "asymmetric"}
	for q := 0; q < d.Len(); q++ {
		cal.Qubits = append(cal.Qubits, device.QubitCalibration{
			At: d.Coord(q), T1Us: 100, T2Us: 100,
			Fidelity1Q: 0.99995, ReadoutError: 0.002,
		})
	}
	for _, e := range d.Graph().Edges() {
		ca, cb := d.Coord(e[0]), d.Coord(e[1])
		lo := ca
		if cb.Less(lo) {
			lo = cb
		}
		f2 := 0.9998
		if (lo.X+lo.Y)%2 != 0 {
			f2 = 0.985
		}
		cal.Couplers = append(cal.Couplers, device.CouplerCalibration{
			Between: [2]grid.Coord{ca, cb}, Fidelity2Q: f2,
		})
	}
	return cal
}

// The acceptance differential: on a crafted asymmetric calibration, the
// decoder built from the device-aware DEM carries different matching
// weights than the uniform one and decodes the same sampled shots with a
// measurably lower logical error rate. Fully seeded and deterministic.
func TestDeviceAwareDecoderBeatsUniformOnAsymmetricChip(t *testing.T) {
	dev := device.Square(10, 10)
	cal := asymmetricCalibration(dev)
	calDev, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := synth.Synthesize(context.Background(), calDev, 5, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.NewMemory(s, 4, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := noise.ReferenceRate(cal) // scale 1: the chip exactly as calibrated
	da, err := noise.NewDeviceAware(calDev, p, true, s.AllQubits())
	if err != nil {
		t.Fatal(err)
	}
	noisyDA, err := da.Apply(m.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	noisyU, err := (noise.Model{GateError: p, IdleError: noise.DefaultIdleError, IdleOnly: s.AllQubits()}).Apply(m.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	demDA, err := dem.FromCircuit(noisyDA)
	if err != nil {
		t.Fatal(err)
	}
	demU, err := dem.FromCircuit(noisyU)
	if err != nil {
		t.Fatal(err)
	}

	// The matching graphs must actually differ: at least one shared
	// mechanism signature carries a significantly different probability.
	sig := func(md *dem.Model) map[string]float64 {
		out := make(map[string]float64, len(md.Mechanisms))
		for _, mech := range md.Mechanisms {
			out[fmt.Sprintf("%v|%d", mech.Detectors, mech.Obs)] = mech.Prob
		}
		return out
	}
	sigDA, sigU := sig(demDA), sig(demU)
	differing := 0
	for key, pu := range sigU {
		if pda, ok := sigDA[key]; ok && math.Abs(pda-pu) > 1e-4 {
			differing++
		}
	}
	if differing == 0 {
		t.Fatal("device-aware DEM carries the same weights as the uniform DEM")
	}

	decDA, err := decoder.New(demDA)
	if err != nil {
		t.Fatal(err)
	}
	decU, err := decoder.New(demU)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 4096
	sampler, err := frame.NewSampler(noisyDA, rand.New(rand.NewSource(20220618)))
	if err != nil {
		t.Fatal(err)
	}
	batch := sampler.Sample(shots)
	statsDA, err := decDA.DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	statsU, err := decU.DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("matched decoder: %d/%d errors; uniform decoder: %d/%d errors (p=%g, %d weights differ)",
		statsDA.LogicalErrors, shots, statsU.LogicalErrors, shots, p, differing)
	if statsDA.LogicalErrors >= statsU.LogicalErrors {
		t.Fatalf("device-aware weights did not improve decoding: matched %d errors, uniform %d",
			statsDA.LogicalErrors, statsU.LogicalErrors)
	}
}

// The Noise hook must be a strict superset: leaving it nil and setting it
// to a builder that returns the identical uniform Model must produce
// bit-identical points.
func TestNoiseHookNilIsBitIdenticalToUniformBuilder(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	cfg := Config{Shots: 512, Seed: 99, Workers: 2}
	base, err := EstimatePoint(prov, 0.004, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Noise = func(p, idleError float64, idleOnly []int) (noise.Applier, error) {
		return noise.Model{GateError: p, IdleError: idleError, IdleOnly: idleOnly}, nil
	}
	hooked, err := EstimatePoint(prov, 0.004, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base != hooked {
		t.Fatalf("uniform-builder hook changed the result: %+v != %+v", hooked, base)
	}
}
