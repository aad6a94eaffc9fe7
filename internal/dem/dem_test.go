package dem

import (
	"fmt"
	"math"
	"testing"

	"surfstitch/internal/circuit"
)

func TestSingleXErrorBeforeMeasurement(t *testing.T) {
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpXError, 0.25, 0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 1 {
		t.Fatalf("mechanisms = %d, want 1", len(m.Mechanisms))
	}
	mech := m.Mechanisms[0]
	if len(mech.Detectors) != 1 || mech.Detectors[0] != 0 {
		t.Errorf("detectors = %v, want [0]", mech.Detectors)
	}
	if mech.Prob != 0.25 {
		t.Errorf("prob = %g, want 0.25", mech.Prob)
	}
	if mech.Obs != 0 {
		t.Errorf("obs = %b, want 0", mech.Obs)
	}
}

func TestZErrorBeforeZMeasurementIsHarmless(t *testing.T) {
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpZError, 0.5, 0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 0 {
		t.Fatalf("harmless Z error produced mechanisms: %v", m.Mechanisms)
	}
}

func TestDepolarize1Decomposition(t *testing.T) {
	// Depolarize1 on a qubit measured in Z: X and Y components flip the
	// record; Z is harmless. X and Y share the signature -> merged: prob
	// combination of p/3 and p/3.
	p := 0.3
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpDepolarize1, p, 0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 1 {
		t.Fatalf("mechanisms = %d, want 1 (X and Y merged)", len(m.Mechanisms))
	}
	q := p / 3
	want := q + q - 2*q*q
	if math.Abs(m.Mechanisms[0].Prob-want) > 1e-12 {
		t.Errorf("prob = %g, want %g", m.Mechanisms[0].Prob, want)
	}
}

func TestDepolarize2SignatureSplit(t *testing.T) {
	// Depolarize2 on two qubits both measured in Z: signatures are subsets
	// of {det0, det1}; X components on a flip det0, on b flip det1.
	// Of the 15 Paulis: 8 have X-component on a (flip det0), 8 on b.
	b := circuit.NewBuilder(2)
	b.Begin().Noise(circuit.OpDepolarize2, 0.15, 0, 1)
	b.Begin()
	recs := b.M(0, 1)
	b.Detector(recs[0])
	b.Detector(recs[1])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	// Expected signatures: {0}, {1}, {0,1} (pure-Z components are harmless).
	if len(m.Mechanisms) != 3 {
		t.Fatalf("mechanisms = %d, want 3: %v", len(m.Mechanisms), m.Mechanisms)
	}
	bySig := map[string]float64{}
	for _, mech := range m.Mechanisms {
		bySig[fmt.Sprint(mech.Detectors, mech.Obs)] = mech.Prob
	}
	// Each signature class contains 4 of the 15 components: e.g. {0} comes
	// from Xa{I,Z}b combinations: XI, XZ, YI, YZ.
	q := 0.15 / 15
	var want float64
	for i := 0; i < 4; i++ {
		want = want + q - 2*want*q
	}
	for sig, p := range bySig {
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("signature %s prob = %g, want %g", sig, p, want)
		}
	}
}

func TestObservableAttribution(t *testing.T) {
	b := circuit.NewBuilder(2)
	b.Begin().Noise(circuit.OpXError, 0.1, 0)
	b.Begin().CX(0, 1)
	b.Begin()
	recs := b.M(0, 1)
	b.Detector(recs[0], recs[1]) // parity unchanged by propagated X
	b.Observable(recs[1])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	// X on 0 spreads to both qubits: detector (parity) silent, observable flips.
	if len(m.Mechanisms) != 1 {
		t.Fatalf("mechanisms = %v", m.Mechanisms)
	}
	mech := m.Mechanisms[0]
	if len(mech.Detectors) != 0 || mech.Obs != 1 {
		t.Errorf("mechanism = %+v, want undetectable observable flip", mech)
	}
}

func TestMergeAcrossChannels(t *testing.T) {
	// Two independent X error channels on the same qubit merge into one
	// mechanism with XOR-combined probability.
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpXError, 0.1, 0)
	b.Begin().Noise(circuit.OpXError, 0.2, 0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 1 {
		t.Fatalf("mechanisms = %d, want 1", len(m.Mechanisms))
	}
	want := 0.1 + 0.2 - 2*0.1*0.2
	if math.Abs(m.Mechanisms[0].Prob-want) > 1e-12 {
		t.Errorf("prob = %g, want %g", m.Mechanisms[0].Prob, want)
	}
}

func TestRepetitionCodeModelShape(t *testing.T) {
	// One round of two Z-parity checks over 3 data qubits with X noise on
	// data: data 0 -> det 0, data 1 -> dets {0,1}, data 2 -> det 1.
	b := circuit.NewBuilder(5)
	b.Begin().Noise(circuit.OpXError, 0.01, 0, 1, 2)
	b.Begin().R(3, 4)
	b.Begin().CX(0, 3, 1, 4)
	b.Begin().CX(1, 3, 2, 4)
	b.Begin()
	recs := b.M(3, 4)
	b.Detector(recs[0])
	b.Detector(recs[1])
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 3 {
		t.Fatalf("mechanisms = %d, want 3", len(m.Mechanisms))
	}
	if m.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", m.MaxDegree())
	}
}

func TestNoiselessCircuitEmptyModel(t *testing.T) {
	b := circuit.NewBuilder(1)
	b.Begin().H(0)
	b.Begin()
	b.M(0)
	c := b.MustBuild()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 0 {
		t.Error("noiseless circuit produced mechanisms")
	}
	if m.TotalErrorProbability() != 0 {
		t.Error("TotalErrorProbability != 0 for empty model")
	}
}

func TestDeterministicOutput(t *testing.T) {
	b := circuit.NewBuilder(2)
	b.Begin().Noise(circuit.OpDepolarize2, 0.02, 0, 1)
	b.Begin().CX(0, 1)
	b.Begin()
	recs := b.M(0, 1)
	b.Detector(recs[0])
	b.Detector(recs[1])
	c := b.MustBuild()
	m1, _ := FromCircuit(c)
	m2, _ := FromCircuit(c)
	if len(m1.Mechanisms) != len(m2.Mechanisms) {
		t.Fatal("model not deterministic")
	}
	for i := range m1.Mechanisms {
		a, bm := m1.Mechanisms[i], m2.Mechanisms[i]
		if fmt.Sprint(a.Detectors, a.Obs) != fmt.Sprint(bm.Detectors, bm.Obs) || a.Prob != bm.Prob {
			t.Fatal("model ordering or probabilities not deterministic")
		}
	}
}
