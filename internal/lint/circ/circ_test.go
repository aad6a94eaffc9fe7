package circ_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/lint/circ"
	"surfstitch/internal/synth"
)

// findRule returns the findings carrying the given rule.
func findRule(fs []circ.Finding, r circ.Rule) []circ.Finding {
	var out []circ.Finding
	for _, f := range fs {
		if f.Rule == r {
			out = append(out, f)
		}
	}
	return out
}

// TestAcceptsConflictFreeSchedule: a well-formed hand-built circuit over a
// square device yields zero findings.
func TestAcceptsConflictFreeSchedule(t *testing.T) {
	dev := device.Square(2, 2)
	g := dev.Graph()
	// Pick a real coupling for the CX.
	var a, b int
	found := false
	for _, e := range g.Edges() {
		a, b = e[0], e[1]
		found = true
		break
	}
	if !found {
		t.Fatal("square device has no couplings")
	}
	bld := circuit.NewBuilder(dev.Len())
	bld.Begin().R(a, b)
	bld.Begin().CX(a, b)
	bld.Begin()
	recs := bld.M(a, b)
	bld.Detector(recs[0], recs[1])
	c, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	if fs := circ.Check(c, g); len(fs) != 0 {
		t.Errorf("clean circuit produced findings: %v", fs)
	}
}

// TestRejectsSameMomentConflict: a moment touching one qubit twice is
// caught statically, without any simulation.
func TestRejectsSameMomentConflict(t *testing.T) {
	c := &circuit.Circuit{
		NumQubits: 3,
		Moments: []circuit.Moment{
			{Gates: []circuit.Instruction{{Op: circuit.OpR, Qubits: []int{0, 1, 2}}}},
			{Gates: []circuit.Instruction{
				{Op: circuit.OpH, Qubits: []int{1}},
				{Op: circuit.OpX, Qubits: []int{1}}, // same-moment collision
			}},
		},
	}
	fs := circ.Check(c, nil)
	hits := findRule(fs, circ.RuleMomentConflict)
	if len(hits) != 1 {
		t.Fatalf("conflict findings = %v, want exactly one", fs)
	}
	if hits[0].Moment != 1 || !strings.Contains(hits[0].Msg, "qubit 1") {
		t.Errorf("finding = %v, want qubit 1 at moment 1", hits[0])
	}
}

// TestRejectsOffDeviceCNOT: a CNOT between non-adjacent qubits of the
// heavy-hexagon device is caught against the coupling graph.
func TestRejectsOffDeviceCNOT(t *testing.T) {
	dev := device.HeavyHexagon(2, 2)
	g := dev.Graph()
	// Find a non-adjacent pair.
	a, b := -1, -1
	for i := 0; i < dev.Len() && a < 0; i++ {
		for j := i + 1; j < dev.Len(); j++ {
			if !g.HasEdge(i, j) {
				a, b = i, j
				break
			}
		}
	}
	if a < 0 {
		t.Fatal("heavy-hexagon device is fully connected?")
	}
	c := &circuit.Circuit{
		NumQubits: dev.Len(),
		Moments: []circuit.Moment{
			{Gates: []circuit.Instruction{{Op: circuit.OpR, Qubits: []int{a, b}}}},
			{Gates: []circuit.Instruction{{Op: circuit.OpCX, Qubits: []int{a, b}}}},
		},
	}
	fs := circ.Check(c, g)
	hits := findRule(fs, circ.RuleOffDevice)
	if len(hits) != 1 {
		t.Fatalf("off-device findings = %v, want exactly one", fs)
	}
	want := fmt.Sprintf("(%d,%d)", a, b)
	if hits[0].Moment != 1 || !strings.Contains(hits[0].Msg, want) {
		t.Errorf("finding = %v, want pair %s at moment 1", hits[0], want)
	}
	// The same circuit with the device view withheld passes: the rule is
	// explicitly device-scoped.
	if fs := circ.Check(c, nil); len(findRule(fs, circ.RuleOffDevice)) != 0 {
		t.Error("off-device rule fired without a device")
	}
}

// TestRejectsMeasureBeforeReset: measuring a qubit no earlier moment
// reset is caught by the forward data-flow walk.
func TestRejectsMeasureBeforeReset(t *testing.T) {
	c := &circuit.Circuit{
		NumQubits: 2,
		Moments: []circuit.Moment{
			{Gates: []circuit.Instruction{{Op: circuit.OpR, Qubits: []int{0}}}},
			{Gates: []circuit.Instruction{{Op: circuit.OpM, Qubits: []int{0, 1}}}},
		},
	}
	fs := circ.Check(c, nil)
	hits := findRule(fs, circ.RuleUnreset)
	if len(hits) != 1 || !strings.Contains(hits[0].Msg, "qubit 1") {
		t.Fatalf("unreset findings = %v, want exactly one about qubit 1", fs)
	}
}

// TestRejectsMalformedDetectors covers the record-annotation rules:
// out-of-bounds, duplicate and empty reference sets.
func TestRejectsMalformedDetectors(t *testing.T) {
	c := &circuit.Circuit{
		NumQubits: 1,
		Moments: []circuit.Moment{
			{Gates: []circuit.Instruction{{Op: circuit.OpR, Qubits: []int{0}}}},
			{Gates: []circuit.Instruction{{Op: circuit.OpM, Qubits: []int{0}}}},
		},
		Detectors:   [][]int{{0}, {1}, {0, 0}, {}},
		Observables: [][]int{{-1}},
	}
	fs := findRule(circ.Check(c, nil), circ.RuleDetector)
	var msgs []string
	for _, f := range fs {
		msgs = append(msgs, f.Msg)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"detector 1 references record 1 outside [0,1)",
		"detector 2 references record 0 twice",
		"detector 3 is empty",
		"observable 0 references record -1 outside [0,1)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
	if len(fs) != 4 {
		t.Errorf("got %d detector findings, want 4:\n%s", len(fs), joined)
	}
}

// TestAcceptsSynthesizedMemories is the paper-facing acceptance bar: the
// synthesized d=3 and d=5 memory circuits on all five Table-1 tilings
// must pass the static checker against their own device graphs.
func TestAcceptsSynthesizedMemories(t *testing.T) {
	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5} {
			kind, d := kind, d
			t.Run(fmt.Sprintf("%v/d%d", kind, d), func(t *testing.T) {
				t.Parallel()
				_, layout, err := synth.FitDevice(kind, d, synth.ModeDefault)
				if err != nil {
					t.Fatalf("fit: %v", err)
				}
				s, err := synth.SynthesizeOnLayout(context.Background(), layout, synth.Options{})
				if err != nil {
					t.Fatalf("synthesize: %v", err)
				}
				// SkipVerify: this test wants the static verdict alone,
				// not the determinism check.
				mem, err := experiment.NewMemory(s, 3*d, experiment.Options{SkipVerify: true})
				if err != nil {
					t.Fatalf("memory: %v", err)
				}
				if fs := circ.Check(mem.Circuit, s.Layout.Dev.Graph()); len(fs) != 0 {
					t.Errorf("static findings on synthesized memory:\n%v", fs)
				}
			})
		}
	}
}
