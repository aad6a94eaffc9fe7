package verify

import (
	"context"
	"strings"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/grid"
	"surfstitch/internal/synth"
)

func TestAllStandardSynthesesPass(t *testing.T) {
	cases := []struct {
		name string
		dev  *device.Device
		mode synth.Mode
	}{
		{"square-4", device.Square(6, 6), synth.ModeFour},
		{"heavy-square", device.HeavySquare(5, 4), synth.ModeDefault},
	}
	for _, c := range cases {
		s, err := synth.Synthesize(context.Background(), c.dev, 3, synth.Options{Mode: c.mode})
		if err != nil {
			t.Fatal(err)
		}
		rep := Synthesis(s, Options{})
		if !rep.Pass() {
			t.Errorf("%s failed verification:\n%s", c.name, rep)
		}
		if !strings.Contains(rep.String(), "PASS") {
			t.Errorf("%s report missing PASS:\n%s", c.name, rep)
		}
	}
}

func TestVerticalHookLayoutFlagged(t *testing.T) {
	// The transposed heavy-square device only admits the vertical-hook
	// orientation at distance 5; verification must flag it.
	layout, err := synth.Allocate(context.Background(), device.HeavySquare(4, 5), 5, synth.ModeDefault)
	if err != nil {
		t.Fatal(err)
	}
	s, err := synth.SynthesizeOnLayout(context.Background(), layout, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Synthesis(s, Options{Rounds: 3})
	if rep.VerticalXHooks == 0 {
		t.Error("vertical hooks not detected on the transposed layout")
	}
	if rep.Pass() {
		t.Error("vertical-hook layout passed verification")
	}
	if !strings.Contains(rep.String(), "FAIL") {
		t.Error("report missing FAIL")
	}
}

func TestReportFieldsPopulated(t *testing.T) {
	s, err := synth.Synthesize(context.Background(), device.Square(6, 6), 3, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	rep := Synthesis(s, Options{Rounds: 2, GateError: 0.002})
	if rep.SingleFaultTotal == 0 {
		t.Error("no single faults analyzed")
	}
	if !rep.Deterministic {
		t.Error("determinism not established")
	}
	if rep.UndetectableLogical {
		t.Error("unexpected undetectable logicals")
	}
	if len(rep.Structural) != 0 {
		t.Errorf("structural problems: %v", rep.Structural)
	}
	if rep.ClaimedDistance != 3 {
		t.Errorf("claimed distance = %d, want 3", rep.ClaimedDistance)
	}
	if rep.CertifiedDistance != 3 {
		t.Errorf("certified distance = %d, want 3", rep.CertifiedDistance)
	}
	if len(rep.DistanceWitness) != rep.CertifiedDistance {
		t.Errorf("witness has %d faults, want %d", len(rep.DistanceWitness), rep.CertifiedDistance)
	}
	if rep.DistanceHookMismatch != "" {
		t.Errorf("unexpected hook mismatch: %s", rep.DistanceHookMismatch)
	}
	if rep.MaxMisdecodeRatio != DefaultMaxMisdecodeRatio {
		t.Errorf("misdecode ratio = %v, want default %v", rep.MaxMisdecodeRatio, DefaultMaxMisdecodeRatio)
	}
}

func TestPassGatesOnCertifiedDistance(t *testing.T) {
	base := Report{Deterministic: true, SingleFaultTotal: 100}
	if !base.Pass() {
		t.Fatal("baseline report should pass")
	}

	r := base
	r.ClaimedDistance, r.CertifiedDistance = 3, 2
	if r.Pass() {
		t.Error("certified below claimed must fail")
	}
	r.CertifiedDistance = 3
	if !r.Pass() {
		t.Error("certified == claimed must pass")
	}
	r.CertifiedDistance = 0 // no undetectable logical fault set at all
	if !r.Pass() {
		t.Error("certified 0 (no logical faults) must pass")
	}
	r.DistanceHookMismatch = "heuristic disagrees"
	if r.Pass() {
		t.Error("hook/certificate mismatch must fail")
	}
}

func TestMaxMisdecodeRatio(t *testing.T) {
	r := Report{Deterministic: true, SingleFaultTotal: 100, SingleFaultMisdecoded: 5}
	if r.Pass() {
		t.Error("5% misdecodes must fail the default 2% bar")
	}
	r.MaxMisdecodeRatio = 0.10
	if !r.Pass() {
		t.Error("5% misdecodes must pass a 10% bar")
	}
	r.MaxMisdecodeRatio = 0.01
	if r.Pass() {
		t.Error("5% misdecodes must fail a 1% bar")
	}

	// Options plumb the ratio into the report.
	s, err := synth.Synthesize(context.Background(), device.Square(6, 6), 3, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	rep := Synthesis(s, Options{Rounds: 2, MaxMisdecodeRatio: 0.5})
	if rep.MaxMisdecodeRatio != 0.5 {
		t.Errorf("ratio not plumbed: got %v", rep.MaxMisdecodeRatio)
	}
}

func TestStaticPreGateRejectsOffDeviceCoupling(t *testing.T) {
	// Synthesize on the full square device, then swap in a replacement
	// device missing one coupling the bridge trees use. The static
	// circuit-IR pre-gate must catch the off-device CNOTs and bail before
	// the stabilizer-simulation stages run.
	s, err := synth.Synthesize(context.Background(), device.Square(6, 6), 3, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	dev := s.Layout.Dev
	drop := s.Trees[0].Edges()[0]
	var coords []grid.Coord
	for q := 0; q < dev.Len(); q++ {
		coords = append(coords, dev.Coord(q))
	}
	var couplings [][2]grid.Coord
	for _, e := range dev.Graph().Edges() {
		if (e[0] == drop[0] && e[1] == drop[1]) || (e[0] == drop[1] && e[1] == drop[0]) {
			continue
		}
		couplings = append(couplings, [2]grid.Coord{dev.Coord(e[0]), dev.Coord(e[1])})
	}
	smaller, err := device.FromGraph("square-minus-one", coords, couplings)
	if err != nil {
		t.Fatal(err)
	}
	s.Layout.Dev = smaller

	rep := Synthesis(s, Options{Rounds: 2})
	if len(rep.Static) == 0 {
		t.Fatal("missing coupling not caught by the static pre-gate")
	}
	if !strings.Contains(strings.Join(rep.Static, "\n"), "off-device-gate") {
		t.Errorf("static findings lack the off-device rule: %v", rep.Static)
	}
	if rep.Deterministic {
		t.Error("expensive determinism stage ran despite static findings")
	}
	if rep.Pass() {
		t.Error("off-device synthesis passed verification")
	}
	if !strings.Contains(rep.String(), "static:") {
		t.Error("report missing static section")
	}
}

func TestStructuralProblemsReported(t *testing.T) {
	// Corrupt a synthesis: duplicate a plan in the schedule.
	s, err := synth.Synthesize(context.Background(), device.Square(6, 6), 3, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule = append(s.Schedule, s.Schedule[0])
	rep := Synthesis(s, Options{Rounds: 2})
	if len(rep.Structural) == 0 {
		t.Error("corrupted schedule not reported")
	}
	if rep.Pass() {
		t.Error("corrupted synthesis passed")
	}
	if !strings.Contains(rep.String(), "structural") {
		t.Error("report missing structural section")
	}
}
