package circuit

import (
	"strings"
	"testing"
)

func TestBuilderBellCircuit(t *testing.T) {
	b := NewBuilder(2)
	b.Begin().H(0)
	b.Begin().CX(0, 1)
	b.Begin()
	recs := b.M(0, 1)
	b.Detector(recs[0], recs[1])
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", c.Depth())
	}
	if c.NumMeasurements() != 2 {
		t.Errorf("NumMeasurements = %d, want 2", c.NumMeasurements())
	}
	if len(c.Detectors) != 1 || len(c.Detectors[0]) != 2 {
		t.Errorf("Detectors = %v", c.Detectors)
	}
	if c.CountOp(OpCX) != 1 || c.CountOp(OpH) != 1 {
		t.Errorf("op counts CX=%d H=%d", c.CountOp(OpCX), c.CountOp(OpH))
	}
}

func TestRecordIndicesSequential(t *testing.T) {
	b := NewBuilder(4)
	b.Begin()
	r1 := b.M(2)
	b.Begin()
	r2 := b.M(0, 3)
	if r1[0] != 0 || r2[0] != 1 || r2[1] != 2 {
		t.Fatalf("record indices = %v %v, want [0] [1 2]", r1, r2)
	}
	if b.Record() != 3 {
		t.Errorf("Record = %d, want 3", b.Record())
	}
}

func TestValidateRejectsMomentConflict(t *testing.T) {
	b := NewBuilder(3)
	b.Begin().H(0).CX(0, 1) // qubit 0 used twice in one moment
	if _, err := b.Build(); err == nil {
		t.Fatal("conflicting moment accepted")
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.Begin().H(5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
}

func TestValidateRejectsDegeneratePair(t *testing.T) {
	b := NewBuilder(2)
	b.Begin().CX(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("degenerate CX accepted")
	}
}

func TestValidateRejectsOddPairList(t *testing.T) {
	b := NewBuilder(3)
	b.Begin().CX(0, 1, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("odd CX target list accepted")
	}
}

func TestValidateRejectsBadDetector(t *testing.T) {
	b := NewBuilder(1)
	b.Begin()
	b.M(0)
	b.Detector(5)
	if _, err := b.Build(); err == nil {
		t.Fatal("detector referencing missing record accepted")
	}
}

func TestValidateRejectsBadProbability(t *testing.T) {
	b := NewBuilder(1)
	b.Begin().Noise(OpXError, 1.5, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

func TestNoiseDoesNotConflictWithGates(t *testing.T) {
	b := NewBuilder(2)
	b.Begin().CX(0, 1).Noise(OpDepolarize2, 0.01, 0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("noise alongside gates rejected: %v", err)
	}
	if c.CountOp(OpDepolarize2) != 1 {
		t.Errorf("Depolarize2 count = %d", c.CountOp(OpDepolarize2))
	}
}

func TestZeroProbabilityNoiseDropped(t *testing.T) {
	b := NewBuilder(1)
	b.Begin().H(0).Noise(OpXError, 0, 0)
	c := b.MustBuild()
	if c.CountOp(OpXError) != 0 {
		t.Error("zero-probability channel retained")
	}
}

func TestDepthIgnoresNoiseOnlyMoments(t *testing.T) {
	b := NewBuilder(1)
	b.Begin().H(0)
	b.Begin().Noise(OpDepolarize1, 0.1, 0)
	b.Begin().H(0)
	c := b.MustBuild()
	if c.Depth() != 2 {
		t.Errorf("Depth = %d, want 2 (noise-only moment excluded)", c.Depth())
	}
	if len(c.Moments) != 3 {
		t.Errorf("Moments = %d, want 3", len(c.Moments))
	}
}

func TestGatePanicsOnNoiseOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gate(OpXError) did not panic")
		}
	}()
	NewBuilder(1).Begin().Gate(OpXError, 0)
}

func TestNoisePanicsOnGateOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Noise(OpH) did not panic")
		}
	}()
	NewBuilder(1).Begin().Noise(OpH, 0.1, 0)
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpR: "R", OpH: "H", OpCX: "CX", OpM: "M",
		OpDepolarize1: "DEPOLARIZE1", OpDepolarize2: "DEPOLARIZE2",
		OpXError: "X_ERROR", OpZError: "Z_ERROR",
	} {
		if op.String() != want {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
}

func TestCircuitString(t *testing.T) {
	b := NewBuilder(2)
	b.Begin().H(0)
	b.Begin().CX(0, 1)
	c := b.MustBuild()
	s := c.String()
	if !strings.Contains(s, "H [0]") || !strings.Contains(s, "CX [0 1]") {
		t.Errorf("String rendering missing gates:\n%s", s)
	}
}

func TestInstructionTargets(t *testing.T) {
	if (Instruction{Op: OpCX, Qubits: []int{0, 1, 2, 3}}).Targets() != 2 {
		t.Error("CX Targets wrong")
	}
	if (Instruction{Op: OpH, Qubits: []int{0, 1, 2}}).Targets() != 3 {
		t.Error("H Targets wrong")
	}
}

func TestEmptyGateCallIgnored(t *testing.T) {
	b := NewBuilder(1)
	b.Begin().H()
	c := b.MustBuild()
	if len(c.Moments[0].Gates) != 0 {
		t.Error("empty gate call created an instruction")
	}
}
