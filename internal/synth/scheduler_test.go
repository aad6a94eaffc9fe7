package synth

import (
	"testing"

	"surfstitch/internal/code"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/graph"
)

// makePlan builds a weight-2 plan of the given type whose bridge path runs
// through the given bridge qubits (data qubits are the path endpoints).
func makePlan(t *testing.T, typ code.StabType, data [2]int, bridges []int) *flagbridge.Plan {
	t.Helper()
	nodes := append([]int{data[0]}, bridges...)
	nodes = append(nodes, data[1])
	var edges [][2]int
	for i := 0; i+1 < len(nodes); i++ {
		edges = append(edges, [2]int{nodes[i], nodes[i+1]})
	}
	tree, err := graph.BuildTree(bridges[len(bridges)/2], edges)
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[int]flagbridge.Direction{data[0]: flagbridge.NW, data[1]: flagbridge.SE}
	p, err := flagbridge.NewPlan(typ, tree, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInitialScheduleSeparatesTypes(t *testing.T) {
	x1 := makePlan(t, code.StabX, [2]int{0, 2}, []int{1})
	x2 := makePlan(t, code.StabX, [2]int{3, 5}, []int{4})
	z1 := makePlan(t, code.StabZ, [2]int{6, 8}, []int{7})
	sched := InitialSchedule([]*flagbridge.Plan{x1, z1, x2})
	if len(sched) != 2 {
		t.Fatalf("sets = %d, want 2", len(sched))
	}
	if len(sched[0]) != 2 || sched[0][0].Type != code.StabX {
		t.Errorf("first set should hold the two X plans")
	}
	if len(sched[1]) != 1 || sched[1][0].Type != code.StabZ {
		t.Errorf("second set should hold the Z plan")
	}
}

func TestInitialScheduleSpillsConflicts(t *testing.T) {
	// Two X plans sharing bridge qubit 1 cannot share a set.
	x1 := makePlan(t, code.StabX, [2]int{0, 2}, []int{1})
	x2 := makePlan(t, code.StabX, [2]int{3, 2}, []int{1}) // same bridge
	sched := InitialSchedule([]*flagbridge.Plan{x1, x2})
	if len(sched) != 2 {
		t.Fatalf("sets = %d, want 2 (conflict spill)", len(sched))
	}
	if err := sched.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySchedulePacksCompatible(t *testing.T) {
	// Four mutually compatible plans of mixed types pack into one set.
	plans := []*flagbridge.Plan{
		makePlan(t, code.StabX, [2]int{0, 2}, []int{1}),
		makePlan(t, code.StabZ, [2]int{3, 5}, []int{4}),
		makePlan(t, code.StabX, [2]int{6, 8}, []int{7}),
		makePlan(t, code.StabZ, [2]int{9, 11}, []int{10}),
	}
	sched := GreedySchedule(plans)
	if len(sched) != 1 {
		t.Fatalf("sets = %d, want 1", len(sched))
	}
	if err := sched.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyScheduleOrdersLargestFirst(t *testing.T) {
	small := makePlan(t, code.StabX, [2]int{0, 2}, []int{1})
	big := makePlan(t, code.StabZ, [2]int{3, 7}, []int{4, 5, 6})
	sched := GreedySchedule([]*flagbridge.Plan{small, big})
	if len(sched) != 1 {
		t.Fatalf("sets = %d, want 1", len(sched))
	}
	if sched[0][0] != big {
		t.Error("largest plan should be placed first")
	}
}

func TestScheduleTotalSteps(t *testing.T) {
	p := makePlan(t, code.StabX, [2]int{0, 2}, []int{1})
	sched := Schedule{{p}, {p}}
	if sched.TotalSteps() != 2*flagbridge.SetDepth([]*flagbridge.Plan{p}) {
		t.Error("TotalSteps should sum set depths")
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	p := makePlan(t, code.StabX, [2]int{0, 2}, []int{1})
	sched := Schedule{{p}, {p}}
	if err := sched.Validate(2); err == nil {
		t.Error("duplicated plan accepted")
	}
}

func TestValidateCatchesConflicts(t *testing.T) {
	x1 := makePlan(t, code.StabX, [2]int{0, 2}, []int{1})
	x2 := makePlan(t, code.StabX, [2]int{3, 2}, []int{1})
	sched := Schedule{{x1, x2}}
	if err := sched.Validate(2); err == nil {
		t.Error("conflicting set accepted")
	}
}

func TestRefineScheduleNeverWorsens(t *testing.T) {
	// Build a scenario like the paper's Figure 7: mixed sizes where moving
	// the large Z plan into the X set shortens the total.
	bigX := makePlan(t, code.StabX, [2]int{0, 4}, []int{1, 2, 3})
	smallX := makePlan(t, code.StabX, [2]int{5, 7}, []int{6})
	bigZ := makePlan(t, code.StabZ, [2]int{8, 12}, []int{9, 10, 11})
	smallZ := makePlan(t, code.StabZ, [2]int{13, 15}, []int{14})
	plans := []*flagbridge.Plan{bigX, smallX, bigZ, smallZ}
	initial := InitialSchedule(plans)
	refined := RefineSchedule(initial)
	if refined.TotalSteps() > initial.TotalSteps() {
		t.Errorf("refinement worsened: %d -> %d", initial.TotalSteps(), refined.TotalSteps())
	}
	if err := refined.Validate(4); err != nil {
		t.Fatal(err)
	}
	best := BestSchedule(plans)
	if best.TotalSteps() > refined.TotalSteps() {
		t.Errorf("BestSchedule (%d) worse than refined (%d)", best.TotalSteps(), refined.TotalSteps())
	}
}

func TestBestScheduleBeatsLargeCircuitSplit(t *testing.T) {
	// Two deep plans of different types and two shallow ones: executing the
	// deep pair together (one set) and the shallow pair together (another)
	// beats the X/Z split.
	deepX := makePlan(t, code.StabX, [2]int{0, 6}, []int{1, 2, 3, 4, 5})
	shalX := makePlan(t, code.StabX, [2]int{7, 9}, []int{8})
	deepZ := makePlan(t, code.StabZ, [2]int{10, 16}, []int{11, 12, 13, 14, 15})
	shalZ := makePlan(t, code.StabZ, [2]int{17, 19}, []int{18})
	plans := []*flagbridge.Plan{deepX, shalX, deepZ, shalZ}
	initial := InitialSchedule(plans)
	best := BestSchedule(plans)
	if best.TotalSteps() >= initial.TotalSteps() {
		t.Errorf("BestSchedule did not improve on X/Z split: %d vs %d",
			best.TotalSteps(), initial.TotalSteps())
	}
}
