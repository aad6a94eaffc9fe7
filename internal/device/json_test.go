package device

import (
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := HeavySquare(3, 2)
	blob, err := ToJSON(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("qubits %d != %d", back.Len(), orig.Len())
	}
	if back.Graph().EdgeCount() != orig.Graph().EdgeCount() {
		t.Fatalf("edges %d != %d", back.Graph().EdgeCount(), orig.Graph().EdgeCount())
	}
	// Structure preserved: every original coupling exists in the round trip
	// (qubit ids are stable because both sort by coordinate).
	for _, e := range orig.Graph().Edges() {
		if !back.Graph().HasEdge(e[0], e[1]) {
			t.Fatalf("coupling %v lost", e)
		}
	}
	if back.Name() != orig.Name() {
		t.Errorf("name %q != %q", back.Name(), orig.Name())
	}
}

func TestFromJSONErrors(t *testing.T) {
	if _, err := FromJSON([]byte("{nope")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := FromJSON([]byte(`{"qubits":[[0,0]],"couplings":[[0,5]]}`)); err == nil {
		t.Error("dangling coupling accepted")
	}
	d, err := FromJSON([]byte(`{"qubits":[[0,0],[1,0]],"couplings":[[0,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "custom" || d.Len() != 2 {
		t.Errorf("defaulted device wrong: %v", d)
	}
}

// FuzzDefectSetJSON loads arbitrary bytes the way the CLI's -defects file
// loader does — DefectSet.UnmarshalJSON called directly, since
// json.Unmarshal would answer malformed input with its own untyped syntax
// error before calling the method — and applies the set to a square 4x4
// device. Neither step may panic, and every error must be typed.
func FuzzDefectSetJSON(f *testing.F) {
	dev := Square(4, 4)
	for _, gen := range GeneratorNames() {
		ds, err := GenerateDefects(dev, gen, 0.2, 1)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := ds.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, seed := range []string{
		`{}`,
		`{"deadQubits":[[9,9]]}`,
		`{"brokenCouplers":[[[0,0],[2,2]]]}`,
		`{"qubitErrors":[{"at":[0,0],"rate":1.5}]}`,
		`{"couplerErrors":[{"between":[[0,0],[0,0]],"rate":0.1}]}`,
		`{"deadQubit":[[0,0]]}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var ds DefectSet
		if err := ds.UnmarshalJSON(blob); err != nil {
			if !IsTyped(err) {
				t.Fatalf("UnmarshalJSON(%q) = untyped error %v", blob, err)
			}
			return
		}
		if _, err := dev.WithDefects(ds); err != nil && !IsTyped(err) {
			t.Fatalf("WithDefects(%q) = untyped error %v", blob, err)
		}
	})
}
