package device

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"surfstitch/internal/grid"
)

func TestGenerateCalibrationCoversDeviceAndIsReproducible(t *testing.T) {
	dev := Square(3, 3)
	for _, name := range CalibrationSnapshots() {
		cal, err := GenerateCalibration(dev, name, 7)
		if err != nil {
			t.Fatalf("GenerateCalibration(%s): %v", name, err)
		}
		if len(cal.Qubits) != dev.Len() || len(cal.Couplers) != dev.Graph().EdgeCount() {
			t.Fatalf("%s: coverage %d/%d qubits, %d/%d couplers",
				name, len(cal.Qubits), dev.Len(), len(cal.Couplers), dev.Graph().EdgeCount())
		}
		if err := cal.Validate(dev); err != nil {
			t.Fatalf("%s: generated snapshot fails validation: %v", name, err)
		}
		again, err := GenerateCalibration(dev, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cal, again) {
			t.Fatalf("%s: same seed produced different snapshots", name)
		}
		other, err := GenerateCalibration(dev, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(cal, other) {
			t.Fatalf("%s: different seeds produced identical snapshots", name)
		}
	}
	if _, err := GenerateCalibration(dev, "pristine", 1); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("unknown snapshot name error = %v, want ErrBadCalibration", err)
	}
}

func TestWithCalibrationAttachesAndDetaches(t *testing.T) {
	dev := Square(3, 3)
	cal, err := GenerateCalibration(dev, "median", 3)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatalf("WithCalibration: %v", err)
	}
	if calibrated.Calibration() == nil {
		t.Fatal("calibration not attached")
	}
	if !calibrated.HasErrorOverrides() {
		t.Fatal("calibrated device should report error overrides for routing")
	}
	if dev.Calibration() != nil {
		t.Fatal("WithCalibration mutated the source device")
	}
	detached, err := calibrated.WithCalibration(nil)
	if err != nil {
		t.Fatal(err)
	}
	if detached.Calibration() != nil || detached.HasErrorOverrides() {
		t.Fatal("nil snapshot should detach the calibration")
	}
}

func TestCalibrationValidationRejectsBadFigures(t *testing.T) {
	dev := Square(2, 2)
	base, err := GenerateCalibration(dev, "good", 1)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(c *Calibration)) *Calibration {
		c := &Calibration{
			Name:     base.Name,
			Qubits:   append([]QubitCalibration(nil), base.Qubits...),
			Couplers: append([]CouplerCalibration(nil), base.Couplers...),
		}
		f(c)
		return c
	}
	cases := []struct {
		name string
		cal  *Calibration
		want error
	}{
		{"nan T1", mutate(func(c *Calibration) { c.Qubits[0].T1Us = math.NaN() }), ErrBadCalibration},
		{"inf T2", mutate(func(c *Calibration) { c.Qubits[0].T2Us = math.Inf(1) }), ErrBadCalibration},
		{"zero T1", mutate(func(c *Calibration) { c.Qubits[0].T1Us = 0 }), ErrBadCalibration},
		{"T2 above physical bound", mutate(func(c *Calibration) { c.Qubits[0].T2Us = 3 * c.Qubits[0].T1Us }), ErrBadCalibration},
		{"nan 1q fidelity", mutate(func(c *Calibration) { c.Qubits[0].Fidelity1Q = math.NaN() }), ErrBadCalibration},
		{"readout above 1", mutate(func(c *Calibration) { c.Qubits[0].ReadoutError = 1.5 }), ErrBadCalibration},
		{"nan 2q fidelity", mutate(func(c *Calibration) { c.Couplers[0].Fidelity2Q = math.NaN() }), ErrBadCalibration},
		{"negative 2q fidelity", mutate(func(c *Calibration) { c.Couplers[0].Fidelity2Q = -0.1 }), ErrBadCalibration},
		{"duplicate qubit", mutate(func(c *Calibration) { c.Qubits = append(c.Qubits, c.Qubits[0]) }), ErrBadCalibration},
		{"duplicate coupler", mutate(func(c *Calibration) { c.Couplers = append(c.Couplers, c.Couplers[0]) }), ErrBadCalibration},
		{"missing qubit coverage", mutate(func(c *Calibration) { c.Qubits = c.Qubits[1:] }), ErrBadCalibration},
		{"missing coupler coverage", mutate(func(c *Calibration) { c.Couplers = c.Couplers[1:] }), ErrBadCalibration},
		{"unknown qubit", mutate(func(c *Calibration) { c.Qubits[0].At = grid.C(99, 99) }), ErrUnknownQubit},
		{"unknown coupler", mutate(func(c *Calibration) {
			c.Couplers[0].Between = [2]grid.Coord{grid.C(0, 0), grid.C(99, 99)}
		}), ErrUnknownQubit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dev.WithCalibration(tc.cal)
			if !errors.Is(err, tc.want) {
				t.Fatalf("WithCalibration error = %v, want %v", err, tc.want)
			}
			if !IsTyped(err) {
				t.Fatalf("calibration failure must be typed, got %v", err)
			}
		})
	}
}

func TestCalibrationJSONRoundTrip(t *testing.T) {
	dev := Hexagon(4, 4)
	cal, err := GenerateCalibration(dev, "bad", 11)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(calibrated.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCalibration(data)
	if err != nil {
		t.Fatalf("ParseCalibration: %v", err)
	}
	back, err := dev.WithCalibration(parsed)
	if err != nil {
		t.Fatalf("re-attach after round trip: %v", err)
	}
	if !reflect.DeepEqual(calibrated.Calibration(), back.Calibration()) {
		t.Fatal("calibration did not survive a JSON round trip")
	}
}

func TestCalibrationJSONRejectsUnknownFields(t *testing.T) {
	blob := []byte(`{"qubits": [], "couplers": [], "frobnication": 3}`)
	if _, err := ParseCalibration(blob); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("unknown field error = %v, want ErrBadCalibration", err)
	}
	// A misspelled per-entry key must be caught too.
	blob = []byte(`{"qubits": [{"at": [0,0], "t1us": 50}], "couplers": []}`)
	if _, err := ParseCalibration(blob); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("unknown entry field error = %v, want ErrBadCalibration", err)
	}
}

func TestWithDefectsFiltersCalibration(t *testing.T) {
	dev := Square(3, 3)
	cal, err := GenerateCalibration(dev, "median", 5)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	deadAt := dev.Coord(0)
	brokenA, brokenB := dev.Coord(dev.Graph().Edges()[len(dev.Graph().Edges())-1][0]),
		dev.Coord(dev.Graph().Edges()[len(dev.Graph().Edges())-1][1])
	derived, err := calibrated.WithDefects(DefectSet{
		DeadQubits:     []grid.Coord{deadAt},
		BrokenCouplers: [][2]grid.Coord{{brokenA, brokenB}},
	})
	if err != nil {
		t.Fatalf("WithDefects on calibrated device: %v", err)
	}
	got := derived.Calibration()
	if got == nil {
		t.Fatal("calibration lost across WithDefects")
	}
	if err := got.Validate(derived); err != nil {
		t.Fatalf("filtered calibration no longer covers the derived device: %v", err)
	}
	for _, qc := range got.Qubits {
		if qc.At == deadAt {
			t.Fatal("dead qubit's calibration entry survived")
		}
	}
}

func TestWithDefectsRejectsNonFiniteOverrideRates(t *testing.T) {
	dev := Square(2, 2)
	edge := dev.Graph().Edges()[0]
	couplerAt := [2]grid.Coord{dev.Coord(edge[0]), dev.Coord(edge[1])}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := dev.WithDefects(DefectSet{
			QubitErrors: []QubitError{{At: dev.Coord(0), Rate: rate}},
		}); !errors.Is(err, ErrBadDefect) {
			t.Fatalf("qubit override rate %v: error = %v, want ErrBadDefect", rate, err)
		}
		if _, err := dev.WithDefects(DefectSet{
			CouplerErrors: []CouplerError{{Between: couplerAt, Rate: rate}},
		}); !errors.Is(err, ErrBadDefect) {
			t.Fatalf("coupler override rate %v: error = %v, want ErrBadDefect", rate, err)
		}
	}
}

// LoadCalibration reads a snapshot spec (seed 1 by default) or a file.
func TestLoadCalibration(t *testing.T) {
	dev := Square(3, 3)
	want, err := GenerateCalibration(dev, "median", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCalibration(dev, "median:7"); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot spec: err %v, snapshot differs: %v", err, !reflect.DeepEqual(got, want))
	}
	seed1, err := GenerateCalibration(dev, "good", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCalibration(dev, "good"); err != nil || !reflect.DeepEqual(got, seed1) {
		t.Fatalf("default seed: err %v", err)
	}
	if _, err := LoadCalibration(dev, "bad:x"); err == nil {
		t.Fatal("bad seed accepted")
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCalibration(dev, path); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("file: err %v", err)
	}
}
