package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"surfstitch/internal/grid"
)

// ErrBadCalibration: a calibration snapshot is malformed — a non-finite or
// out-of-range figure, a duplicate entry, or incomplete device coverage.
var ErrBadCalibration = errors.New("invalid calibration")

// Calibration is a full calibration snapshot of a device: per-qubit
// coherence times, single-qubit gate fidelity and readout error, plus
// per-coupler two-qubit gate fidelity. Entries are keyed by grid
// coordinates — the currency of a hardware team's calibration export — so a
// snapshot is meaningful independent of qubit numbering. A snapshot must
// cover every qubit and every coupler of the device it is attached to:
// partial calibrations are rejected rather than silently mixed with
// defaults.
type Calibration struct {
	// Name labels the snapshot (e.g. a preset name or an export date).
	Name string
	// Qubits holds one entry per device qubit, sorted row-major after
	// WithCalibration canonicalizes the snapshot.
	Qubits []QubitCalibration
	// Couplers holds one entry per device coupler, endpoints normalized and
	// sorted after canonicalization.
	Couplers []CouplerCalibration
}

// QubitCalibration is the calibration record of one qubit.
type QubitCalibration struct {
	At grid.Coord
	// T1Us and T2Us are the relaxation and dephasing times in microseconds.
	T1Us float64
	T2Us float64
	// Fidelity1Q is the average single-qubit gate fidelity in [0, 1].
	Fidelity1Q float64
	// ReadoutError is the measurement assignment error probability in [0, 1].
	ReadoutError float64
}

// CouplerCalibration is the calibration record of one coupler.
type CouplerCalibration struct {
	Between [2]grid.Coord
	// Fidelity2Q is the average two-qubit gate fidelity in [0, 1].
	Fidelity2Q float64
}

// WithCalibration derives a new device carrying the calibration snapshot.
// The snapshot is validated strictly against this device (finite in-range
// figures, no duplicates, full qubit and coupler coverage) and stored in
// canonical row-major order so downstream hashing is deterministic. A nil
// snapshot detaches any existing calibration.
func (d *Device) WithCalibration(cal *Calibration) (*Device, error) {
	out := *d
	if cal == nil {
		out.cal = nil
		return &out, nil
	}
	canon, err := cal.canonical(d)
	if err != nil {
		return nil, err
	}
	out.cal = canon
	return &out, nil
}

// Calibration returns the attached calibration snapshot, or nil for an
// uncalibrated device. The snapshot is shared, not copied; callers must not
// mutate it.
func (d *Device) Calibration() *Calibration { return d.cal }

// canonical validates the snapshot against the device and returns a sorted
// copy: qubits in row-major coordinate order, coupler endpoints normalized
// and sorted likewise.
func (c *Calibration) canonical(d *Device) (*Calibration, error) {
	if err := c.Validate(d); err != nil {
		return nil, err
	}
	out := &Calibration{
		Name:     c.Name,
		Qubits:   append([]QubitCalibration(nil), c.Qubits...),
		Couplers: make([]CouplerCalibration, 0, len(c.Couplers)),
	}
	sort.Slice(out.Qubits, func(i, j int) bool { return out.Qubits[i].At.Less(out.Qubits[j].At) })
	for _, cc := range c.Couplers {
		key := normalizeCouplingKey(cc.Between[0], cc.Between[1])
		cc.Between = key
		out.Couplers = append(out.Couplers, cc)
	}
	sort.Slice(out.Couplers, func(i, j int) bool {
		a, b := out.Couplers[i].Between, out.Couplers[j].Between
		if a[0] != b[0] {
			return a[0].Less(b[0])
		}
		return a[1].Less(b[1])
	})
	return out, nil
}

// Validate checks the snapshot against a device: every figure finite and in
// range (T1, T2 positive with T2 <= 2*T1; fidelities and readout error in
// [0, 1]), every coordinate resolving to a device element, no duplicate
// entries, and full coverage of the device's qubits and couplers. All
// failures are typed (ErrBadCalibration, ErrUnknownQubit,
// ErrUnknownCoupling).
func (c *Calibration) Validate(d *Device) error {
	seenQ := make(map[grid.Coord]bool, len(c.Qubits))
	for _, qc := range c.Qubits {
		if _, ok := d.byCoord[qc.At]; !ok {
			return fmt.Errorf("device: calibration lists %w %v", ErrUnknownQubit, qc.At)
		}
		if seenQ[qc.At] {
			return fmt.Errorf("device: %w: duplicate qubit entry %v", ErrBadCalibration, qc.At)
		}
		seenQ[qc.At] = true
		// Containment checks (not exclusion) so NaN is rejected too.
		if !(qc.T1Us > 0 && qc.T1Us < math.Inf(1)) {
			return fmt.Errorf("device: %w: qubit %v T1 %gus not a positive finite time", ErrBadCalibration, qc.At, qc.T1Us)
		}
		if !(qc.T2Us > 0 && qc.T2Us < math.Inf(1)) {
			return fmt.Errorf("device: %w: qubit %v T2 %gus not a positive finite time", ErrBadCalibration, qc.At, qc.T2Us)
		}
		if qc.T2Us > 2*qc.T1Us {
			return fmt.Errorf("device: %w: qubit %v T2 %gus exceeds physical bound 2*T1 (%gus)",
				ErrBadCalibration, qc.At, qc.T2Us, 2*qc.T1Us)
		}
		if !(qc.Fidelity1Q >= 0 && qc.Fidelity1Q <= 1) {
			return fmt.Errorf("device: %w: qubit %v 1q fidelity %g outside [0,1]", ErrBadCalibration, qc.At, qc.Fidelity1Q)
		}
		if !(qc.ReadoutError >= 0 && qc.ReadoutError <= 1) {
			return fmt.Errorf("device: %w: qubit %v readout error %g outside [0,1]", ErrBadCalibration, qc.At, qc.ReadoutError)
		}
	}
	if len(c.Qubits) != d.Len() {
		return fmt.Errorf("device: %w: snapshot covers %d of %d qubits", ErrBadCalibration, len(c.Qubits), d.Len())
	}
	seenC := make(map[[2]grid.Coord]bool, len(c.Couplers))
	for _, cc := range c.Couplers {
		if err := d.checkCoupling(cc.Between[0], cc.Between[1]); err != nil {
			return fmt.Errorf("device: calibration coupler: %w", err)
		}
		key := normalizeCouplingKey(cc.Between[0], cc.Between[1])
		if seenC[key] {
			return fmt.Errorf("device: %w: duplicate coupler entry %v-%v", ErrBadCalibration, cc.Between[0], cc.Between[1])
		}
		seenC[key] = true
		if !(cc.Fidelity2Q >= 0 && cc.Fidelity2Q <= 1) {
			return fmt.Errorf("device: %w: coupler %v-%v 2q fidelity %g outside [0,1]",
				ErrBadCalibration, cc.Between[0], cc.Between[1], cc.Fidelity2Q)
		}
	}
	if len(c.Couplers) != d.g.EdgeCount() {
		return fmt.Errorf("device: %w: snapshot covers %d of %d couplers", ErrBadCalibration, len(c.Couplers), d.g.EdgeCount())
	}
	return nil
}

// jsonCalibration is the interchange schema of a Calibration snapshot.
type jsonCalibration struct {
	Name     string           `json:"name,omitempty"`
	Qubits   []jsonQubitCal   `json:"qubits"`
	Couplers []jsonCouplerCal `json:"couplers"`
}

type jsonQubitCal struct {
	At           [2]int  `json:"at"`
	T1Us         float64 `json:"t1_us"`
	T2Us         float64 `json:"t2_us"`
	Fidelity1Q   float64 `json:"fidelity_1q"`
	ReadoutError float64 `json:"readout_error"`
}

type jsonCouplerCal struct {
	Between    [2][2]int `json:"between"`
	Fidelity2Q float64   `json:"fidelity_2q"`
}

// MarshalJSON renders the snapshot in the coordinate-pair schema.
func (c Calibration) MarshalJSON() ([]byte, error) {
	out := jsonCalibration{Name: c.Name}
	for _, qc := range c.Qubits {
		out.Qubits = append(out.Qubits, jsonQubitCal{
			At:   [2]int{qc.At.X, qc.At.Y},
			T1Us: qc.T1Us, T2Us: qc.T2Us,
			Fidelity1Q: qc.Fidelity1Q, ReadoutError: qc.ReadoutError,
		})
	}
	for _, cc := range c.Couplers {
		out.Couplers = append(out.Couplers, jsonCouplerCal{
			Between: [2][2]int{
				{cc.Between[0].X, cc.Between[0].Y},
				{cc.Between[1].X, cc.Between[1].Y},
			},
			Fidelity2Q: cc.Fidelity2Q,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the coordinate-pair schema. Unknown fields are
// rejected (ErrBadCalibration): a misspelled key in a calibration export
// would otherwise silently calibrate nothing. Range validation happens when
// the snapshot is attached to a device (WithCalibration), where coverage
// can be checked too.
func (c *Calibration) UnmarshalJSON(data []byte) error {
	var in jsonCalibration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("device: calibration: %w: %v", ErrBadCalibration, err)
	}
	*c = Calibration{Name: in.Name}
	for _, qc := range in.Qubits {
		c.Qubits = append(c.Qubits, QubitCalibration{
			At:   grid.C(qc.At[0], qc.At[1]),
			T1Us: qc.T1Us, T2Us: qc.T2Us,
			Fidelity1Q: qc.Fidelity1Q, ReadoutError: qc.ReadoutError,
		})
	}
	for _, cc := range in.Couplers {
		c.Couplers = append(c.Couplers, CouplerCalibration{
			Between: [2]grid.Coord{
				grid.C(cc.Between[0][0], cc.Between[0][1]),
				grid.C(cc.Between[1][0], cc.Between[1][1]),
			},
			Fidelity2Q: cc.Fidelity2Q,
		})
	}
	return nil
}

// ParseCalibration decodes a calibration snapshot from JSON without
// attaching it to a device. Validation against a concrete device happens in
// WithCalibration.
func ParseCalibration(data []byte) (*Calibration, error) {
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// Calibration snapshot presets. Each covers every qubit and coupler of the
// device with seeded jitter around figures representative of a
// good / median / bad superconducting chip. The bands are disjoint by
// construction, so the derived noise strengths order strictly:
// good < median < bad.

type calBand struct {
	t1Lo, t1Hi float64 // T1 range, microseconds
	f1Lo, f1Hi float64 // 1q gate fidelity range
	roLo, roHi float64 // readout error range
	f2Lo, f2Hi float64 // 2q gate fidelity range
}

var calBands = map[string]calBand{
	"good":   {t1Lo: 90, t1Hi: 150, f1Lo: 0.9995, f1Hi: 0.9999, roLo: 0.008, roHi: 0.015, f2Lo: 0.993, f2Hi: 0.997},
	"median": {t1Lo: 50, t1Hi: 90, f1Lo: 0.998, f1Hi: 0.9995, roLo: 0.015, roHi: 0.03, f2Lo: 0.985, f2Hi: 0.993},
	"bad":    {t1Lo: 20, t1Hi: 50, f1Lo: 0.995, f1Hi: 0.998, roLo: 0.03, roHi: 0.08, f2Lo: 0.96, f2Hi: 0.985},
}

// CalibrationSnapshots lists the preset snapshot names accepted by
// GenerateCalibration (and the -calibration preset syntax), ordered from
// best to worst chip.
func CalibrationSnapshots() []string { return []string{"good", "median", "bad"} }

// LoadCalibration resolves a calibration argument for d: either a snapshot
// spec "<snapshot>[:<seed>]" (good, median, bad; seed 1 when omitted) drawn
// reproducibly for the device, or a path to a Calibration JSON file.
func LoadCalibration(d *Device, arg string) (*Calibration, error) {
	name, seedStr, hasSeed := strings.Cut(arg, ":")
	if _, ok := calBands[name]; !ok {
		blob, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		return ParseCalibration(blob)
	}
	seed := int64(1)
	if hasSeed {
		var err error
		seed, err = strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad calibration seed %q: %v", seedStr, err)
		}
	}
	return GenerateCalibration(d, name, seed)
}

// GenerateCalibration produces a full-coverage snapshot for the device from
// a named preset band and a seed. The same (device, name, seed) triple
// always yields the same snapshot.
func GenerateCalibration(d *Device, name string, seed int64) (*Calibration, error) {
	band, ok := calBands[name]
	if !ok {
		return nil, fmt.Errorf("device: %w: unknown calibration snapshot %q", ErrBadCalibration, name)
	}
	rng := rand.New(rand.NewSource(seed))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	cal := &Calibration{Name: name}
	for q := 0; q < d.Len(); q++ {
		t1 := uniform(band.t1Lo, band.t1Hi)
		// T2 between 0.6*T1 and 1.4*T1, always within the 2*T1 bound.
		t2 := t1 * uniform(0.6, 1.4)
		cal.Qubits = append(cal.Qubits, QubitCalibration{
			At:   d.Coord(q),
			T1Us: t1, T2Us: t2,
			Fidelity1Q:   uniform(band.f1Lo, band.f1Hi),
			ReadoutError: uniform(band.roLo, band.roHi),
		})
	}
	for _, e := range d.g.Edges() {
		cal.Couplers = append(cal.Couplers, CouplerCalibration{
			Between:    normalizeCouplingKey(d.Coord(e[0]), d.Coord(e[1])),
			Fidelity2Q: uniform(band.f2Lo, band.f2Hi),
		})
	}
	return cal, nil
}
