package surgery

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/grid"
	"surfstitch/internal/synth"
)

func twoPatchSpec(d int, j Joint) Spec {
	if j == JointXX {
		return Spec{
			Patches: []PatchSpec{{Name: "a", Row: 0, Col: 0, Distance: d}, {Name: "b", Row: 0, Col: 1, Distance: d}},
			Ops:     []Op{{A: 0, B: 1, Joint: JointXX}},
		}
	}
	return Spec{
		Patches: []PatchSpec{{Name: "a", Row: 0, Col: 0, Distance: d}, {Name: "b", Row: 1, Col: 0, Distance: d}},
		Ops:     []Op{{A: 0, B: 1, Joint: JointZZ}},
	}
}

// twoPatchDevice sizes a device that hosts a merged 2-patch lattice of the
// given distance and orientation on each tiling.
func twoPatchDevice(tiling string, d int, j Joint) *device.Device {
	vertical := j == JointZZ
	switch tiling {
	case "heavy-square":
		w, h := 2+d/2*2, 2+(d/2)*5 // 4x7 at d=3, 6x12 at d=5
		if !vertical {
			w, h = h, w
		}
		return device.HeavySquare(w, h)
	default: // square
		w, h := 4*d, 5*d-1
		if !vertical {
			w, h = h, w
		}
		return device.Square(w, h)
	}
}

func TestSpecNormalization(t *testing.T) {
	s, err := Spec{
		Patches: []PatchSpec{{Row: 2, Col: 3, Distance: 3}, {Row: 3, Col: 3, Distance: 3}},
		Ops:     []Op{{A: 1, B: 0, Joint: JointZZ}},
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Patches[0].Row != 0 || s.Patches[0].Col != 0 {
		t.Errorf("grid not shifted to origin: %+v", s.Patches)
	}
	if s.Patches[0].Name != "p0" || s.Patches[1].Name != "p1" {
		t.Errorf("names not defaulted: %+v", s.Patches)
	}
	if s.Ops[0].A != 0 || s.Ops[0].B != 1 {
		t.Errorf("ZZ op not normalized upper-first: %+v", s.Ops[0])
	}
	if s.PreRounds != 3 || s.MergeRounds != 3 || s.PostRounds != 3 {
		t.Errorf("rounds not defaulted to d: %+v", s)
	}
}

func TestSpecValidationErrors(t *testing.T) {
	d3 := func(r, c int) PatchSpec { return PatchSpec{Row: r, Col: c, Distance: 3} }
	cases := []struct {
		name string
		spec Spec
	}{
		{"no patches", Spec{}},
		{"even distance", Spec{Patches: []PatchSpec{{Distance: 4}}}},
		{"mixed distances", Spec{Patches: []PatchSpec{d3(0, 0), {Row: 1, Col: 0, Distance: 5}}}},
		{"duplicate cell", Spec{Patches: []PatchSpec{d3(0, 0), d3(0, 0)}}},
		{"duplicate name", Spec{Patches: []PatchSpec{{Name: "x", Distance: 3}, {Name: "x", Row: 1, Distance: 3}}}},
		{"op out of range", Spec{Patches: []PatchSpec{d3(0, 0)}, Ops: []Op{{A: 0, B: 5, Joint: JointZZ}}}},
		{"self merge", Spec{Patches: []PatchSpec{d3(0, 0)}, Ops: []Op{{A: 0, B: 0, Joint: JointZZ}}}},
		{"zz not vertical", Spec{Patches: []PatchSpec{d3(0, 0), d3(0, 1)}, Ops: []Op{{A: 0, B: 1, Joint: JointZZ}}}},
		{"xx not horizontal", Spec{Patches: []PatchSpec{d3(0, 0), d3(1, 0)}, Ops: []Op{{A: 0, B: 1, Joint: JointXX}}}},
		{"patch in two ops", Spec{
			Patches: []PatchSpec{d3(0, 0), d3(1, 0), d3(2, 0)},
			Ops:     []Op{{A: 0, B: 1, Joint: JointZZ}, {A: 1, B: 2, Joint: JointZZ}},
		}},
		{"negative rounds", Spec{Patches: []PatchSpec{d3(0, 0)}, PreRounds: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Normalized(); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("want ErrBadSpec, got %v", err)
			}
		})
	}
}

// TestMergeAccounting checks the stabilizer attribution of a merged lattice:
// every joint-type patch stabilizer survives, the seam line has d qubits,
// and the new seam stabilizers split d+1 joint-type / d-1 opposite-type.
func TestMergeAccounting(t *testing.T) {
	for _, j := range []Joint{JointZZ, JointXX} {
		t.Run(j.String(), func(t *testing.T) {
			const d = 3
			dev := twoPatchDevice("heavy-square", d, j)
			p, err := Pack(context.Background(), dev, twoPatchSpec(d, j), synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := p.Merges[0]
			if len(m.Seam) != d {
				t.Errorf("seam has %d qubits, want %d", len(m.Seam), d)
			}
			jt := j.StabType()
			newJ, newK, ownedA, ownedB := 0, 0, 0, 0
			for msi, st := range m.Code.Stabilizers() {
				switch {
				case m.OwnerPatch[msi] < 0 && st.Type == jt:
					newJ++
				case m.OwnerPatch[msi] < 0:
					newK++
				case m.OwnerPatch[msi] == m.Op.A:
					ownedA++
				default:
					ownedB++
				}
			}
			if newJ != d+1 || newK != d-1 {
				t.Errorf("new seam stabilizers: %d joint-type and %d opposite, want %d and %d", newJ, newK, d+1, d-1)
			}
			// Each patch loses its (d-1)/2 opposite-type seam-facing halves,
			// which grow into bulk plaquettes of the merged lattice.
			wantOwned := d*d - 1 - (d-1)/2
			if ownedA != wantOwned || ownedB != wantOwned {
				t.Errorf("owned stabilizers %d/%d, want %d each", ownedA, ownedB, wantOwned)
			}
		})
	}
}

// TestSinglePatchDelegation checks the 1-patch/0-op fast path: Pack must
// produce the legacy synthesis verbatim.
func TestSinglePatchDelegation(t *testing.T) {
	dev := device.HeavySquare(4, 3)
	ctx := context.Background()
	p, err := Pack(ctx, dev, Spec{Patches: []PatchSpec{{Distance: 3}}}, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := synth.Synthesize(ctx, dev, 3, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Patches[0].Layout.DataQubit, legacy.Layout.DataQubit) {
		t.Fatalf("delegated layout differs from legacy Synthesize")
	}
}

// TestDegradeRejected: the graceful-degradation ladder is single-patch only.
func TestDegradeRejected(t *testing.T) {
	dev := device.HeavySquare(4, 7)
	_, err := Pack(context.Background(), dev, twoPatchSpec(3, JointZZ), synth.Options{Degrade: true})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("want ErrBadSpec for multi-patch Degrade, got %v", err)
	}
}

// TestPackTooSmall: a device that cannot host the merged lattice fails with
// the allocator's typed placement error.
func TestPackTooSmall(t *testing.T) {
	dev := device.HeavySquare(4, 3) // hosts one d=3 patch, not two plus a seam
	_, err := Pack(context.Background(), dev, twoPatchSpec(3, JointZZ), synth.Options{})
	if !errors.Is(err, synth.ErrNoPlacement) {
		t.Fatalf("want ErrNoPlacement, got %v", err)
	}
}

// TestPackCancellation: a cancelled context surfaces as a budget error.
func TestPackCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Pack(ctx, device.HeavySquare(4, 7), twoPatchSpec(3, JointZZ), synth.Options{})
	if !errors.Is(err, synth.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// countdownCtx is a context whose Err turns Canceled at its nth call and
// stays so, which cuts a search at a chosen check.
type countdownCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestPlacementCutByCancelIsBudgetError cuts each placement search at
// about 64 evenly spaced context checks and at its last one. Once a check
// has seen the cancellation, the search must fail with ErrBudgetExceeded:
// a layout from a partly walked anchor might not be the one an uncanceled
// search picks, and "no placement" is not what happened. Allocate and Pack
// stop at the first anchor with a feasible candidate; AllocateRelaxed
// scans every anchor.
func TestPlacementCutByCancelIsBudgetError(t *testing.T) {
	type placed struct {
		base, u, v grid.Coord
		score      int
	}
	layout := func(l *synth.Layout, err error) (placed, error) {
		if err != nil {
			return placed{}, err
		}
		return placed{l.Base, l.U, l.V, l.Score}, nil
	}
	for _, search := range []struct {
		name string
		run  func(ctx context.Context) (placed, error)
	}{
		{"Allocate", func(ctx context.Context) (placed, error) {
			return layout(synth.Allocate(ctx, device.Square(6, 6), 3, synth.ModeDefault))
		}},
		{"AllocateRelaxed", func(ctx context.Context) (placed, error) {
			return layout(synth.AllocateRelaxed(ctx, device.Square(6, 6), 3, synth.ModeDefault))
		}},
		{"Pack", func(ctx context.Context) (placed, error) {
			p, err := Pack(ctx, device.HeavySquare(4, 7), twoPatchSpec(3, JointZZ), synth.Options{})
			if err != nil {
				return placed{}, err
			}
			return placed{p.Base, p.U, p.V, p.Score}, nil
		}},
	} {
		// Until its nth check a cut search runs exactly as the uncut one,
		// so every n up to the uncut search's count cuts it.
		uncut := &countdownCtx{Context: context.Background(), n: math.MaxInt64}
		if _, err := search.run(uncut); err != nil {
			t.Fatalf("%s: %v", search.name, err)
		}
		checks := uncut.calls.Load()
		var cuts []int64
		for n := int64(1); n < checks; n += max(checks/64, 1) {
			cuts = append(cuts, n)
		}
		for _, n := range append(cuts, checks) {
			got, err := search.run(&countdownCtx{Context: context.Background(), n: n})
			if !errors.Is(err, synth.ErrBudgetExceeded) {
				t.Fatalf("%s cut at context check %d of %d: got %+v (err %v), want ErrBudgetExceeded", search.name, n, checks, got, err)
			}
		}
	}
}

// TestZipSchedules: zipped rounds must contain every plan of every group
// exactly once per round, and never co-schedule incompatible plans.
func TestZipSchedules(t *testing.T) {
	dev := device.HeavySquare(4, 7)
	p, err := Pack(context.Background(), dev, twoPatchSpec(3, JointZZ), synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups := []synth.Schedule{p.Patches[0].Schedule, p.Patches[1].Schedule}
	sets := zipSchedules(groups)
	count := map[*flagbridge.Plan]int{}
	for _, set := range sets {
		for i, a := range set {
			count[a]++
			for _, b := range set[i+1:] {
				if !flagbridge.Compatible(a, b) {
					t.Fatalf("incompatible plans co-scheduled")
				}
			}
		}
	}
	want := 0
	for _, g := range groups {
		for _, set := range g {
			want += len(set)
		}
	}
	got := 0
	for _, n := range count {
		if n != 1 {
			t.Fatalf("plan scheduled %d times in one round", n)
		}
		got++
	}
	if got != want {
		t.Fatalf("zipped schedule has %d plans, want %d", got, want)
	}
}

// TestSurgeryMatrix is the acceptance matrix: 2-patch XX and ZZ merges on
// heavy-square and square tilings at d=3 and d=5 must pack, assemble a
// tableau-deterministic circuit (joint parity included), and keep each
// patch's certified fault distance at its claim.
func TestSurgeryMatrix(t *testing.T) {
	for _, tiling := range []string{"heavy-square", "square"} {
		for _, j := range []Joint{JointZZ, JointXX} {
			for _, d := range []int{3, 5} {
				if testing.Short() && d == 5 {
					continue
				}
				t.Run(tiling+"-"+j.String()+"-d"+string(rune('0'+d)), func(t *testing.T) {
					dev := twoPatchDevice(tiling, d, j)
					p, err := Pack(context.Background(), dev, twoPatchSpec(d, j), synth.Options{})
					if err != nil {
						t.Fatalf("pack on %s: %v", dev.Name(), err)
					}
					e, err := NewExperiment(p, Options{}) // tableau-verified
					if err != nil {
						t.Fatalf("experiment: %v", err)
					}
					if got := len(e.Circuit.Observables); got != 3 {
						t.Errorf("observables = %d, want 1 joint + 2 memory", got)
					}
					if e.NumJointObs() != 1 {
						t.Errorf("NumJointObs = %d, want 1", e.NumJointObs())
					}
				})
			}
		}
	}
}

func TestJointBasisConvention(t *testing.T) {
	dev := twoPatchDevice("heavy-square", 3, JointXX)
	p, err := Pack(context.Background(), dev, twoPatchSpec(3, JointXX), synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	basis := basisOf(p)
	if basis[0] != code.StabX || basis[1] != code.StabX {
		t.Errorf("XX-merged patches must use the X basis, got %v", basis)
	}
}
