package dem_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
	"surfstitch/internal/tableau"
)

// firstVarying names the first detector, or else observable, whose value
// differs between runs of c on the tableau simulator with the given number
// of seeds, or returns "" when none does.
func firstVarying(c *circuit.Circuit, runs int) string {
	var dets, obs [][]uint8
	for s := 0; s < runs; s++ {
		res := tableau.Run(c, rand.New(rand.NewSource(int64(s))))
		dets = append(dets, tableau.DetectorValues(c, res.Records))
		obs = append(obs, tableau.ObservableValues(c, res.Records))
	}
	for _, set := range []struct {
		name string
		vals [][]uint8
	}{{"detector", dets}, {"observable", obs}} {
		for i := range set.vals[0] {
			for _, v := range set.vals[1:] {
				if v[i] != set.vals[0][i] {
					return fmt.Sprintf("%s %d", set.name, i)
				}
			}
		}
	}
	return ""
}

// TestCheckDeterminismMatchesTableau holds the exact backward check to the
// stabilizer tableau, an independent forward simulation. On random circuits
// that use every gate, with random detectors and observables, the verdict
// must equal that of 24 randomized tableau runs, and the output the check
// names must be the first one whose value varies across 24 more. Every
// synthesized memory and 2-patch layout must pass, and a layout assembled
// in the wrong basis must fail both checks.
func TestCheckDeterminismMatchesTableau(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		circuits := 3000
		if testing.Short() {
			circuits = 500
		}
		const runs = 24
		deterministic, random := 0, 0
		for seed := int64(0); seed < int64(circuits); seed++ {
			c := randomCircuit(rand.New(rand.NewSource(seed)))
			got := dem.CheckDeterminism(c)
			_, _, want := tableau.Reference(c, runs)
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d: exact check says %v, tableau says %v\n%v", seed, got, want, c)
			}
			if got == nil {
				deterministic++
				continue
			}
			random++
			if name := firstVarying(c, runs); got.Error() != "dem: "+name+" is not deterministic" {
				t.Fatalf("seed %d: exact check says %q, first varying output is %q\n%v", seed, got, name, c)
			}
		}
		t.Logf("%d deterministic, %d not", deterministic, random)
		if deterministic == 0 || random == 0 {
			t.Fatalf("%d deterministic and %d random circuits: both verdicts must occur", deterministic, random)
		}
	})

	t.Run("memories", func(t *testing.T) {
		for _, kind := range device.AllKinds() {
			for _, d := range []int{3, 5} {
				s := synthesize(t, kind, d)
				for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
					mem, err := experiment.NewMemory(s, d, experiment.Options{SkipVerify: true, Basis: basis})
					if err != nil {
						t.Fatal(err)
					}
					if err := dem.CheckDeterminism(mem.Circuit); err != nil {
						t.Errorf("%v d=%d %v memory: %v", kind, d, basis, err)
					}
				}
			}
		}
	})

	t.Run("layouts", func(t *testing.T) {
		for _, tc := range []struct {
			dev   *device.Device
			joint surgery.Joint
			b     surgery.PatchSpec
		}{
			{device.Square(12, 14), surgery.JointZZ, surgery.PatchSpec{Name: "b", Row: 1, Distance: 3}},
			{device.Square(14, 12), surgery.JointXX, surgery.PatchSpec{Name: "b", Col: 1, Distance: 3}},
		} {
			p, err := surgery.Pack(context.Background(), tc.dev, surgery.Spec{
				Patches: []surgery.PatchSpec{{Name: "a", Distance: 3}, tc.b},
				Ops:     []surgery.Op{{A: 0, B: 1, Joint: tc.joint}},
			}, synth.Options{})
			if err != nil {
				t.Fatalf("%v: pack: %v", tc.joint, err)
			}
			e, err := surgery.NewExperiment(p, surgery.Options{SkipVerify: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := dem.CheckDeterminism(e.Circuit); err != nil {
				t.Errorf("%v layout: %v", tc.joint, err)
			}
			if tc.joint != surgery.JointXX {
				continue
			}
			// The patches of an XX op must protect the X basis; assembled
			// in the Z basis, the joint parity is a coin flip.
			zz := []code.StabType{code.StabZ, code.StabZ}
			wrong, err := surgery.Assemble(p, zz, surgery.Options{SkipVerify: true})
			if err != nil {
				t.Fatal(err)
			}
			exact := dem.CheckDeterminism(wrong.Circuit)
			_, _, tab := tableau.Reference(wrong.Circuit, 24)
			if exact == nil || tab == nil {
				t.Errorf("XX layout in the Z basis: exact check says %v, tableau says %v; both must fail", exact, tab)
			}
			if _, err := surgery.Assemble(p, zz, surgery.Options{}); err == nil || !strings.Contains(err.Error(), "not deterministic") {
				t.Errorf("Assemble of an XX layout in the Z basis returned %v, want a determinism failure", err)
			}
		}
	})
}
