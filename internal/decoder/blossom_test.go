package decoder

import (
	"math/rand"
	"testing"

	"surfstitch/internal/baseline"
	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// checkDense decodes one defect set with the Galil reference and with the
// dense oracle, and requires equal matching weights and an unmatchable
// error on both or neither. It reports whether the predictions differ,
// which a weight-equal tie may make them do.
func checkDense(t *testing.T, g *galil, defects []int) bool {
	t.Helper()
	pairs, gotW, gotErr := g.decode(defects)
	want, wantW, wantErr := denseBlossom(g, defects)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("defects %v: reduced err=%v, dense err=%v", defects, gotErr, wantErr)
	}
	if gotErr != nil {
		return false
	}
	if gotW != wantW {
		t.Fatalf("defects %v: reduced matching weight %d, dense %d", defects, gotW, wantW)
	}
	return pairsObs(pairs) != want
}

// sampledSets samples shots of a noisy circuit with a fixed seed and
// returns a decoder for its detector error model and the defect set of
// every shot with at least minK defects.
func sampledSets(t *testing.T, c *circuit.Circuit, seed int64, shots, minK int) (*Decoder, [][]int) {
	t.Helper()
	model, batch := sampleBatch(t, c, seed, shots)
	dec, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	return dec, defectSets(batch, minK)
}

// referenceCase is one decoder of the reference inputs, with its Galil
// reference, a matcher scratch and the defect sets to check on it.
// Sampled marks the tilings' sampled batches, where weight ties are rare.
type referenceCase struct {
	dec     *Decoder
	g       *galil
	s       *Scratch
	sets    [][]int
	sampled bool
}

// forReferenceInputs runs check, in one subtest per input family, on every
// reference input: 20 random models, each also with every probability set
// equal so that weight ties are common; equal-weight chains; sampled
// batches of the five tilings at d=3 and 5 (d=3 only under -short or the
// race detector); the merged two-patch ZZ graph at d=3; and the IBM
// heavy-hexagon d=5 baseline over 15 rounds.
func forReferenceInputs(t *testing.T, check func(t *testing.T, c referenceCase)) {
	newCase := func(t *testing.T, model *dem.Model, sets [][]int, sampled bool) referenceCase {
		dec, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		return referenceCase{dec: dec, g: newGalil(dec), s: dec.NewScratch(), sets: sets, sampled: sampled}
	}
	sampledCase := func(t *testing.T, c *circuit.Circuit, seed int64, shots int) referenceCase {
		model, batch := sampleBatch(t, c, seed, shots)
		return newCase(t, model, defectSets(batch, 1), true)
	}
	t.Run("random-models", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			numDet := 5 + rng.Intn(36)
			model := randomModel(rng, numDet, 1+rng.Intn(3), 3*numDet)
			flat := &dem.Model{NumDetectors: model.NumDetectors, NumObservables: model.NumObservables}
			for _, mech := range model.Mechanisms {
				mech.Prob = 0.01
				flat.Mechanisms = append(flat.Mechanisms, mech)
			}
			for _, m := range []*dem.Model{model, flat} {
				var sets [][]int
				for _, mech := range m.Mechanisms {
					sets = append(sets, mech.Detectors)
				}
				for trial := 0; trial < 200; trial++ {
					sets = append(sets, randomDefects(rng, numDet, 12))
				}
				check(t, newCase(t, m, sets, false))
			}
		}
	})
	t.Run("equal-chain", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, numDet := range []int{10, 25, 60} {
			var sets [][]int
			for trial := 0; trial < 300; trial++ {
				sets = append(sets, randomDefects(rng, numDet, 12))
			}
			check(t, newCase(t, chainModel(numDet, []float64{0.01}), sets, false))
		}
	})
	t.Run("tilings", func(t *testing.T) {
		shots := map[int]int{3: 1000, 5: 200}
		distances := []int{3, 5}
		if testing.Short() || raceEnabled {
			distances = []int{3}
		}
		for _, kind := range device.AllKinds() {
			for _, d := range distances {
				_, mem := fittedMemory(t, kind, d, d)
				for _, p := range []float64{0.001, 0.002, 0.01} {
					c, err := mem.Noisy(noise.Uniform(p))
					if err != nil {
						t.Fatal(err)
					}
					check(t, sampledCase(t, c, int64(100*d)+int64(kind), shots[d]))
				}
			}
		}
	})
	t.Run("merged-zz-d3", func(t *testing.T) {
		check(t, sampledCase(t, mergedCircuit(t, 3), 7, 1000))
	})
	t.Run("ibm-heavy-hexagon-d5", func(t *testing.T) {
		dev, _, err := synth.FitDevice(device.KindHeavyHexagon, 5, synth.ModeDefault)
		if err != nil {
			t.Fatal(err)
		}
		hh, err := baseline.NewHeavyHexCode(dev, 5)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := hh.MemoryCircuit(15)
		if err != nil {
			t.Fatal(err)
		}
		c, err := noise.Model{GateError: 0.002, IdleError: noise.DefaultIdleError, IdleOnly: hh.IdleQubits()}.Apply(mc)
		if err != nil {
			t.Fatal(err)
		}
		shots := 400
		if testing.Short() || raceEnabled {
			shots = 50
		}
		check(t, sampledCase(t, c, 9, shots))
	})
}

// TestBlossomMatchesDenseReference is the exactness gate of the Galil
// reference's k-node reduction: on every reference input its matching
// weight equals the dense image graph's and it fails on exactly the defect
// sets the dense graph fails on. A weight tie may resolve to another
// minimum matching, so predictions are compared only on the tilings'
// sampled batches, where they must be identical.
func TestBlossomMatchesDenseReference(t *testing.T) {
	forReferenceInputs(t, func(t *testing.T, c referenceCase) {
		for _, defects := range c.sets {
			if checkDense(t, c.g, defects) && c.sampled && t.Name() == "TestBlossomMatchesDenseReference/tilings" {
				t.Fatalf("defects %v: reduced and dense predictions differ", defects)
			}
		}
	})
}

// TestMatcherOracle holds the matcher to the oracle (checkOracle) on every
// reference input, and reports how many sampled predictions differ from
// the Galil reference's through a choice between equal-weight corrections.
func TestMatcherOracle(t *testing.T) {
	forReferenceInputs(t, func(t *testing.T, c referenceCase) {
		differ, total := 0, 0
		for _, defects := range c.sets {
			if _, differs, _ := checkOracle(t, c.dec, c.g, c.s, defects); differs {
				differ++
			}
			total++
		}
		if c.sampled {
			t.Logf("%d of %d sampled predictions differ from the reference's", differ, total)
		}
	})
}

// TestBlossomZeroAlloc gates the matcher at zero allocations a shot in
// steady state: on the k>=3 syndromes of the heavy-hexagon d=5 memory over
// 15 rounds at p=0.002, where every shot reaches the matcher, a pass on a
// warm scratch allocates nothing. AllocsPerRun counts the whole process's
// allocations and averages them in integers over 10 passes, so an
// allocation in every pass fails the test and one stray allocation
// elsewhere does not.
func TestBlossomZeroAlloc(t *testing.T) {
	_, mem := fittedMemory(t, device.KindHeavyHexagon, 5, 15)
	c, err := mem.Noisy(noise.Uniform(0.002))
	if err != nil {
		t.Fatal(err)
	}
	dec, sets := sampledSets(t, c, 33, 512, 3)
	s := dec.NewScratch()
	pass := func() {
		for _, defects := range sets {
			if _, err := dec.matchPairs(defects, &s.m); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("the matcher allocates %.1f times a pass over %d syndromes at steady state; want 0", allocs, len(sets))
	}
}
