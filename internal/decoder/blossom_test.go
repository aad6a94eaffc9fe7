package decoder

import (
	"fmt"
	"math/rand"
	"testing"

	"surfstitch/internal/baseline"
	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/matching"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// denseBlossom is the image-graph matching that decodeBlossom reduces, kept
// as its exactness oracle. Nodes 0..k-1 are the defects and k..2k-1 their
// boundary images, interconnected with zero-weight edges so that any
// subset of them can pair off among themselves; defect i reaches its own
// image at its boundary weight. It returns the predicted observable mask
// and the matching weight, or the unmatchable error.
func denseBlossom(d *Decoder, defects []int) (uint64, int64, error) {
	k := len(defects)
	s := d.NewScratch()
	edges := make([]matching.Edge, 0, k*k)
	for i := 0; i < k; i++ {
		ri := d.row(defects[i], s)
		for j := i + 1; j < k; j++ {
			if w := quantWeight(ri.dist[defects[j]]); w >= 0 {
				edges = append(edges, matching.Edge{U: i, V: j, W: w})
			}
			edges = append(edges, matching.Edge{U: k + i, V: k + j, W: 0})
		}
		if w := quantWeight(ri.dist[d.boundary]); w >= 0 {
			edges = append(edges, matching.Edge{U: i, V: k + i, W: w})
		}
	}
	mate, err := matching.MinWeightPerfectMatching(2*k, edges)
	if err != nil {
		return 0, 0, fmt.Errorf("decoder: defects unmatchable: %w", err)
	}
	var obs uint64
	for i := 0; i < k; i++ {
		switch m := mate[i]; {
		case m == k+i: // matched to the boundary
			obs ^= d.row(defects[i], s).mask[d.boundary]
		case m < k && m > i: // defect-defect pair, counted once
			obs ^= d.row(defects[i], s).mask[defects[m]]
		}
	}
	return obs, matching.MatchingWeight(edges, mate), nil
}

// checkDense decodes one defect set with decodeBlossom on s and with the
// dense oracle, and requires equal matching weights and an unmatchable
// error on both or neither. It reports whether the predictions differ,
// which a weight-equal tie may make them do.
func checkDense(t *testing.T, dec *Decoder, s *Scratch, defects []int) bool {
	t.Helper()
	got, gotW, gotErr := dec.decodeBlossom(defects, s)
	want, wantW, wantErr := denseBlossom(dec, defects)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("defects %v: reduced err=%v, dense err=%v", defects, gotErr, wantErr)
	}
	if gotErr != nil {
		return false
	}
	if gotW != wantW {
		t.Fatalf("defects %v: reduced matching weight %d, dense %d", defects, gotW, wantW)
	}
	return got != want
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

// TestBlossomMatchesDenseReference is the exactness gate of the k-node
// reduction: on every input its matching weight equals the dense image
// graph's and it fails on exactly the defect sets the dense graph fails on.
// Equal-probability models make weight ties common, and a tie may resolve
// to another minimum matching, so predictions are compared only on the
// tilings' sampled batches, where they must be identical.
func TestBlossomMatchesDenseReference(t *testing.T) {
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
				dec, err := New(m)
				if err != nil {
					t.Fatal(err)
				}
				s := dec.NewScratch()
				for _, mech := range m.Mechanisms {
					checkDense(t, dec, s, mech.Detectors)
				}
				for trial := 0; trial < 200; trial++ {
					checkDense(t, dec, s, randomDefects(rng, numDet, 12))
				}
			}
		}
	})
	t.Run("equal-chain", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, numDet := range []int{10, 25, 60} {
			dec, err := New(chainModel(numDet, []float64{0.01}))
			if err != nil {
				t.Fatal(err)
			}
			s := dec.NewScratch()
			for trial := 0; trial < 300; trial++ {
				checkDense(t, dec, s, randomDefects(rng, numDet, 12))
			}
		}
	})
	t.Run("tilings", func(t *testing.T) {
		kinds := []device.Kind{
			device.KindSquare, device.KindHexagon, device.KindOctagon,
			device.KindHeavySquare, device.KindHeavyHexagon,
		}
		shots := map[int]int{3: 1000, 5: 200}
		distances := []int{3, 5}
		if testing.Short() || raceEnabled {
			distances = []int{3}
		}
		for _, kind := range kinds {
			for _, d := range distances {
				_, mem := fittedMemory(t, kind, d, d)
				for _, p := range []float64{0.001, 0.002, 0.01} {
					c, err := mem.Noisy(noise.Uniform(p))
					if err != nil {
						t.Fatal(err)
					}
					dec, sets := sampledSets(t, c, int64(100*d)+int64(kind), shots[d], 1)
					s := dec.NewScratch()
					for _, defects := range sets {
						if checkDense(t, dec, s, defects) {
							t.Fatalf("%v d=%d p=%g defects %v: reduced and dense predictions differ", kind, d, p, defects)
						}
					}
				}
			}
		}
	})
	t.Run("merged-zz-d3", func(t *testing.T) {
		dec, sets := sampledSets(t, mergedCircuit(t, 3), 7, 1000, 1)
		s := dec.NewScratch()
		for _, defects := range sets {
			checkDense(t, dec, s, defects)
		}
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
		dec, sets := sampledSets(t, c, 9, shots, 1)
		s := dec.NewScratch()
		for _, defects := range sets {
			checkDense(t, dec, s, defects)
		}
	})
}

// TestBlossomZeroAlloc gates the blossom at zero allocations a shot in
// steady state: on the k>=3 syndromes of the heavy-hexagon d=5 memory over
// 15 rounds at p=0.002, where every shot reaches the matcher, a pass on a
// warm scratch allocates nothing.
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
			if _, _, err := dec.decodeBlossom(defects, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Fatalf("blossom allocates %.1f times a pass over %d syndromes at steady state; want 0", allocs, len(sets))
	}
}
