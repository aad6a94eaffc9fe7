package distance_test

import (
	"context"
	"math/bits"
	"math/rand"
	"surfstitch/internal/distance"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// checkWitness asserts the witness actually is an undetectable logical
// fault set of the claimed weight: detector parities all cancel and the
// winning observable bit flips.
func checkWitness(t *testing.T, res distance.Result) {
	t.Helper()
	if res.Distance == 0 {
		if len(res.Witness) != 0 {
			t.Fatalf("distance 0 but non-empty witness %v", res.Witness)
		}
		return
	}
	if len(res.Witness) != res.Distance {
		t.Fatalf("witness has %d faults, certified distance %d", len(res.Witness), res.Distance)
	}
	detParity := map[int]int{}
	obs := uint64(0)
	for _, f := range res.Witness {
		for _, d := range f.Detectors {
			detParity[d] ^= 1
		}
		obs ^= f.Obs
	}
	for d, p := range detParity {
		if p != 0 {
			t.Fatalf("witness trips detector %d: %v", d, res.Witness)
		}
	}
	if obs>>uint(res.Observable)&1 != 1 {
		t.Fatalf("witness does not flip observable %d (combined mask %b): %v",
			res.Observable, obs, res.Witness)
	}
}

func TestGraphBasics(t *testing.T) {
	t.Run("odd triangle", func(t *testing.T) {
		g := distance.NewGraph(3, 1)
		for _, e := range [][3]uint64{{0, 1, 0}, {1, 2, 0}, {0, 2, 1}} {
			if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
				t.Fatal(err)
			}
		}
		d, o, w := g.MinLogical()
		if d != 3 || o != 0 || len(w) != 3 {
			t.Fatalf("triangle: got distance=%d obs=%d witness=%v, want 3/0/3 edges", d, o, w)
		}
	})
	t.Run("boundary shortcut", func(t *testing.T) {
		// Two boundary edges on the same detector, one flipping the
		// observable: a weight-2 undetectable logical error.
		g := distance.NewGraph(2, 1)
		if err := g.AddEdge(0, g.Boundary(), 0); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(0, g.Boundary(), 1); err != nil {
			t.Fatal(err)
		}
		d, _, _ := g.MinLogical()
		if d != 2 {
			t.Fatalf("parallel boundary edges: got %d, want 2", d)
		}
	})
	t.Run("no odd cycle", func(t *testing.T) {
		g := distance.NewGraph(3, 1)
		if err := g.AddEdge(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(1, 2, 0); err != nil {
			t.Fatal(err)
		}
		d, _, w := g.MinLogical()
		if d != 0 || w != nil {
			t.Fatalf("open path: got distance=%d witness=%v, want none", d, w)
		}
	})
	t.Run("boundary self-loop", func(t *testing.T) {
		// A mechanism flipping no detector but an observable is an
		// immediate weight-1 undetectable logical error.
		g := distance.NewGraph(2, 1)
		if err := g.AddEdge(g.Boundary(), g.Boundary(), 1); err != nil {
			t.Fatal(err)
		}
		d, _, w := g.MinLogical()
		if d != 1 || len(w) != 1 {
			t.Fatalf("undetectable mechanism: got distance=%d witness=%v, want 1", d, w)
		}
	})
	t.Run("rejects detector self-loop", func(t *testing.T) {
		g := distance.NewGraph(2, 1)
		if err := g.AddEdge(1, 1, 0); err == nil {
			t.Fatal("detector self-loop accepted")
		}
	})
}

// bruteForce computes the exact minimum fault count over all mechanism
// subsets whose detector parities cancel and whose combined observable
// mask is non-zero. Exponential in len(m.Mechanisms); test-only.
func bruteForce(m *dem.Model) int {
	n := len(m.Mechanisms)
	detMasks := make([]uint64, n)
	for i, mech := range m.Mechanisms {
		for _, d := range mech.Detectors {
			detMasks[i] |= 1 << uint(d)
		}
	}
	best := 0
	for sub := 1; sub < 1<<uint(n); sub++ {
		w := bits.OnesCount(uint(sub))
		if best != 0 && w >= best {
			continue
		}
		var det, obs uint64
		for i := 0; i < n; i++ {
			if sub>>uint(i)&1 == 1 {
				det ^= detMasks[i]
				obs ^= m.Mechanisms[i].Obs
			}
		}
		if det == 0 && obs != 0 {
			best = w
		}
	}
	return best
}

// TestExhaustiveDifferential cross-checks the certifier against exhaustive
// subset enumeration on small random graphlike models: on graphlike input
// the certificate must be the exact minimum, not an approximation.
func TestExhaustiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 400
	if testing.Short() {
		trials = 80
	}
	for trial := 0; trial < trials; trial++ {
		numDet := 2 + rng.Intn(7)
		numObs := 1 + rng.Intn(2)
		n := 3 + rng.Intn(10)
		m := &dem.Model{NumDetectors: numDet, NumObservables: numObs}
		for i := 0; i < n; i++ {
			var dets []int
			switch k := rng.Intn(10); {
			case k == 0: // rare zero-detector mechanism
			case k <= 4:
				dets = []int{rng.Intn(numDet)}
			default:
				a, b := rng.Intn(numDet), rng.Intn(numDet)
				for b == a {
					b = rng.Intn(numDet)
				}
				if a > b {
					a, b = b, a
				}
				dets = []int{a, b}
			}
			obs := uint64(0)
			if rng.Intn(3) == 0 {
				obs = uint64(1 + rng.Intn(1<<uint(numObs)-1))
			}
			m.Mechanisms = append(m.Mechanisms, dem.Mechanism{
				Detectors: dets, Obs: obs, Prob: 0.01 + 0.3*rng.Float64(),
			})
		}
		res, err := distance.Certify(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Graphlike {
			t.Fatalf("trial %d: graphlike model reported non-graphlike", trial)
		}
		want := bruteForce(m)
		if res.Distance != want {
			t.Fatalf("trial %d: certified %d, brute force %d (model %+v)",
				trial, res.Distance, want, m.Mechanisms)
		}
		checkWitness(t, res)
	}
}

// TestNonGraphlikeDecomposition checks that a hyperedge made of existing
// elementary edges is peeled rather than rejected, and flagged.
func TestNonGraphlikeDecomposition(t *testing.T) {
	m := &dem.Model{NumDetectors: 4, NumObservables: 1, Mechanisms: []dem.Mechanism{
		{Detectors: []int{0, 1}, Obs: 0, Prob: 0.1},
		{Detectors: []int{2, 3}, Obs: 1, Prob: 0.1},
		{Detectors: []int{0, 1, 2, 3}, Obs: 1, Prob: 0.05},
	}}
	res, err := distance.Certify(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graphlike || res.Decomposed != 1 {
		t.Fatalf("got graphlike=%v decomposed=%d, want false/1", res.Graphlike, res.Decomposed)
	}
	// The decomposition adds no new edges here, so the only undetectable
	// logical error is still {0-1 used twice?} — in fact none exists with
	// distinct edges except pairing the obs edge with itself; the graph has
	// edges 0-1 (obs 0) and 2-3 (obs 1) only, no odd cycle.
	if res.Distance != 0 {
		t.Fatalf("got distance %d, want 0 (no odd cycle)", res.Distance)
	}
}

// memoryDEM synthesizes a clean distance-d memory on the architecture and
// returns its Z-basis detector error model.
func memoryDEM(t testing.TB, kind device.Kind, d, rounds int) *dem.Model {
	t.Helper()
	return basisDEM(t, kind, d, rounds, experiment.BasisZ)
}

// TestCleanTilingsCertify is the golden acceptance assertion: on a clean
// device every Table 1 architecture certifies exactly its nominal distance.
func TestCleanTilingsCertify(t *testing.T) {
	distances := []int{3, 5, 7}
	if testing.Short() {
		distances = []int{3}
	}
	for _, d := range distances {
		for _, kind := range device.AllKinds() {
			kind, d := kind, d
			t.Run(kind.String()+"/d="+string(rune('0'+d)), func(t *testing.T) {
				model := memoryDEM(t, kind, d, 2)
				res, err := distance.Certify(model)
				if err != nil {
					t.Fatal(err)
				}
				if res.Distance != d {
					t.Fatalf("certified distance %d, want %d (graphlike=%v decomposed=%d)",
						res.Distance, d, res.Graphlike, res.Decomposed)
				}
				checkWitness(t, res)
			})
		}
	}
}

// basisDEM returns the detector error model of a clean distance-d memory on
// the architecture in the given basis.
func basisDEM(tb testing.TB, kind device.Kind, d, rounds int, basis experiment.Basis) *dem.Model {
	tb.Helper()
	mem, err := experiment.NewMemory(cleanSynthesis(tb, kind, d), rounds, experiment.Options{SkipVerify: true, Basis: basis})
	if err != nil {
		tb.Fatalf("%v d=%d: memory: %v", kind, d, err)
	}
	noisy, err := mem.Noisy(noise.Model{GateError: 1e-3, IdleError: 1e-12})
	if err != nil {
		tb.Fatalf("%v d=%d: noisy: %v", kind, d, err)
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		tb.Fatalf("%v d=%d: dem: %v", kind, d, err)
	}
	return model
}

// cleanSynthesis synthesizes a distance-d code on the architecture's
// smallest fitting device.
func cleanSynthesis(tb testing.TB, kind device.Kind, d int) *synth.Synthesis {
	tb.Helper()
	_, layout, err := synth.FitDevice(kind, d, synth.ModeDefault)
	if err != nil {
		tb.Fatalf("%v d=%d: fit: %v", kind, d, err)
	}
	s, err := synth.SynthesizeOnLayout(context.Background(), layout, synth.Options{})
	if err != nil {
		tb.Fatalf("%v d=%d: synthesize: %v", kind, d, err)
	}
	return s
}
