package decoder

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/stats"
	"surfstitch/internal/synth"
)

// synthesizedNoisyMemory is synthesizedMemory but returning the noisy
// circuit too (for sampling) with a caller-chosen physical error rate, and
// skipping the expensive tableau verification at d=7 (the d<=5 runs cover
// the construction; same policy as the distance-7 end-to-end test).
func synthesizedNoisyMemory(t *testing.T, kind device.Kind, d int, p float64) (*dem.Model, *circuit.Circuit, *experiment.Memory) {
	t.Helper()
	dev := devicetest.ForDistance(t, kind, d)
	layout, err := synth.Allocate(context.Background(), dev, d, synth.ModeDefault)
	if err != nil {
		t.Fatalf("allocate %v d=%d: %v", kind, d, err)
	}
	s, err := synth.SynthesizeOnLayout(context.Background(), layout, synth.Options{})
	if err != nil {
		t.Fatalf("synthesize %v d=%d: %v", kind, d, err)
	}
	mem, err := experiment.NewMemory(s, d, experiment.Options{SkipVerify: d >= 7})
	if err != nil {
		t.Fatalf("memory %v d=%d: %v", kind, d, err)
	}
	noisy, err := mem.Noisy(noise.Uniform(p))
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		t.Fatal(err)
	}
	return model, noisy, mem
}

// chainModel is a graphlike DEM on a line of numDet detectors: pair
// mechanisms between neighbors plus boundary mechanisms at both ends, each
// carrying a distinct observable-mask bit pattern so that different
// corrections are distinguishable.
func chainModel(numDet int, probs []float64) *dem.Model {
	m := &dem.Model{NumDetectors: numDet, NumObservables: 2}
	m.Mechanisms = append(m.Mechanisms,
		dem.Mechanism{Detectors: []int{0}, Prob: probs[0], Obs: 1})
	for i := 0; i+1 < numDet; i++ {
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{
			Detectors: []int{i, i + 1},
			Prob:      probs[(i+1)%len(probs)],
			Obs:       uint64(1 + i%3),
		})
	}
	m.Mechanisms = append(m.Mechanisms,
		dem.Mechanism{Detectors: []int{numDet - 1}, Prob: probs[numDet%len(probs)], Obs: 2})
	return m
}

func TestUFRoutesKGe3AndCounts(t *testing.T) {
	model := chainModel(40, []float64{0.01, 0.02, 0.015})
	ufDec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	s := ufDec.NewScratch()

	// k<=2 stays on the matcher.
	for _, defects := range [][]int{{3}, {3, 4}} {
		if _, path, err := ufDec.decode(defects, s); err != nil || (path != pathK1 && path != pathK2) {
			t.Fatalf("defects %v took path %d (err %v); want the matcher", defects, path, err)
		}
	}
	// k>=3 routes through union-find.
	obs, path, err := ufDec.decode([]int{3, 4, 20, 21, 30, 31}, s)
	if err != nil {
		t.Fatal(err)
	}
	if path != pathUF {
		t.Fatalf("k=6 decode took path %d; want pathUF", path)
	}
	// Isolated adjacent pairs: union-find must agree exactly with blossom.
	want, err := plain.Decode([]int{3, 4, 20, 21, 30, 31})
	if err != nil {
		t.Fatal(err)
	}
	if obs != want {
		t.Fatalf("uf predicted %b, blossom %b on isolated pairs", obs, want)
	}
	// Without the option the same decoder build uses the matcher.
	if _, path, err := plain.decode([]int{3, 4, 20, 21, 30, 31}, plain.NewScratch()); err != nil || path != pathBlossom {
		t.Fatalf("UnionFind=false took path %d (err %v); want blossom", path, err)
	}
}

func TestUFFallbackOnUndecodableCluster(t *testing.T) {
	// Detectors {0,1,2,3} form a boundaryless component (pair mechanisms
	// only); defects {0,1,2} have odd parity there, so union-find reports
	// ErrStuck and the decode escalates to the matcher, which reports the
	// canonical unmatchable error.
	m := &dem.Model{NumDetectors: 4, NumObservables: 1}
	m.Mechanisms = []dem.Mechanism{
		{Detectors: []int{0, 1}, Prob: 0.01, Obs: 1},
		{Detectors: []int{1, 2}, Prob: 0.01},
		{Detectors: []int{2, 3}, Prob: 0.01},
	}
	dec, err := NewWithOptions(m, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := dec.decode([]int{0, 1, 2}, dec.NewScratch())
	if err == nil {
		t.Fatal("odd defect parity on a boundaryless component decoded successfully")
	}
	if path != pathUFFallback {
		t.Fatalf("undecodable cluster took path %d; want pathUFFallback", path)
	}
	// Even parity on the same component decodes fine through union-find.
	obs, path, err := dec.decode([]int{0, 1, 2, 3}, dec.NewScratch())
	if err != nil || path != pathUF {
		t.Fatalf("even-parity decode: path %d err %v", path, err)
	}
	want, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	wantObs, err := want.Decode([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if obs != wantObs {
		t.Fatalf("uf predicted %b, blossom %b", obs, wantObs)
	}
}

func TestUFStatsCountersInDecodeRange(t *testing.T) {
	// High-p repetition memory: plenty of k>=3 shots. UFShots must count
	// every shot with at least three defects; UFFallbacks stays zero
	// (every component touches the boundary).
	c := noise.Uniform(0.05).MustApply(repetitionMemory(7, 7))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := frame.NewSampler(c, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	batch := sampler.Sample(2000)
	st, err := dec.DecodeRangeScratch(batch, 0, batch.Shots, dec.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	k3 := 0
	for shot := 0; shot < batch.Shots; shot++ {
		if len(batch.ShotDetectors(shot)) >= 3 {
			k3++
		}
	}
	if k3 == 0 {
		t.Fatal("no k>=3 shots at p=0.05; test setup is wrong")
	}
	if st.UFShots != k3 {
		t.Fatalf("UFShots = %d; want %d (every k>=3 shot)", st.UFShots, k3)
	}
	if st.UFFallbacks != 0 || st.Blossom != 0 {
		t.Fatalf("unexpected escalations: %+v", st)
	}
	// Merge carries the new counters.
	sum := st.Merge(st)
	if sum.UFShots != 2*st.UFShots || sum.UFFallbacks != 0 || sum.WindowCommits != 2*st.WindowCommits {
		t.Fatalf("Merge dropped uf counters: %+v", sum)
	}
}

// TestUFWilsonBoundLER is the bounded-accuracy gate: on every architecture
// at d=3/5/7, the union-find decoder's logical error rate must agree with
// blossom's within overlapping Wilson intervals on a common sampled batch.
func TestUFWilsonBoundLER(t *testing.T) {
	kinds := []device.Kind{
		device.KindSquare, device.KindHexagon, device.KindOctagon,
		device.KindHeavySquare, device.KindHeavyHexagon,
	}
	distances := []int{3, 5, 7}
	// The blossom baseline is the budget driver: near threshold its k>=3
	// shots cost O(k^3), and at d=7 a shot carries tens to hundreds of
	// defects. Shrinking the d=7 budget (fewer shots, milder p) keeps the
	// gate minutes-tractable while the Wilson intervals stay tight enough
	// to catch a real accuracy regression.
	budget := map[int]struct {
		shots int
		p     float64
	}{
		3: {4000, 0.02}, 5: {2000, 0.02}, 7: {600, 0.01},
	}
	if testing.Short() || raceEnabled {
		distances = []int{3}
		budget[3] = struct {
			shots int
			p     float64
		}{1500, 0.02}
	}
	for _, kind := range kinds {
		for _, d := range distances {
			kind, d := kind, d
			t.Run(fmt.Sprintf("%v/d=%d", kind, d), func(t *testing.T) {
				t.Parallel()
				shots, p := budget[d].shots, budget[d].p
				// p near threshold: most shots carry k>=3 defects, so the
				// union-find path actually decides the rate and both
				// decoders see plenty of logical errors.
				model, noisy, _ := synthesizedNoisyMemory(t, kind, d, p)
				ufDec, err := NewWithOptions(model, Options{UnionFind: true})
				if err != nil {
					t.Fatal(err)
				}
				blossom, err := New(model)
				if err != nil {
					t.Fatal(err)
				}
				sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(int64(1000*d)+int64(kind))))
				if err != nil {
					t.Fatal(err)
				}
				batch := sampler.Sample(shots)
				ufStats, err := ufDec.DecodeBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				blStats, err := blossom.DecodeBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				if ufStats.UFShots == 0 {
					t.Fatalf("no shots took the union-find path at p=%g (khist %v)", p, ufStats.KHist)
				}
				ufLo, ufHi := stats.WilsonInterval(ufStats.LogicalErrors, ufStats.Shots, 3)
				blLo, blHi := stats.WilsonInterval(blStats.LogicalErrors, blStats.Shots, 3)
				if ufLo > blHi || blLo > ufHi {
					t.Fatalf("d=%d: uf LER %.4f [%.4f,%.4f] and blossom LER %.4f [%.4f,%.4f] do not overlap",
						d, ufStats.LogicalErrorRate(), ufLo, ufHi,
						blStats.LogicalErrorRate(), blLo, blHi)
				}
				t.Logf("d=%d: uf %.4f (uf shots %d, fallbacks %d) vs blossom %.4f over %d shots",
					d, ufStats.LogicalErrorRate(), ufStats.UFShots, ufStats.UFFallbacks,
					blStats.LogicalErrorRate(), shots)
			})
		}
	}
}

func FuzzUFvsBlossom(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3))
	f.Add(int64(7), uint8(60), uint8(5))
	f.Add(int64(42), uint8(15), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size, pairs uint8) {
		numDet := 10 + int(size)%90
		rng := rand.New(rand.NewSource(seed))
		probs := make([]float64, 5)
		for i := range probs {
			probs[i] = 0.005 + 0.3*rng.Float64()
		}
		model := chainModel(numDet, probs)
		ufDec, err := NewWithOptions(model, Options{UnionFind: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		g := newGalil(ref)

		// Exact regime: adjacent defect pairs separated by gaps wide enough
		// that every cluster grows in isolation and its internal edge is
		// the unique cheapest resolution — UF must reproduce the MWPM
		// correction bit for bit. A gap of 6 detectors at these weight
		// ratios (max/min prob ratio < 61) guarantees isolation.
		nPairs := 2 + int(pairs)%3
		gap := 8
		if numDet < nPairs*(2+gap) {
			nPairs = numDet / (2 + gap)
		}
		if nPairs >= 2 {
			var defects []int
			for i := 0; i < nPairs; i++ {
				base := 3 + i*(2+gap)
				defects = append(defects, base, base+1)
			}
			got, gotErr := ufDec.Decode(defects)
			refPairs, _, wantErr := g.decode(defects)
			want := pairsObs(refPairs)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("isolated pairs %v: uf err=%v reference err=%v", defects, gotErr, wantErr)
			}
			if gotErr == nil && got != want {
				t.Fatalf("isolated pairs %v: uf %b != mwpm %b", defects, got, want)
			}
		}

		// Random regime: arbitrary defect sets. UF may legally pick a
		// heavier correction, but it must (a) succeed exactly when blossom
		// does and (b) never beat the true minimum weight. decode runs
		// union-find on every k>=3 set, so s.ufs holds this set's correction.
		s := ufDec.NewScratch()
		for trial := 0; trial < 20; trial++ {
			defects := randomDefects(rng, numDet, 8)
			if len(defects) == 0 {
				continue
			}
			_, _, gotErr := ufDec.decode(defects, s)
			_, _, wantErr := g.decode(defects)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("defects %v: uf err=%v reference err=%v", defects, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if len(defects) >= 3 && s.ufs != nil {
				// Both sides sum the same integer edge weights, so a
				// correction lighter than the minimum is a real invariant
				// violation.
				if _, min, err := denseBlossom(g, defects); err == nil {
					if w := s.ufs.CorrectionWeight(); w < min {
						t.Fatalf("defects %v: uf correction weight %d below MWPM minimum %d", defects, w, min)
					}
				}
			}
		}
	})
}

func TestUFDecodeZeroAlloc(t *testing.T) {
	// The union-find hot loop must be allocation-free at steady state:
	// warm one scratch through a k>=3 batch, then assert zero allocs/shot.
	c := noise.Uniform(0.05).MustApply(repetitionMemory(7, 7))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := frame.NewSampler(c, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	batch := sampler.Sample(400)
	s := dec.NewScratch()
	var defects []int
	pass := func() {
		for shot := 0; shot < batch.Shots; shot++ {
			defects = batch.AppendShotDetectors(defects[:0], shot)
			if len(defects) == 0 {
				continue
			}
			if _, _, err := dec.decode(defects, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	allocs := testing.AllocsPerRun(20, pass)
	if allocs != 0 {
		t.Fatalf("uf decode path allocates %.1f/batch at steady state; want 0", allocs)
	}
}
