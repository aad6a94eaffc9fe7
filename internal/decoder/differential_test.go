package decoder

import (
	"context"
	"math/rand"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// randomModel builds a randomized detector error model: a mix of boundary
// mechanisms, pair mechanisms and hyperedges over numDet detectors, which
// exercises the decomposition pass as well as the matching graph itself.
func randomModel(rng *rand.Rand, numDet, numObs, mechs int) *dem.Model {
	m := &dem.Model{NumDetectors: numDet, NumObservables: numObs}
	sizes := []int{1, 1, 2, 2, 2, 2, 3, 4}
	for i := 0; i < mechs; i++ {
		size := sizes[rng.Intn(len(sizes))]
		if size > numDet {
			size = numDet
		}
		dets := rng.Perm(numDet)[:size]
		sortInts(dets)
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{
			Detectors: dets,
			Obs:       uint64(rng.Intn(1 << uint(numObs))),
			Prob:      0.001 + 0.2*rng.Float64(),
		})
	}
	return m
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// randomDefects draws a sorted random defect subset of the detectors.
func randomDefects(rng *rand.Rand, numDet, maxK int) []int {
	k := rng.Intn(maxK + 1)
	if k > numDet {
		k = numDet
	}
	dets := rng.Perm(numDet)[:k]
	sortInts(dets)
	return dets
}

// diffDecoders compares fast-path and slow-path decoders on one defect set:
// identical predictions, and errors (unmatchable sets) on both or neither.
func diffDecoders(t *testing.T, fast, slow *Decoder, s *Scratch, defects []int) {
	t.Helper()
	got, gotErr := fast.DecodeWithScratch(defects, s)
	want, wantErr := slow.Decode(defects)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("defects %v: fast err=%v, slow err=%v", defects, gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		t.Fatalf("defects %v: fast predicted %b, slow predicted %b", defects, got, want)
	}
}

func TestFastPathMatchesSlowPathOnRandomModels(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numDet := 5 + rng.Intn(36)
		numObs := 1 + rng.Intn(3)
		model := randomModel(rng, numDet, numObs, 3*numDet)
		fast, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewWithOptions(model, Options{ForceSlowPath: true})
		if err != nil {
			t.Fatal(err)
		}
		s := fast.NewScratch()
		for _, mech := range model.Mechanisms {
			diffDecoders(t, fast, slow, s, mech.Detectors)
		}
		for trial := 0; trial < 200; trial++ {
			diffDecoders(t, fast, slow, s, randomDefects(rng, numDet, 8))
		}
	}
}

// synthesizedMemory builds the standard noisy memory circuit for one
// architecture at distance d, the same pipeline the threshold sweeps run.
func synthesizedMemory(t *testing.T, kind device.Kind, d int) *dem.Model {
	t.Helper()
	dev := devicetest.ForDistance(t, kind, d)
	layout, err := synth.Allocate(context.Background(), dev, d, synth.ModeDefault)
	if err != nil {
		t.Fatalf("allocate %v d=%d: %v", kind, d, err)
	}
	s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		t.Fatalf("synthesize %v d=%d: %v", kind, d, err)
	}
	mem, err := experiment.NewMemory(s, d, experiment.Options{})
	if err != nil {
		t.Fatalf("memory %v d=%d: %v", kind, d, err)
	}
	noisy, err := mem.Noisy(noise.Uniform(0.004))
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestFastPathMatchesSlowPathOnSynthesizedCircuits(t *testing.T) {
	kinds := []device.Kind{
		device.KindSquare, device.KindHexagon, device.KindOctagon,
		device.KindHeavySquare, device.KindHeavyHexagon,
	}
	distances := []int{3, 5}
	if testing.Short() {
		distances = []int{3}
	}
	for _, kind := range kinds {
		for _, d := range distances {
			t.Run(kind.String(), func(t *testing.T) {
				model := synthesizedMemory(t, kind, d)
				fast, err := New(model)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := NewWithOptions(model, Options{ForceSlowPath: true})
				if err != nil {
					t.Fatal(err)
				}
				// Synthesize defect sets from the model itself: every
				// mechanism signature, plus random unions of two and three
				// signatures (realistic multi-fault shots, k up to ~8).
				s := fast.NewScratch()
				rng := rand.New(rand.NewSource(int64(100*d) + int64(kind)))
				for _, mech := range model.Mechanisms {
					diffDecoders(t, fast, slow, s, mech.Detectors)
				}
				for trial := 0; trial < 150; trial++ {
					set := map[int]bool{}
					for f := 0; f < 2+rng.Intn(2); f++ {
						mech := model.Mechanisms[rng.Intn(len(model.Mechanisms))]
						for _, det := range mech.Detectors {
							set[det] = !set[det] // XOR: coincident flips cancel
						}
					}
					var defects []int
					for det, on := range set {
						if on {
							defects = append(defects, det)
						}
					}
					sortInts(defects)
					diffDecoders(t, fast, slow, s, defects)
				}
			})
		}
	}
}

func TestFastPathMatchesSlowPathOnSampledBatches(t *testing.T) {
	// End-to-end over sampled batches: per-shot predictions and the merged
	// Stats (Shots, LogicalErrors) agree between the paths, and DecodeBatch
	// at full parallelism agrees with the serial range decode.
	for _, d := range []int{3, 5} {
		c := noise.Uniform(0.02).MustApply(repetitionMemory(d, d))
		model, err := dem.FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewWithOptions(model, Options{ForceSlowPath: true})
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := frame.NewSampler(c, rand.New(rand.NewSource(int64(d))))
		if err != nil {
			t.Fatal(err)
		}
		batch := sampler.Sample(2000)
		s := fast.NewScratch()
		for shot := 0; shot < batch.Shots; shot++ {
			diffDecoders(t, fast, slow, s, batch.ShotDetectors(shot))
		}
		fastStats, err := fast.DecodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		slowStats, err := slow.DecodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if fastStats.Shots != slowStats.Shots || fastStats.LogicalErrors != slowStats.LogicalErrors {
			t.Fatalf("d=%d: fast stats %+v != slow stats %+v", d, fastStats, slowStats)
		}
	}
}

func TestLazyRowsComputedOnDemand(t *testing.T) {
	c := noise.Uniform(0.01).MustApply(repetitionMemory(5, 5))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	countRows := func(d *Decoder) (n int) {
		for i := range d.rows {
			if d.rows[i].Load() != nil {
				n++
			}
		}
		return
	}
	if got := countRows(fast); got != 0 {
		t.Fatalf("fast path precomputed %d rows at compile time", got)
	}
	if _, err := fast.Decode([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	got := countRows(fast)
	if got == 0 || got > 2 {
		t.Fatalf("after a 2-defect decode, %d rows computed (want 1..2)", got)
	}
	slow, err := NewWithOptions(model, Options{ForceSlowPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countRows(slow); got != slow.numDet+1 {
		t.Fatalf("slow path computed %d rows eagerly, want all %d", got, slow.numDet+1)
	}
	if slow.cache != nil {
		t.Fatal("slow path must not carry a syndrome cache")
	}
}

func TestSyndromeCacheCountersAndBound(t *testing.T) {
	c := noise.Uniform(0.02).MustApply(repetitionMemory(3, 3))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewWithOptions(model, Options{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := frame.NewSampler(c, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	batch := sampler.Sample(1500)
	stats, err := dec.DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for shot := 0; shot < batch.Shots; shot++ {
		if len(batch.ShotDetectors(shot)) > 0 {
			nonEmpty++
		}
	}
	if stats.CacheHits+stats.CacheMisses != nonEmpty {
		t.Fatalf("hits %d + misses %d != non-empty shots %d",
			stats.CacheHits, stats.CacheMisses, nonEmpty)
	}
	if stats.CacheHits == 0 {
		t.Fatal("no cache hits over 1500 low-p shots; sparse syndromes should repeat")
	}
	if got := dec.cache.size(); got > 4 {
		t.Fatalf("cache grew to %d entries past its bound of 4", got)
	}
	// Disabled cache: counters stay zero.
	off, err := NewWithOptions(model, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	offStats, err := off.DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if offStats.CacheHits != 0 || offStats.CacheMisses != 0 {
		t.Fatalf("disabled cache still counted: %+v", offStats)
	}
	if offStats.LogicalErrors != stats.LogicalErrors {
		t.Fatalf("cache changed decode results: %d vs %d errors",
			offStats.LogicalErrors, stats.LogicalErrors)
	}
}

func TestScratchReuseMatchesFreshDecodes(t *testing.T) {
	// One scratch reused across many decodes — including blossom-sized
	// syndromes that grow its buffers — must never leak state between
	// calls.
	c := noise.Uniform(0.03).MustApply(repetitionMemory(5, 5))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	s := dec.NewScratch()
	for trial := 0; trial < 300; trial++ {
		defects := randomDefects(rng, dec.numDet, 10)
		got, gotErr := dec.DecodeWithScratch(defects, s)
		want, wantErr := dec.Decode(defects)
		if (gotErr != nil) != (wantErr != nil) || got != want {
			t.Fatalf("defects %v: scratch (%b, %v) != fresh (%b, %v)",
				defects, got, gotErr, want, wantErr)
		}
	}
}

func TestStatsMergeIncludesCacheCounters(t *testing.T) {
	a := Stats{Shots: 10, LogicalErrors: 1, CacheHits: 4, CacheMisses: 6}
	b := Stats{Shots: 5, LogicalErrors: 2, CacheHits: 5, CacheMisses: 0}
	got := a.Merge(b)
	want := Stats{Shots: 15, LogicalErrors: 3, CacheHits: 9, CacheMisses: 6}
	if got != want {
		t.Fatalf("Merge = %+v, want %+v", got, want)
	}
}
