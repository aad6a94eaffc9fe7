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

// diffDecoders compares a decoder's full path against the blossom-only
// reference — decodeBlossom on ref, a decoder compiled separately, with a
// fresh scratch so no matcher state carries across shots — on one defect
// set: identical predictions, and errors (unmatchable sets) on both or
// neither. It returns the reference prediction.
func diffDecoders(t *testing.T, fast, ref *Decoder, s *Scratch, defects []int) uint64 {
	t.Helper()
	got, gotErr := fast.DecodeWithScratch(defects, s)
	want, _, wantErr := ref.decodeBlossom(defects, ref.NewScratch())
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("defects %v: fast err=%v, reference err=%v", defects, gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		t.Fatalf("defects %v: fast predicted %b, reference predicted %b", defects, got, want)
	}
	return want
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
		ref, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		s := fast.NewScratch()
		for _, mech := range model.Mechanisms {
			diffDecoders(t, fast, ref, s, mech.Detectors)
		}
		for trial := 0; trial < 200; trial++ {
			diffDecoders(t, fast, ref, s, randomDefects(rng, numDet, 8))
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

// fittedMemory synthesizes the distance-d memory of kind over the given
// rounds on the smallest device that fits it (synth.FitDevice), the way the
// paper harness builds its codes. The tableau check is skipped at d>=7, as
// in synthesizedNoisyMemory.
func fittedMemory(tb testing.TB, kind device.Kind, d, rounds int) (*synth.Synthesis, *experiment.Memory) {
	tb.Helper()
	_, layout, err := synth.FitDevice(kind, d, synth.ModeDefault)
	if err != nil {
		tb.Fatalf("fit %v d=%d: %v", kind, d, err)
	}
	s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		tb.Fatalf("synthesize %v d=%d: %v", kind, d, err)
	}
	mem, err := experiment.NewMemory(s, rounds, experiment.Options{SkipVerify: d >= 7})
	if err != nil {
		tb.Fatalf("memory %v d=%d: %v", kind, d, err)
	}
	return s, mem
}

// heavySquareD5 is the memory internal/paper's decoder ablations sample:
// distance-5 heavy-square over 3d rounds, with gate noise p=0.002 and the
// default idle noise on every qubit.
func heavySquareD5(t *testing.T) *circuit.Circuit {
	t.Helper()
	s, mem := fittedMemory(t, device.KindHeavySquare, 5, 15)
	c, err := mem.Noisy(noise.Model{GateError: 0.002, IdleError: noise.DefaultIdleError, IdleOnly: s.AllQubits()})
	if err != nil {
		t.Fatal(err)
	}
	return c
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
				ref, err := New(model)
				if err != nil {
					t.Fatal(err)
				}
				// Synthesize defect sets from the model itself: every
				// mechanism signature, plus random unions of two and three
				// signatures (realistic multi-fault shots, k up to ~8).
				s := fast.NewScratch()
				rng := rand.New(rand.NewSource(int64(100*d) + int64(kind)))
				for _, mech := range model.Mechanisms {
					diffDecoders(t, fast, ref, s, mech.Detectors)
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
					diffDecoders(t, fast, ref, s, defects)
				}
			})
		}
	}
}

func TestFastPathMatchesSlowPathOnSampledBatches(t *testing.T) {
	// End to end over sampled batches: every shot's prediction matches the
	// blossom-only reference, and DecodeBatch counts the reference's logical
	// errors. The inputs are repetition memories at p=0.02 and the
	// heavy-square memory of the decoder ablations.
	type input struct {
		name  string
		c     *circuit.Circuit
		seed  int64
		shots int
	}
	var inputs []input
	for _, d := range []int{3, 5} {
		c := noise.Uniform(0.02).MustApply(repetitionMemory(d, d))
		inputs = append(inputs, input{fmt.Sprintf("repetition-d%d", d), c, int64(d), 2000})
	}
	hsShots := 4000
	if testing.Short() {
		hsShots = 400
	}
	inputs = append(inputs, input{"heavy-square-d5", heavySquareD5(t), 5, hsShots})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			model, err := dem.FromCircuit(in.c)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := New(model)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(model)
			if err != nil {
				t.Fatal(err)
			}
			sampler, err := frame.NewSampler(in.c, rand.New(rand.NewSource(in.seed)))
			if err != nil {
				t.Fatal(err)
			}
			batch := sampler.Sample(in.shots)
			s := fast.NewScratch()
			refErrors := 0
			for shot := 0; shot < batch.Shots; shot++ {
				if diffDecoders(t, fast, ref, s, batch.ShotDetectors(shot)) != batch.ObservableMask(shot) {
					refErrors++
				}
			}
			stats, err := fast.DecodeBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Shots != batch.Shots || stats.LogicalErrors != refErrors {
				t.Fatalf("stats %+v, want %d shots and the reference's %d logical errors",
					stats, batch.Shots, refErrors)
			}
		})
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
}

func TestSyndromeCacheCountersAndBound(t *testing.T) {
	c := noise.Uniform(0.02).MustApply(repetitionMemory(3, 3))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	dec.cache = newSynCache(4)
	ref, err := New(model)
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
	nonEmpty, refErrors := 0, 0
	for shot := 0; shot < batch.Shots; shot++ {
		defects := batch.ShotDetectors(shot)
		if len(defects) > 0 {
			nonEmpty++
		}
		want, _, err := ref.decodeBlossom(defects, ref.NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if want != batch.ObservableMask(shot) {
			refErrors++
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
	if stats.LogicalErrors != refErrors {
		t.Fatalf("cache changed decode results: %d errors, reference %d",
			stats.LogicalErrors, refErrors)
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
