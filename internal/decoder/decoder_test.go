package decoder

import (
	"math/rand"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
)

// repetitionMemory builds a distance-d repetition code memory experiment:
// d data qubits, d-1 ancillas, `rounds` rounds of parity measurement plus a
// final data readout. Detectors compare consecutive rounds; the observable
// is data qubit 0 at readout.
func repetitionMemory(d, rounds int) *circuit.Circuit {
	n := 2*d - 1 // data 0..d-1, ancilla d..2d-2
	b := circuit.NewBuilder(n)
	var prev []int
	for r := 0; r < rounds; r++ {
		anc := make([]int, d-1)
		for i := range anc {
			anc[i] = d + i
		}
		b.Begin().R(anc...)
		b.Begin()
		var pairs []int
		for i := 0; i < d-1; i++ {
			pairs = append(pairs, i, d+i)
		}
		b.CX(pairs...)
		b.Begin()
		pairs = pairs[:0]
		for i := 0; i < d-1; i++ {
			pairs = append(pairs, i+1, d+i)
		}
		b.CX(pairs...)
		b.Begin()
		recs := b.M(anc...)
		for i := 0; i < d-1; i++ {
			if r == 0 {
				b.Detector(recs[i])
			} else {
				b.Detector(prev[i], recs[i])
			}
		}
		prev = recs
	}
	b.Begin()
	data := make([]int, d)
	for i := range data {
		data[i] = i
	}
	final := b.M(data...)
	for i := 0; i < d-1; i++ {
		b.Detector(prev[i], final[i], final[i+1])
	}
	b.Observable(final[0])
	return b.MustBuild()
}

func buildDecoder(t *testing.T, c *circuit.Circuit) *Decoder {
	t.Helper()
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatalf("dem: %v", err)
	}
	dec, err := New(model)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	return dec
}

func TestDecodeEmptyDefects(t *testing.T) {
	c := noise.Uniform(0.01).MustApply(repetitionMemory(3, 2))
	dec := buildDecoder(t, c)
	pred, err := dec.Decode(nil)
	if err != nil || pred != 0 {
		t.Fatalf("Decode(nil) = %d, %v", pred, err)
	}
}

func TestSingleDataErrorCorrected(t *testing.T) {
	// Inject a deterministic X on the middle data qubit before round 1 of a
	// noiseless circuit whose decoder was built from the noisy model: the
	// decoder must predict no observable flip (error is correctable).
	base := repetitionMemory(3, 3)
	noisyModel := noise.Uniform(0.01).MustApply(base)
	dec := buildDecoder(t, noisyModel)

	inject := &circuit.Circuit{NumQubits: base.NumQubits, Detectors: base.Detectors, Observables: base.Observables}
	inject.Moments = append(inject.Moments, circuit.Moment{
		Noise: []circuit.Instruction{{Op: circuit.OpXError, Qubits: []int{1}, Arg: 1}},
	})
	inject.Moments = append(inject.Moments, base.Moments...)
	s, _ := frame.NewSampler(inject, rand.New(rand.NewSource(12345)))
	batch := s.Sample(1)
	defects := batch.ShotDetectors(0)
	if len(defects) == 0 {
		t.Fatal("injected error produced no defects")
	}
	pred, err := dec.Decode(defects)
	if err != nil {
		t.Fatal(err)
	}
	var actual uint64
	for _, o := range batch.ShotObservables(0) {
		actual |= 1 << uint(o)
	}
	if pred != actual {
		t.Fatalf("single data error misdecoded: pred=%b actual=%b defects=%v", pred, actual, defects)
	}
}

func TestBoundaryDataErrorCorrected(t *testing.T) {
	// X on data qubit 0 flips the observable AND one detector; the decoder
	// must match the lone defect to the boundary and predict the flip.
	base := repetitionMemory(3, 3)
	dec := buildDecoder(t, noise.Uniform(0.01).MustApply(base))
	inject := &circuit.Circuit{NumQubits: base.NumQubits, Detectors: base.Detectors, Observables: base.Observables}
	inject.Moments = append(inject.Moments, circuit.Moment{
		Noise: []circuit.Instruction{{Op: circuit.OpXError, Qubits: []int{0}, Arg: 1}},
	})
	inject.Moments = append(inject.Moments, base.Moments...)
	s, _ := frame.NewSampler(inject, rand.New(rand.NewSource(12345)))
	batch := s.Sample(1)
	pred, err := dec.Decode(batch.ShotDetectors(0))
	if err != nil {
		t.Fatal(err)
	}
	var actual uint64
	for _, o := range batch.ShotObservables(0) {
		actual |= 1 << uint(o)
	}
	if pred != actual {
		t.Fatalf("boundary error misdecoded: pred=%b actual=%b", pred, actual)
	}
}

func TestAllSingleMechanismsDecodeCorrectly(t *testing.T) {
	// Every elementary mechanism of the error model, fired alone, must be
	// decoded without a logical error (this is the defining property of a
	// distance >= 3 code under MWPM: single faults are correctable).
	base := repetitionMemory(3, 3)
	noisy := noise.Uniform(0.005).MustApply(base)
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	for i, mech := range model.Mechanisms {
		if len(mech.Detectors) == 0 {
			continue // undetectable: cannot be decoded by construction
		}
		pred, err := dec.Decode(mech.Detectors)
		if err != nil {
			t.Fatalf("mechanism %d: %v", i, err)
		}
		if pred != mech.Obs {
			t.Errorf("mechanism %d (dets=%v obs=%b p=%.4g): predicted %b",
				i, mech.Detectors, mech.Obs, mech.Prob, pred)
		}
	}
}

func TestLogicalErrorRateDecreasesWithDistance(t *testing.T) {
	// Below threshold, the repetition code's logical error rate must drop
	// with distance.
	p := 0.01
	rates := map[int]float64{}
	for _, d := range []int{3, 5} {
		c := noise.Uniform(p).MustApply(repetitionMemory(d, d))
		dec := buildDecoder(t, c)
		s, _ := frame.NewSampler(c, rand.New(rand.NewSource(77)))
		batch := s.Sample(4000)
		stats, err := dec.DecodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = stats.LogicalErrorRate()
	}
	if rates[5] >= rates[3] {
		t.Errorf("logical error rate did not drop with distance: d3=%.4f d5=%.4f", rates[3], rates[5])
	}
	if rates[3] == 0 {
		t.Error("d=3 logical error rate is exactly zero; noise too weak for the test to be meaningful")
	}
}

func TestDecodingBeatsNoDecoding(t *testing.T) {
	// The decoder must outperform always-predicting-zero.
	p := 0.02
	c := noise.Uniform(p).MustApply(repetitionMemory(3, 3))
	dec := buildDecoder(t, c)
	s, _ := frame.NewSampler(c, rand.New(rand.NewSource(123)))
	batch := s.Sample(4000)
	stats, err := dec.DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	rawErrors := frame.CountFlips(batch.ObsFlips, batch.Shots)[0]
	if stats.LogicalErrors >= rawErrors {
		t.Errorf("decoder (%d errors) no better than raw observable flips (%d)", stats.LogicalErrors, rawErrors)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Shots: 200, LogicalErrors: 5}
	if s.LogicalErrorRate() != 0.025 {
		t.Errorf("rate = %f", s.LogicalErrorRate())
	}
	if (Stats{}).LogicalErrorRate() != 0 {
		t.Error("zero-shot rate should be 0")
	}
}

func TestUndetectableObsTracked(t *testing.T) {
	// An error that flips the observable with no detector signature must be
	// reported via UndetectableObs.
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpXError, 0.1, 0)
	b.Begin()
	rec := b.M(0)
	b.Observable(rec[0])
	c := b.MustBuild()
	model, _ := dem.FromCircuit(c)
	dec, _ := New(model)
	if dec.UndetectableObs != 1 {
		t.Errorf("UndetectableObs = %b, want 1", dec.UndetectableObs)
	}
}

func TestDecodeRangeShardsMatchBatch(t *testing.T) {
	// Sharded range decoding with merged stats must agree with DecodeBatch:
	// the property the Monte-Carlo engine relies on. Shards of 170 and 37
	// shots start and end inside 64-shot words, and some lie within one.
	c := noise.Uniform(0.02).MustApply(repetitionMemory(3, 3))
	dec := buildDecoder(t, c)
	s, _ := frame.NewSampler(c, rand.New(rand.NewSource(321)))
	batch := s.Sample(1000)
	whole, err := dec.DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{170, 37} {
		var merged Stats
		scratch := dec.NewScratch()
		for lo := 0; lo < batch.Shots; lo += step {
			hi := min(lo+step, batch.Shots)
			part, err := dec.DecodeRangeScratch(batch, lo, hi, scratch)
			if err != nil {
				t.Fatal(err)
			}
			merged = merged.Merge(part)
		}
		// Shots, LogicalErrors and the syndrome-weight histogram must merge
		// exactly; the cache counters are deliberately excluded — the
		// DecodeBatch pass warmed the syndrome cache, so the range passes
		// see more hits than a cold run.
		if merged.Shots != whole.Shots || merged.LogicalErrors != whole.LogicalErrors || merged.KHist != whole.KHist {
			t.Errorf("step %d: merged range stats %+v != batch stats %+v", step, merged, whole)
		}
		if merged.CacheHits+merged.CacheMisses > merged.Shots {
			t.Errorf("step %d: cache counters exceed decoded shots: %+v", step, merged)
		}
	}
}

// TestDecodeRangeZeroAlloc gates the whole-shot chunk loop: once a scratch
// has decoded a point-sparse chunk, decoding the same chunk again — defect
// extraction, cache lookups and all — allocates nothing.
func TestDecodeRangeZeroAlloc(t *testing.T) {
	dec, batch := pointSparseChunk(t)
	s := dec.NewScratch()
	pass := func() {
		if _, err := dec.DecodeRangeScratch(batch, 0, batch.Shots, s); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("DecodeRangeScratch allocates %.1f times a %d-shot chunk on a warm scratch; want 0", allocs, batch.Shots)
	}
}

func TestStatsMerge(t *testing.T) {
	got := Stats{Shots: 100, LogicalErrors: 3}.Merge(Stats{Shots: 50, LogicalErrors: 2})
	if got != (Stats{Shots: 150, LogicalErrors: 5}) {
		t.Errorf("Merge = %+v", got)
	}
}
