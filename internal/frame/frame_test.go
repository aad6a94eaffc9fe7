package frame

import (
	"math"
	"math/rand"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/tableau"
)

// repCodeCircuit builds two rounds of a 3-qubit repetition code parity check
// (qubits 0,1,2 data; 3,4 ancillas) with detectors comparing rounds and a
// final data readout; observable = data qubit 0.
func repCodeCircuit(t *testing.T, withNoise float64) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder(5)
	var prev []int
	for r := 0; r < 2; r++ {
		b.Begin().R(3, 4)
		b.Begin().CX(0, 3, 1, 4)
		b.Begin().CX(1, 3, 2, 4)
		b.Begin()
		recs := b.M(3, 4)
		if r == 0 {
			b.Detector(recs[0])
			b.Detector(recs[1])
		} else {
			b.Detector(prev[0], recs[0])
			b.Detector(prev[1], recs[1])
		}
		prev = recs
	}
	b.Begin()
	final := b.M(0, 1, 2)
	b.Detector(prev[0], final[0], final[1])
	b.Detector(prev[1], final[1], final[2])
	b.Observable(final[0])
	base := b.MustBuild()
	if withNoise == 0 {
		return base
	}
	noisy := addUniformNoise(base, withNoise)
	return noisy
}

// addUniformNoise sprinkles depolarizing noise after every gate moment.
func addUniformNoise(c *circuit.Circuit, p float64) *circuit.Circuit {
	out := &circuit.Circuit{NumQubits: c.NumQubits, Detectors: c.Detectors, Observables: c.Observables}
	for _, m := range c.Moments {
		nm := circuit.Moment{Gates: m.Gates}
		var qs []int // a moment's gates act on disjoint qubits
		for _, g := range m.Gates {
			qs = append(qs, g.Qubits...)
		}
		if len(qs) > 0 {
			nm.Noise = append(nm.Noise, circuit.Instruction{Op: circuit.OpDepolarize1, Qubits: qs, Arg: p})
		}
		out.Moments = append(out.Moments, nm)
	}
	return out
}

func TestNoiselessCircuitSamplesZeroFlips(t *testing.T) {
	c := repCodeCircuit(t, 0)
	s, err := NewSampler(c, rand.New(rand.NewSource(12345)))
	if err != nil {
		t.Fatal(err)
	}
	batch := s.Sample(130) // cross word boundary
	for i, counts := range CountFlips(batch.DetFlips, batch.Shots) {
		if counts != 0 {
			t.Errorf("detector %d flipped %d times with no noise", i, counts)
		}
	}
	for i, counts := range CountFlips(batch.ObsFlips, batch.Shots) {
		if counts != 0 {
			t.Errorf("observable %d flipped %d times with no noise", i, counts)
		}
	}
}

func TestDeterministicXErrorFlipsExpectedDetectors(t *testing.T) {
	// X on data qubit 1 before any round flips both first-round detectors.
	base := repCodeCircuit(t, 0)
	c := &circuit.Circuit{NumQubits: base.NumQubits, Detectors: base.Detectors, Observables: base.Observables}
	c.Moments = append(c.Moments, circuit.Moment{
		Noise: []circuit.Instruction{{Op: circuit.OpXError, Qubits: []int{1}, Arg: 1.0}},
	})
	c.Moments = append(c.Moments, base.Moments...)
	s, _ := NewSampler(c, rand.New(rand.NewSource(12345)))
	batch := s.Sample(64)
	flips := batch.ShotDetectors(17)
	// Detectors 0,1 fire in round one; rounds two and final agree with round
	// one, so nothing else fires.
	if len(flips) != 2 || flips[0] != 0 || flips[1] != 1 {
		t.Fatalf("detector flips = %v, want [0 1]", flips)
	}
	if obs := batch.ShotObservables(17); len(obs) != 0 {
		t.Fatalf("observable flipped by detectable error: %v", obs)
	}
}

func TestObservableFlipRequiresLogicalError(t *testing.T) {
	// X errors on ALL data qubits = logical X: flips observable and the
	// syndrome stays silent (all parity checks see two flips... for the
	// 3-qubit chain each check sees exactly two flipped data qubits).
	base := repCodeCircuit(t, 0)
	c := &circuit.Circuit{NumQubits: base.NumQubits, Detectors: base.Detectors, Observables: base.Observables}
	c.Moments = append(c.Moments, circuit.Moment{
		Noise: []circuit.Instruction{{Op: circuit.OpXError, Qubits: []int{0, 1, 2}, Arg: 1.0}},
	})
	c.Moments = append(c.Moments, base.Moments...)
	s, _ := NewSampler(c, rand.New(rand.NewSource(12345)))
	batch := s.Sample(10)
	if flips := batch.ShotDetectors(3); len(flips) != 0 {
		t.Fatalf("logical error tripped detectors: %v", flips)
	}
	if obs := batch.ShotObservables(3); len(obs) != 1 {
		t.Fatalf("logical error missed observable: %v", obs)
	}
}

// TestFrameMatchesTableauExhaustively injects every single-qubit Pauli error
// at every moment boundary and compares the frame simulator's detector flips
// against exact tableau simulation.
func TestFrameMatchesTableauExhaustively(t *testing.T) {
	base := repCodeCircuit(t, 0)
	refDet, _, err := tableau.Reference(base, 4)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	paulis := []circuit.Op{circuit.OpX, circuit.OpZ, circuit.OpY}
	noiseFor := map[circuit.Op][]circuit.Op{
		circuit.OpX: {circuit.OpXError},
		circuit.OpZ: {circuit.OpZError},
		circuit.OpY: {circuit.OpXError, circuit.OpZError},
	}
	for mi := 0; mi <= len(base.Moments); mi++ {
		for q := 0; q < base.NumQubits; q++ {
			for _, p := range paulis {
				// Tableau version: actual Pauli gate inserted.
				gateC := insertMoment(base, mi, circuit.Moment{
					Gates: []circuit.Instruction{{Op: p, Qubits: []int{q}}},
				})
				res := tableau.Run(gateC, rand.New(rand.NewSource(7)))
				det := tableau.DetectorValues(gateC, res.Records)
				var wantFlips []int
				for i := range det {
					if det[i] != refDet[i] {
						wantFlips = append(wantFlips, i)
					}
				}
				// Frame version: deterministic noise channel.
				var noiseInstrs []circuit.Instruction
				for _, op := range noiseFor[p] {
					noiseInstrs = append(noiseInstrs, circuit.Instruction{Op: op, Qubits: []int{q}, Arg: 1.0})
				}
				noiseC := insertMoment(base, mi, circuit.Moment{Noise: noiseInstrs})
				s, _ := NewSampler(noiseC, rand.New(rand.NewSource(12345)))
				batch := s.Sample(1)
				gotFlips := batch.ShotDetectors(0)
				if !equalInts(gotFlips, wantFlips) {
					t.Fatalf("moment %d qubit %d pauli %v: frame flips %v, tableau flips %v",
						mi, q, p, gotFlips, wantFlips)
				}
			}
		}
	}
}

func insertMoment(c *circuit.Circuit, at int, m circuit.Moment) *circuit.Circuit {
	out := &circuit.Circuit{NumQubits: c.NumQubits, Detectors: c.Detectors, Observables: c.Observables}
	out.Moments = append(out.Moments, c.Moments[:at]...)
	out.Moments = append(out.Moments, m)
	out.Moments = append(out.Moments, c.Moments[at:]...)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNoiseRateStatistics(t *testing.T) {
	// A single X_ERROR(p) before measurement should flip the record in about
	// p of the shots.
	p := 0.1
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpXError, p, 0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	s, _ := NewSampler(c, rand.New(rand.NewSource(99)))
	shots := 200000
	batch := s.Sample(shots)
	rate := float64(CountFlips(batch.DetFlips, shots)[0]) / float64(shots)
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("flip rate = %.4f, want ~%.2f", rate, p)
	}
}

func TestDepolarize1Statistics(t *testing.T) {
	// Depolarize1(p) flips a Z-measurement with probability 2p/3 (X and Y).
	p := 0.3
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpDepolarize1, p, 0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	s, _ := NewSampler(c, rand.New(rand.NewSource(5)))
	shots := 300000
	batch := s.Sample(shots)
	rate := float64(CountFlips(batch.DetFlips, shots)[0]) / float64(shots)
	want := 2 * p / 3
	if math.Abs(rate-want) > 0.01 {
		t.Errorf("flip rate = %.4f, want ~%.3f", rate, want)
	}
}

func TestDepolarize2Statistics(t *testing.T) {
	// Depolarize2(p) flips the first qubit's Z-measurement when the error has
	// an X component on qubit a: 8 of 15 Paulis.
	p := 0.3
	b := circuit.NewBuilder(2)
	b.Begin().Noise(circuit.OpDepolarize2, p, 0, 1)
	b.Begin()
	recs := b.M(0, 1)
	b.Detector(recs[0])
	c := b.MustBuild()
	s, _ := NewSampler(c, rand.New(rand.NewSource(6)))
	shots := 300000
	batch := s.Sample(shots)
	rate := float64(CountFlips(batch.DetFlips, shots)[0]) / float64(shots)
	want := p * 8 / 15
	if math.Abs(rate-want) > 0.01 {
		t.Errorf("flip rate = %.4f, want ~%.3f", rate, want)
	}
}

func TestResetClearsFrame(t *testing.T) {
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpXError, 1.0, 0)
	b.Begin().R(0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	s, _ := NewSampler(c, rand.New(rand.NewSource(12345)))
	batch := s.Sample(64)
	if CountFlips(batch.DetFlips, 64)[0] != 0 {
		t.Error("reset did not clear the error frame")
	}
}

func TestHConvertsZToX(t *testing.T) {
	// Z error then H: becomes X, flips Z measurement.
	b := circuit.NewBuilder(1)
	b.Begin().Noise(circuit.OpZError, 1.0, 0)
	b.Begin().H(0)
	b.Begin()
	rec := b.M(0)
	b.Detector(rec[0])
	c := b.MustBuild()
	s, _ := NewSampler(c, rand.New(rand.NewSource(12345)))
	batch := s.Sample(64)
	if CountFlips(batch.DetFlips, 64)[0] != 64 {
		t.Error("H did not convert Z frame to X frame")
	}
}

func TestCXPropagatesFrames(t *testing.T) {
	// X on control spreads to target.
	b := circuit.NewBuilder(2)
	b.Begin().Noise(circuit.OpXError, 1.0, 0)
	b.Begin().CX(0, 1)
	b.Begin()
	recs := b.M(0, 1)
	b.Detector(recs[0])
	b.Detector(recs[1])
	c := b.MustBuild()
	s, _ := NewSampler(c, rand.New(rand.NewSource(12345)))
	batch := s.Sample(64)
	counts := CountFlips(batch.DetFlips, 64)
	if counts[0] != 64 || counts[1] != 64 {
		t.Errorf("CX propagation counts = %v, want both 64", counts)
	}
}

func TestSamplerRejectsInvalidCircuit(t *testing.T) {
	c := &circuit.Circuit{NumQubits: 1, Detectors: [][]int{{5}}}
	if _, err := NewSampler(c, rand.New(rand.NewSource(12345))); err == nil {
		t.Error("invalid circuit accepted")
	}
}

func TestShotCountEdgeCases(t *testing.T) {
	c := repCodeCircuit(t, 0.01)
	s, _ := NewSampler(c, rand.New(rand.NewSource(12345)))
	for _, shots := range []int{1, 63, 64, 65, 127, 128} {
		batch := s.Sample(shots)
		if batch.Shots != shots {
			t.Errorf("Shots = %d, want %d", batch.Shots, shots)
		}
		counts := CountFlips(batch.DetFlips, shots)
		for _, n := range counts {
			if n < 0 || n > shots {
				t.Errorf("count %d out of range for %d shots", n, shots)
			}
		}
	}
}

func TestNewSamplerRejectsNilRNG(t *testing.T) {
	c := repCodeCircuit(t, 0.01)
	if _, err := NewSampler(c, nil); err == nil {
		t.Error("nil RNG accepted; the silent fixed-seed fallback is back")
	}
}

func TestChunkedSamplerMatchesSampler(t *testing.T) {
	// A chunk sampled with a given stream must equal a Sampler run with the
	// same stream, in a fresh batch and in one batch reused across circuits
	// and chunk sizes, growing and shrinking: one sampler, minus
	// re-validation.
	reused := &Batch{}
	for i, tc := range []struct {
		c     *circuit.Circuit
		shots int
	}{
		{repCodeCircuit(t, 0.05), 200},
		{repCodeCircuit(t, 0.05), 130},
		{benchCircuit(16, 3), 1000},
		{repCodeCircuit(t, 0.2), 64},
		{benchCircuit(16, 3), 700},
	} {
		seed := int64(777 + i)
		s, err := NewSampler(tc.c, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want := s.Sample(tc.shots)
		cs, err := NewChunkedSampler(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		fresh := cs.SampleChunk(rand.New(rand.NewSource(seed)), tc.shots)
		cs.SampleInto(reused, rand.New(rand.NewSource(seed)), tc.shots)
		for name, got := range map[string]*Batch{"fresh": fresh, "reused": reused} {
			if got.Shots != want.Shots || got.Words != want.Words {
				t.Fatalf("case %d %s: %d shots in %d words, want %d in %d", i, name, got.Shots, got.Words, want.Shots, want.Words)
			}
			for _, planes := range []struct {
				kind      string
				got, want [][]uint64
			}{
				{"record", got.RecordFlips, want.RecordFlips},
				{"detector", got.DetFlips, want.DetFlips},
				{"observable", got.ObsFlips, want.ObsFlips},
			} {
				if len(planes.got) != len(planes.want) {
					t.Fatalf("case %d %s: %d %s planes, want %d", i, name, len(planes.got), planes.kind, len(planes.want))
				}
				for j := range planes.want {
					if len(planes.got[j]) != len(planes.want[j]) {
						t.Fatalf("case %d %s: %s plane %d has %d words, want %d", i, name, planes.kind, j, len(planes.got[j]), len(planes.want[j]))
					}
					for w := range planes.want[j] {
						if planes.got[j][w] != planes.want[j][w] {
							t.Fatalf("case %d %s: %s plane %d word %d differs", i, name, planes.kind, j, w)
						}
					}
				}
			}
		}
	}
}

// TestSampleChunkZeroAlloc gates the Monte-Carlo chunk's sampling: once a
// batch has held a point-sparse chunk, sampling a chunk of that size or a
// smaller final one into it allocates nothing.
func TestSampleChunkZeroAlloc(t *testing.T) {
	cs, err := NewChunkedSampler(pointSparseCircuit(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := &Batch{}
	cs.SampleInto(b, rng, 1024)
	for _, shots := range []int{1024, 952} {
		if allocs := testing.AllocsPerRun(5, func() { cs.SampleInto(b, rng, shots) }); allocs != 0 {
			t.Fatalf("sampling %d shots into a warm batch allocates %.1f times; want 0", shots, allocs)
		}
	}
}

func TestAppendShotDetectorsMatchesShotDetectors(t *testing.T) {
	c := repCodeCircuit(t, 0.05)
	s, _ := NewSampler(c, rand.New(rand.NewSource(555)))
	batch := s.Sample(300)
	buf := make([]int, 0, 8)
	for shot := 0; shot < batch.Shots; shot++ {
		want := batch.ShotDetectors(shot)
		got := batch.AppendShotDetectors(buf[:0], shot)
		if len(got) != len(want) {
			t.Fatalf("shot %d: append got %v, want %v", shot, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shot %d: append got %v, want %v", shot, got, want)
			}
		}
		// The append form must grow the caller's buffer, not replace it,
		// whenever capacity suffices.
		if len(got) > 0 && len(got) <= cap(buf) && &got[0] != &buf[:1][0] {
			t.Fatalf("shot %d: AppendShotDetectors reallocated despite capacity %d for %d defects",
				shot, cap(buf), len(got))
		}
		if cap(got) > cap(buf) {
			buf = got // keep the grown buffer, as callers do
		}
	}
}

// TestWordDetectorsMatchShotDetectors checks the word pass against the
// per-shot extraction: every selected shot's list equals ShotDetectors,
// every unselected shot's list is empty, on masks that cut words at both
// ends, with one backing slice reused across words.
func TestWordDetectorsMatchShotDetectors(t *testing.T) {
	c := repCodeCircuit(t, 0.1)
	s, _ := NewSampler(c, rand.New(rand.NewSource(557)))
	batch := s.Sample(300)
	var (
		off  [65]int
		dets []int
	)
	for _, mask := range []uint64{^uint64(0), 0, 0x5555_5555_5555_5555, 0xffff_ffff_fffe_0000, 1<<40 - 1, 1 << 63} {
		for w := 0; w < batch.Words; w++ {
			dets = batch.WordDetectors(w, mask, &off, dets)
			for i := 0; i < 64; i++ {
				got := dets[off[i]:off[i+1]]
				var want []int
				if shot := w*64 + i; mask&(1<<uint(i)) != 0 && shot < batch.Shots {
					want = batch.ShotDetectors(shot)
				}
				if len(got) != len(want) {
					t.Fatalf("mask %x word %d bit %d: got %v, want %v", mask, w, i, got, want)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("mask %x word %d bit %d: got %v, want %v", mask, w, i, got, want)
					}
				}
			}
			if off[64] != len(dets) {
				t.Fatalf("mask %x word %d: offsets end at %d, backing holds %d", mask, w, off[64], len(dets))
			}
		}
	}
}

func TestObservableMaskMatchesShotObservables(t *testing.T) {
	c := repCodeCircuit(t, 0.05)
	s, _ := NewSampler(c, rand.New(rand.NewSource(556)))
	batch := s.Sample(300)
	for shot := 0; shot < batch.Shots; shot++ {
		var want uint64
		for _, o := range batch.ShotObservables(shot) {
			want |= 1 << uint(o)
		}
		if got := batch.ObservableMask(shot); got != want {
			t.Fatalf("shot %d: ObservableMask = %b, want %b", shot, got, want)
		}
	}
}
