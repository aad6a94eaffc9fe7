package decoder

import (
	"fmt"
	"math/rand"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/stats"
)

// uniformRounds assigns numDet detectors to rounds of perRound detectors
// each — a synthetic round map for chain-model stream tests.
func uniformRounds(numDet, perRound int) []int {
	detRound := make([]int, numDet)
	for i := range detRound {
		detRound[i] = i / perRound
	}
	return detRound
}

// pushRounds feeds one shot's ascending defect list to the stream round by
// round, slicing it at each round's detector range.
func pushRounds(st *Stream, defects []int) error {
	for r := 0; r < st.NumRounds(); r++ {
		_, hi := st.RoundRange(r)
		n := 0
		for n < len(defects) && defects[n] < hi {
			n++
		}
		if err := st.PushRound(defects[:n]); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		defects = defects[n:]
	}
	return nil
}

// streamShot pushes one shot's defects through the stream round by round
// and finishes it.
func streamShot(t *testing.T, st *Stream, batch *frame.Batch, shot int) uint64 {
	t.Helper()
	st.Reset()
	if err := pushRounds(st, batch.ShotDetectors(shot)); err != nil {
		t.Fatalf("shot %d: %v", shot, err)
	}
	obs, err := st.Finish()
	if err != nil {
		t.Fatalf("shot %d finish: %v", shot, err)
	}
	return obs
}

func TestStreamFullWindowEqualsWholeShot(t *testing.T) {
	// A window covering every round is a single whole-graph union-find
	// decode: the stream must agree bit for bit with Graph.Decode on the
	// complete defect set.
	model := chainModel(40, []float64{0.01, 0.02, 0.015})
	dec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	detRound := uniformRounds(40, 4)
	st, err := dec.NewStream(detRound, StreamConfig{Window: 10, Commit: 10})
	if err != nil {
		t.Fatal(err)
	}
	g, err := dec.ufGraph()
	if err != nil {
		t.Fatal(err)
	}
	ufs := g.NewScratch()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		defects := randomDefects(rng, 40, 10)
		st.Reset()
		r := 0
		var round []int
		for _, d := range defects {
			for d >= (r+1)*4 {
				if err := st.PushRound(round); err != nil {
					t.Fatal(err)
				}
				round = round[:0]
				r++
			}
			round = append(round, d)
		}
		for ; r < st.NumRounds(); r++ {
			if err := st.PushRound(round); err != nil {
				t.Fatal(err)
			}
			round = round[:0]
		}
		got, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.Decode(defects, ufs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d defects %v: stream %b != whole-shot %b", trial, defects, got, want)
		}
	}
}

func TestStreamCommittedRegionsMatchWholeShot(t *testing.T) {
	// Sliding small windows: on defect sets wholly inside one committed
	// region (isolated pairs far from every commit horizon crossing), the
	// committed corrections must equal the whole-shot ones — here checked
	// end to end: the final prediction matches the whole-shot decode.
	model := chainModel(60, []float64{0.01, 0.02, 0.015})
	dec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	detRound := uniformRounds(60, 4) // 15 rounds
	st, err := dec.NewStream(detRound, StreamConfig{Window: 4, Commit: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := dec.ufGraph()
	if err != nil {
		t.Fatal(err)
	}
	ufs := g.NewScratch()
	// Adjacent defect pairs well inside single rounds: every cluster
	// resolves locally, windows only ever commit already-settled edges.
	cases := [][]int{
		{1, 2},
		{9, 10, 33, 34},
		{5, 6, 21, 22, 49, 50},
		{13, 14, 41, 42, 57, 58},
	}
	for _, defects := range cases {
		st.Reset()
		var round []int
		r := 0
		for _, d := range defects {
			for d >= (r+1)*4 {
				if err := st.PushRound(round); err != nil {
					t.Fatal(err)
				}
				round = round[:0]
				r++
			}
			round = append(round, d)
		}
		for ; r < st.NumRounds(); r++ {
			if err := st.PushRound(round); err != nil {
				t.Fatal(err)
			}
			round = round[:0]
		}
		got, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.Decode(defects, ufs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("defects %v: stream %b != whole-shot %b", defects, got, want)
		}
	}
}

// TestStreamVsWholeShotOnTilings is the streaming differential gate: on
// every architecture at fixed seeds, a full-window stream must reproduce
// whole-shot decoding exactly, and a small sliding window must stay within
// overlapping Wilson intervals of the whole-shot logical error rate.
func TestStreamVsWholeShotOnTilings(t *testing.T) {
	kinds := []device.Kind{
		device.KindSquare, device.KindHexagon, device.KindOctagon,
		device.KindHeavySquare, device.KindHeavyHexagon,
	}
	shots := 2500
	if testing.Short() {
		shots = 800
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			d := 3
			model, noisy, mem := synthesizedNoisyMemory(t, kind, d, 0.02)
			dec, err := NewWithOptions(model, Options{UnionFind: true})
			if err != nil {
				t.Fatal(err)
			}
			rounds := mem.DetectorRound[len(mem.DetectorRound)-1] + 1
			full, err := dec.NewStream(mem.DetectorRound, StreamConfig{Window: rounds, Commit: rounds})
			if err != nil {
				t.Fatal(err)
			}
			window := 3
			if window > rounds {
				window = rounds
			}
			small, err := dec.NewStream(mem.DetectorRound, StreamConfig{Window: window, Commit: 1})
			if err != nil {
				t.Fatal(err)
			}
			g, err := dec.ufGraph()
			if err != nil {
				t.Fatal(err)
			}
			ufs := g.NewScratch()
			sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(int64(500+kind))))
			if err != nil {
				t.Fatal(err)
			}
			batch := sampler.Sample(shots)
			var fullErrs, smallErrs, wholeErrs int
			var defects []int
			for shot := 0; shot < batch.Shots; shot++ {
				actual := batch.ObservableMask(shot)
				defects = batch.AppendShotDetectors(defects[:0], shot)
				whole, err := g.Decode(defects, ufs)
				if err != nil {
					t.Fatalf("shot %d whole: %v", shot, err)
				}
				gotFull := streamShot(t, full, batch, shot)
				if gotFull != whole {
					t.Fatalf("shot %d: full-window stream %b != whole-shot %b", shot, gotFull, whole)
				}
				gotSmall := streamShot(t, small, batch, shot)
				if whole != actual {
					wholeErrs++
				}
				if gotFull != actual {
					fullErrs++
				}
				if gotSmall != actual {
					smallErrs++
				}
			}
			if fullErrs != wholeErrs {
				t.Fatalf("full-window stream LER diverged: %d vs %d", fullErrs, wholeErrs)
			}
			sLo, sHi := stats.WilsonInterval(smallErrs, shots, 3)
			wLo, wHi := stats.WilsonInterval(wholeErrs, shots, 3)
			if sLo > wHi || wLo > sHi {
				t.Fatalf("small-window LER %d/%d [%f,%f] vs whole-shot %d/%d [%f,%f]: intervals disjoint",
					smallErrs, shots, sLo, sHi, wholeErrs, shots, wLo, wHi)
			}
			fullStats := full.TakeStats()
			if fullStats.WindowCommits != shots {
				t.Fatalf("full-window stream committed %d windows over %d shots", fullStats.WindowCommits, shots)
			}
			smallStats := small.TakeStats()
			if smallStats.WindowCommits < shots {
				t.Fatalf("small-window stream committed only %d windows over %d shots", smallStats.WindowCommits, shots)
			}
			t.Logf("%v: whole %d, full-stream %d, small-stream %d errors over %d shots (%d window commits)",
				kind, wholeErrs, fullErrs, smallErrs, shots, smallStats.WindowCommits)
		})
	}
}

func TestStreamValidation(t *testing.T) {
	model := chainModel(20, []float64{0.02})
	dec, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	detRound := uniformRounds(20, 4)
	if _, err := dec.NewStream(detRound[:10], StreamConfig{Window: 2, Commit: 1}); err == nil {
		t.Fatal("short round map accepted")
	}
	if _, err := dec.NewStream(detRound, StreamConfig{Window: 0, Commit: 1}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := dec.NewStream(detRound, StreamConfig{Window: 2, Commit: 3}); err == nil {
		t.Fatal("commit > window accepted")
	}
	bad := append([]int(nil), detRound...)
	bad[5], bad[6] = bad[6], bad[5]
	bad[5] = 9
	if _, err := dec.NewStream(bad, StreamConfig{Window: 2, Commit: 1}); err == nil {
		t.Fatal("non-monotone round map accepted")
	}
	st, err := dec.NewStream(detRound, StreamConfig{Window: 2, Commit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PushRound([]int{17}); err == nil {
		t.Fatal("detector outside its round accepted")
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("Finish before all rounds accepted")
	}
	st.Reset()
	for r := 0; r < st.NumRounds(); r++ {
		if err := st.PushRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PushRound(nil); err == nil {
		t.Fatal("extra round accepted")
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
	if err := st.PushRound(nil); err == nil {
		t.Fatal("PushRound after Finish accepted")
	}
}

func TestStreamDecodeZeroAlloc(t *testing.T) {
	// The per-shot streaming loop (Reset + PushRound per round + Finish)
	// must be allocation-free at steady state.
	c := noise.Uniform(0.05).MustApply(repetitionMemory(7, 7))
	model, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	// The repetition-memory helper has no round map; detectors are emitted
	// in round order, so a uniform partition is a faithful stand-in.
	perRound := dec.numDet / 7
	if perRound == 0 {
		perRound = 1
	}
	detRound := uniformRounds(dec.numDet, perRound)
	st, err := dec.NewStream(detRound, StreamConfig{Window: 3, Commit: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := frame.NewSampler(c, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	batch := sampler.Sample(200)
	var buf []int
	decodeAll := func() {
		for shot := 0; shot < batch.Shots; shot++ {
			st.Reset()
			buf = batch.AppendShotDetectors(buf[:0], shot)
			if err := pushRounds(st, buf); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // warm pools to steady state
	buf = buf[:0]
	allocs := testing.AllocsPerRun(10, decodeAll)
	if allocs != 0 {
		t.Fatalf("streaming decode allocates %.1f/batch at steady state; want 0", allocs)
	}
	st.TakeStats()
}
