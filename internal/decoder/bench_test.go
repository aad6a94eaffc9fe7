package decoder

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// The decode benchmarks sample fixed-seed batches of benchShots shots, at
// benchP, or at benchPK3 for the rows restricted to syndromes with at least
// three defects (the k>=3 tail that skips the closed forms).
const (
	benchShots = 4096
	benchP     = 0.002
	benchPK3   = 0.02
)

// benchRow is one decoder configuration timed over a shot stream.
type benchRow struct {
	name string
	opts Options
	// blossomOnly times decodeBlossom on every non-empty defect set: the
	// exact reference, with no closed forms and no cache.
	blossomOnly bool
}

var (
	fastRows = []benchRow{{name: "fast"}, {name: "blossom-only", blossomOnly: true}}
	ufRows   = []benchRow{{name: "uf", opts: Options{UnionFind: true}}, {name: "blossom"}}
)

// sampleBatch samples shots of a noisy circuit with a fixed seed and
// extracts its detector error model.
func sampleBatch(tb testing.TB, c *circuit.Circuit, seed int64, shots int) (*dem.Model, *frame.Batch) {
	tb.Helper()
	model, err := dem.FromCircuit(c)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := frame.NewSampler(c, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return model, s.Sample(shots)
}

// squareBatch samples the distance-d square-tiling memory over d rounds at
// physical error rate p, and returns its detector-to-round map too.
func squareBatch(b *testing.B, d int, p float64) (*dem.Model, []int, *frame.Batch) {
	b.Helper()
	_, mem := fittedMemory(b, device.KindSquare, d, d)
	c, err := mem.Noisy(noise.Uniform(p))
	if err != nil {
		b.Fatal(err)
	}
	model, batch := sampleBatch(b, c, int64(1000+d), benchShots)
	return model, mem.DetectorRound, batch
}

// mergedCircuit builds the distance-d lattice-surgery circuit of two square
// patches joined by a vertical ZZ merge at benchP, whose merged detector
// graph spans both patches and the seam.
func mergedCircuit(tb testing.TB, d int) *circuit.Circuit {
	tb.Helper()
	spec := surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: d}, {Name: "b", Row: 1, Distance: d}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: surgery.JointZZ}},
	}
	pl, err := surgery.Pack(context.Background(), device.Square(4*d, 5*d-1), spec, synth.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := surgery.NewExperiment(pl, surgery.Options{SkipVerify: true})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := e.Noisy(noise.Uniform(benchP))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// mergedBatch samples the merged circuit of mergedCircuit.
func mergedBatch(b *testing.B, d int) (*dem.Model, *frame.Batch) {
	b.Helper()
	return sampleBatch(b, mergedCircuit(b, d), int64(2000+d), benchShots)
}

// defectSets extracts the defect set of every shot with at least minK
// defects.
func defectSets(batch *frame.Batch, minK int) [][]int {
	var sets [][]int
	for shot := 0; shot < batch.Shots; shot++ {
		if defects := batch.ShotDetectors(shot); len(defects) >= minK {
			sets = append(sets, defects)
		}
	}
	return sets
}

// benchRows runs every row as a sub-benchmark over the same defect sets,
// each on a decoder compiled for it.
func benchRows(b *testing.B, label string, model *dem.Model, sets [][]int, rows []benchRow) {
	for _, r := range rows {
		b.Run(r.name+"/"+label, func(b *testing.B) {
			dec, err := NewWithOptions(model, r.opts)
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, dec, sets, r.blossomOnly)
		})
	}
}

// benchDecode times b.N passes over the defect sets and reports ns/shot.
// One untimed pass first warms the lazy rows, the union-find graph and the
// scratch; every timed pass then starts from an empty syndrome cache, so
// hits are only the repeats within one pass, never replays of an earlier
// one. Rows that use the cache also report the last pass's hit ratio.
func benchDecode(b *testing.B, dec *Decoder, sets [][]int, blossomOnly bool) {
	s := dec.NewScratch()
	pass := func() (hits, lookups int) {
		for _, defects := range sets {
			if len(defects) == 0 {
				continue
			}
			var hit bool
			var err error
			if blossomOnly {
				_, _, err = dec.decodeBlossom(defects, s)
			} else {
				_, hit, _, err = dec.decode(defects, s)
			}
			if err != nil {
				b.Fatal(err)
			}
			lookups++
			if hit {
				hits++
			}
		}
		return hits, lookups
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	var hits, lookups int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dec.cache = newSynCache(cacheSize)
		b.StartTimer()
		hits, lookups = pass()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/shot")
	if !blossomOnly && lookups > 0 {
		b.ReportMetric(float64(hits)/float64(lookups), "cache-hit-ratio")
	}
}

// BenchmarkFastPath times the fast path (closed forms, syndrome cache,
// blossom for k>=3) against the blossom-only reference on synthesized
// square-tiling memories.
func BenchmarkFastPath(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		model, _, batch := squareBatch(b, d, benchP)
		benchRows(b, fmt.Sprintf("d=%d", d), model, defectSets(batch, 0), fastRows)
	}
}

// BenchmarkUnionFindK3 times union-find against blossom on the shots of
// square-tiling memories at benchPK3 that carry at least three defects.
func BenchmarkUnionFindK3(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		model, _, batch := squareBatch(b, d, benchPK3)
		benchRows(b, fmt.Sprintf("d=%d", d), model, defectSets(batch, 3), ufRows)
	}
}

// BenchmarkUnionFindMerged times union-find against blossom on the merged
// graph of a distance-5 two-patch ZZ lattice-surgery circuit.
func BenchmarkUnionFindMerged(b *testing.B) {
	model, batch := mergedBatch(b, 5)
	benchRows(b, "d=5", model, defectSets(batch, 0), ufRows)
}

// BenchmarkRows times every shortest-path row of a freshly compiled decoder
// for the heavy-hexagon d=5 memory over 15 rounds at benchP, on one reused
// scratch: the work a verify pass or the first shots of a point do before
// decoding reaches steady state.
func BenchmarkRows(b *testing.B) {
	_, mem := fittedMemory(b, device.KindHeavyHexagon, 5, 15)
	c, err := mem.Noisy(noise.Uniform(benchP))
	if err != nil {
		b.Fatal(err)
	}
	model, err := dem.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := New(model)
	if err != nil {
		b.Fatal(err)
	}
	s := dec.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dec.rows = make([]atomic.Pointer[pathRow], len(dec.rows))
		b.StartTimer()
		for src := range dec.rows {
			dec.row(src, s)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dec.rows)), "ns/row")
}

// BenchmarkStream times sliding-window streaming decode — a 3-round window
// committing 1 round per step — round by round over every shot of the
// square-tiling memories.
func BenchmarkStream(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		model, detRound, batch := squareBatch(b, d, benchP)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			dec, err := NewWithOptions(model, Options{UnionFind: true})
			if err != nil {
				b.Fatal(err)
			}
			st, err := dec.NewStream(detRound, StreamConfig{Window: 3, Commit: 1})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]int, 0, 64)
			pass := func() {
				for shot := 0; shot < batch.Shots; shot++ {
					st.Reset()
					for r := 0; r < st.NumRounds(); r++ {
						lo, hi := st.RoundRange(r)
						buf = batch.AppendShotDetectorsRange(buf[:0], shot, lo, hi)
						if err := st.PushRound(buf); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := st.Finish(); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Shots), "ns/shot")
		})
	}
}
