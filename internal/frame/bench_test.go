package frame

import (
	"context"
	"math/rand"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// benchCircuit builds a representative noisy stabilizer-round circuit.
func benchCircuit(qubits, rounds int) *circuit.Circuit {
	b := circuit.NewBuilder(qubits)
	all := make([]int, qubits)
	for i := range all {
		all[i] = i
	}
	for r := 0; r < rounds; r++ {
		b.Begin().R(all[qubits/2:]...)
		b.Begin()
		var pairs []int
		for i := 0; i < qubits/2; i++ {
			pairs = append(pairs, i, qubits/2+i)
		}
		b.CX(pairs...)
		b.Noise(circuit.OpDepolarize2, 0.001, pairs...)
		b.Begin()
		recs := b.M(all[qubits/2:]...)
		for _, rec := range recs {
			b.Detector(rec)
		}
		b.Noise(circuit.OpDepolarize1, 0.0002, all...)
	}
	return b.MustBuild()
}

// BenchmarkSample measures bit-parallel frame sampling throughput.
func BenchmarkSample(b *testing.B) {
	c := benchCircuit(64, 10)
	s, err := NewSampler(c, rand.New(rand.NewSource(12345)))
	if err != nil {
		b.Fatal(err)
	}
	shots := 100000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := s.Sample(shots)
		_ = batch
	}
	b.ReportMetric(float64(shots), "shots/op")
}

// pointSparseCircuit is the noisy circuit of the point-sparse benchmark
// workload: the square-tiling d=3 memory over 9 rounds at p=0.0005, with
// the default idle noise on every qubit.
func pointSparseCircuit(tb testing.TB) *circuit.Circuit {
	tb.Helper()
	s, err := synth.Synthesize(context.Background(), device.Square(4, 4), 3, synth.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := experiment.NewMemory(s, 9, experiment.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := mem.Noisy(noise.Model{GateError: 0.0005, IdleError: noise.DefaultIdleError, IdleOnly: s.AllQubits()})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// sampled keeps benchmarked batches live so the sampling is not optimized
// away.
var sampled *Batch

// BenchmarkSampleChunk times one 1024-shot chunk of the point-sparse
// circuit, the Monte-Carlo engine's unit of sampling, into a fresh batch
// and into one batch reused across chunks.
func BenchmarkSampleChunk(b *testing.B) {
	const shots = 1024
	cs, err := NewChunkedSampler(pointSparseCircuit(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sampled = cs.SampleChunk(rng, shots)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shots), "ns/shot")
	})
	b.Run("reused", func(b *testing.B) {
		batch := &Batch{}
		cs.SampleInto(batch, rng, shots)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.SampleInto(batch, rng, shots)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shots), "ns/shot")
	})
}
