package experiment

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// TestDistance7EndToEnd runs the whole pipeline at distance 7: synthesis,
// memory assembly (with the determinism check), error-model extraction, and
// decoding — and requires d=7 to beat d=5 well below threshold.
func TestDistance7EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("d=7 Monte Carlo in short mode")
	}
	start := time.Now()
	p := 0.004
	rates := map[int]float64{}
	for _, d := range []int{5, 7} {
		s, err := synth.Synthesize(context.Background(), device.Square(2*d, 2*d), d, synth.Options{Mode: synth.ModeFour})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMemory(s, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := m.Noisy(noise.Model{GateError: p, IdleError: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		model, err := dem.FromCircuit(noisy)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoder.New(model)
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := dec.DecodeBatch(sampler.Sample(6000))
		if err != nil {
			t.Fatal(err)
		}
		rates[d] = stats.LogicalErrorRate()
	}
	t.Logf("d=5: %.5f, d=7: %.5f (%.1fs)", rates[5], rates[7], time.Since(start).Seconds())
	if rates[7] >= rates[5] {
		t.Errorf("d=7 (%.5f) should beat d=5 (%.5f) at p=%.3f", rates[7], rates[5], p)
	}
}
