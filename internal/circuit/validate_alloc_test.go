package circuit_test

import (
	"context"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// TestValidateAllocs gates Validate at one allocation a call, its qubit
// stamp slice, on the noisy circuit of a near-threshold point: the
// heavy-hexagon d=5 memory on a 5x4 device over 15 rounds at p=0.002, which
// a threshold point validates three times (noise, DEM extraction and the
// frame sampler).
func TestValidateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a d=5 memory")
	}
	s, err := synth.Synthesize(context.Background(), device.HeavyHexagon(5, 4), 5, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := experiment.NewMemory(s, 15, experiment.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := noise.Model{GateError: 0.002, IdleError: noise.DefaultIdleError, IdleOnly: s.AllQubits()}.Apply(mem.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Validate allocates %.1f times on a %d-moment circuit; want at most 1", allocs, len(c.Moments))
	}
}
