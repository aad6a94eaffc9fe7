package experiment

import (
	"context"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/synth"
)

// TestDistance5MemoryAllArchitectures assembles (and therefore
// determinism-verifies) a distance-5 memory on every Table 1 architecture.
func TestDistance5MemoryAllArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("d=5 tableau verification across architectures in short mode")
	}
	for _, kind := range device.AllKinds() {
		dev, layout, err := synth.FitDevice(kind, 5, synth.ModeDefault)
		if err != nil {
			t.Errorf("%v: %v", kind, err)
			continue
		}
		s, err := synth.SynthesizeOnLayout(context.Background(), layout, synth.Options{})
		if err != nil {
			t.Errorf("%v: %v", kind, err)
			continue
		}
		m, err := NewMemory(s, 3, Options{})
		if err != nil {
			t.Errorf("%v d=5 memory: %v", kind, err)
			continue
		}
		if m.NumDetectors() == 0 {
			t.Errorf("%v: no detectors", kind)
		}
		_ = dev
	}
}
