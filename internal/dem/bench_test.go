package dem_test

import (
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
)

// BenchmarkFromCircuit times extraction of the octagon d=5 memory over 15
// rounds at p=0.002: the model a verify pass or a point on that code
// extracts.
func BenchmarkFromCircuit(b *testing.B) {
	mem, err := experiment.NewMemory(synthesize(b, device.KindOctagon, 5), 15, experiment.Options{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	c, err := mem.Noisy(noise.Uniform(0.002))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dem.FromCircuit(c); err != nil {
			b.Fatal(err)
		}
	}
}
