package surgery

import (
	"context"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/synth"
)

// BenchmarkPack times the placement search of a vertical pair of d=5
// patches joined by a ZZ merge on a 20×24 square tiling: every patch and
// merge lattice of every base tried is synthesized.
func BenchmarkPack(b *testing.B) {
	dev := device.Square(20, 24)
	spec := twoPatchSpec(5, JointZZ)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(context.Background(), dev, spec, synth.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
