package verify

import (
	"context"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/synth"
)

// BenchmarkVerify times a full verification of the heavy-hexagon d=5 code
// on its minimal tiling: determinism, error-model extraction, certification
// and the single-fault sweep, which runs on GOMAXPROCS workers (set it with
// -cpu).
func BenchmarkVerify(b *testing.B) {
	s, err := synth.Synthesize(context.Background(), devicetest.ForDistance(b, device.KindHeavyHexagon, 5), 5, synth.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := Synthesis(s, Options{}); !r.Deterministic {
			b.Fatalf("verification did not run:\n%s", r)
		}
	}
}
