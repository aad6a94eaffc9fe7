package distance_test

import (
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/distance"
)

// BenchmarkCertify times certification of the octagon and heavy-hexagon
// d=5 memories over 15 rounds at p=0.001, graph build and search together.
func BenchmarkCertify(b *testing.B) {
	for _, bc := range []struct {
		name string
		kind device.Kind
	}{{"octagon-d5", device.KindOctagon}, {"heavy-hexagon-d5", device.KindHeavyHexagon}} {
		model := memoryDEM(b, bc.kind, 5, 15)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := distance.Certify(model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCertifyAllocs gates certification of the heavy-hexagon d=5 memory
// over 15 rounds at 200 allocations: the graph is presized from the model,
// compiled once, and searched on one reused scratch.
func TestCertifyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a d=5 memory")
	}
	model := memoryDEM(t, device.KindHeavyHexagon, 5, 15)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := distance.Certify(model); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 200 {
		t.Fatalf("Certify allocates %.0f times on heavy-hexagon d=5 over 15 rounds; want at most 200", allocs)
	}
}
