package dem_test

import (
	"context"
	"runtime"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
	"surfstitch/internal/tableau"
)

// pointDecodeMemory builds the memory of the point-decode benchmark
// workload: heavy-hexagon d=5 on a 5x4 device over 15 rounds.
func pointDecodeMemory(tb testing.TB) *experiment.Memory {
	tb.Helper()
	s, err := synth.Synthesize(context.Background(), device.HeavyHexagon(5, 4), 5, synth.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := experiment.NewMemory(s, 15, experiment.Options{SkipVerify: true})
	if err != nil {
		tb.Fatal(err)
	}
	return mem
}

// noisy applies the uniform model at p=0.002, idle noise on the qubits the
// code uses.
func noisy(tb testing.TB, mem *experiment.Memory) *circuit.Circuit {
	tb.Helper()
	c, err := mem.Noisy(noise.Uniform(0.002))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkFromCircuit times extraction at p=0.002 of the octagon d=5
// memory over 15 rounds, the model a verify pass or a point on that code
// extracts, and of point-decode's heavy-hexagon memory.
func BenchmarkFromCircuit(b *testing.B) {
	octagon, err := experiment.NewMemory(synthesize(b, device.KindOctagon, 5), 15, experiment.Options{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		mem  *experiment.Memory
	}{{"octagon-d5", octagon}, {"heavy-hexagon-d5", pointDecodeMemory(b)}} {
		c := noisy(b, bc.mem)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dem.FromCircuit(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckDeterminism times the exact determinism check and the three
// randomized tableau runs it replaces on point-decode's noiseless circuit.
func BenchmarkCheckDeterminism(b *testing.B) {
	c := pointDecodeMemory(b).Circuit
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dem.CheckDeterminism(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tableau", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := tableau.Reference(c, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFromCircuitAllocs gates extraction of point-decode's noisy circuit at
// 40 bytes allocated per lane, one lane per elementary Pauli mechanism, and
// at 200 allocations: grouping lanes allocates only as its tables grow.
func TestFromCircuitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a d=5 memory")
	}
	c := noisy(t, pointDecodeMemory(t))
	lanes := 0
	for _, m := range c.Moments {
		for _, nz := range m.Noise {
			switch nz.Op {
			case circuit.OpDepolarize1:
				lanes += 3 * len(nz.Qubits)
			case circuit.OpDepolarize2:
				lanes += 15 * len(nz.Qubits) / 2
			default:
				lanes += len(nz.Qubits)
			}
		}
	}
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := dem.FromCircuit(c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLane := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(lanes)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.1f bytes per lane over %d lanes, %.0f allocations", perLane, lanes, allocs)
	if perLane > 40 {
		t.Fatalf("FromCircuit allocates %.1f bytes per lane on a %d-lane circuit; want at most 40", perLane, lanes)
	}
	if allocs > 200 {
		t.Fatalf("FromCircuit allocates %.0f times on point-decode's circuit; want at most 200", allocs)
	}
}

// TestReferenceAllocs gates the tableau's three randomized runs of
// point-decode's noiseless circuit, the check verification runs beside
// CheckDeterminism, at 200 allocations: a run allocates its tableau, RNG
// and presized record once, and a collapse allocates nothing.
func TestReferenceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a d=5 memory")
	}
	c := pointDecodeMemory(t).Circuit
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := tableau.Reference(c, 3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 200 {
		t.Fatalf("tableau.Reference(c, 3) allocates %.0f times on point-decode's circuit; want at most 200", allocs)
	}
}
