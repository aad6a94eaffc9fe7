// Benchmark harness regenerating every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index). Each benchmark runs
// the full pipeline behind its artifact at reduced Monte-Carlo settings and
// reports the headline quantities via b.ReportMetric; the cmd/ tools run the
// same code at paper-scale settings.
//
// Run all:  go test -bench=. -benchmem
// One:      go test -bench=BenchmarkFigure9a -benchtime=1x
package surfstitch

import (
	"context"
	"runtime"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/paper"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
)

func benchConfig() paper.Config {
	return paper.Config{
		Shots: 1500,
		Seed:  1,
		Ps:    []float64{0.0005, 0.001, 0.002, 0.004, 0.006},
	}
}

// BenchmarkFigure9a regenerates Figure 9(a): Surf-Stitch vs the IBM code on
// the heavy-hexagon architecture (distance 3 and 5 curves, thresholds).
func BenchmarkFigure9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs, err := paper.Figure9a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pairs[0].Threshold, "surf-threshold-%")
		b.ReportMetric(100*pairs[1].Threshold, "ibm-threshold-%")
	}
}

// BenchmarkFigure9b regenerates Figure 9(b): the heavy-square comparison.
func BenchmarkFigure9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs, err := paper.Figure9b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pairs[0].Threshold, "threshold-%")
	}
}

// BenchmarkTable2 regenerates the stabilizer-measurement statistics of
// Table 2 (without the threshold column; Figure 9 covers thresholds).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.Table2(benchConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Code == "Surf-Stitch Heavy Square" {
				b.ReportMetric(r.AvgCNOT, "heavy-square-cnots")
			}
		}
	}
}

// BenchmarkTable3 regenerates the distance-5 qubit-utilization table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Code == "Surf-Stitch Square" {
				b.ReportMetric(float64(r.TotalQubits), "square-qubits")
			}
		}
	}
}

// BenchmarkTable4 regenerates the resource-scaling table (d = 3, 5, 7).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.Table4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Code == "Surf-Stitch Square" && r.Distance == 7 {
				b.ReportMetric(float64(r.TwoQubit), "square-d7-cnots")
			}
		}
	}
}

// BenchmarkFigure10 regenerates the Figure 10 synthesis gallery.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11a regenerates the bridge-tree vs revised-SABRE routing
// comparison.
func BenchmarkFigure11a(b *testing.B) {
	cfg := benchConfig()
	cfg.Ps = []float64{0.001, 0.002}
	for i := 0; i < b.N; i++ {
		res, err := paper.Figure11a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.RoutedCNOTs)/float64(res.SurfCNOTs), "cnot-overhead-x")
	}
}

// BenchmarkFigure11b regenerates the schedule comparison as idle error grows.
func BenchmarkFigure11b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Figure11b(benchConfig(), 0.002, []float64{0.0002, 0.001, 0.002})
		if err != nil {
			b.Fatal(err)
		}
		last := res[len(res)-1]
		if last.RefinedLogical > 0 {
			b.ReportMetric(last.TwoStageLogical/last.RefinedLogical, "two-stage-penalty-x")
		}
	}
}

// BenchmarkAllocationStudy regenerates the §5.4 allocator validity study.
func BenchmarkAllocationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.AllocationStudy(200, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res[0].Valid)/float64(res[0].Trials), "surfstitch-valid-rate")
		b.ReportMetric(float64(res[1].Valid)/float64(res[1].Trials), "random-valid-rate")
	}
}

// BenchmarkSynthesize measures the synthesis pipeline itself on each
// architecture (compiler speed rather than code quality).
func BenchmarkSynthesize(b *testing.B) {
	cases := []struct {
		name string
		arch Architecture
		w, h int
		mode Mode
	}{
		{"Square", Square, 8, 4, ModeDefault},
		{"Hexagon", Hexagon, 4, 6, ModeDefault},
		{"Octagon", Octagon, 4, 4, ModeDefault},
		{"HeavySquare", HeavySquare, 4, 3, ModeDefault},
		{"HeavyHexagon", HeavyHexagon, 4, 5, ModeDefault},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dev := MustDevice(c.arch, c.w, c.h)
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(context.Background(), dev, 3, Options{Mode: c.mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchEstimatePoint measures one d=5 heavy-hexagon memory sweep point on
// the internal/mc engine at the given worker count (0 = NumCPU). The DEM
// build and decoder construction run once per iteration, as in a real sweep;
// sampling and decoding dominate at this shot count.
func benchEstimatePoint(b *testing.B, workers int) {
	_, layout, err := synth.FitDevice(device.KindHeavyHexagon, 5, synth.ModeDefault)
	if err != nil {
		b.Fatal(err)
	}
	s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mem, err := experiment.NewMemory(s, 15, experiment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := threshold.Input{Circuit: mem.Circuit, IdleQubits: s.AllQubits()}
	cfg := threshold.Config{Shots: 20000, Seed: 1, Workers: workers}
	b.ResetTimer()
	shots := 0
	for i := 0; i < b.N; i++ {
		pt, err := threshold.EstimatePoint(in, 0.003, cfg)
		if err != nil {
			b.Fatal(err)
		}
		shots += pt.Shots
		b.ReportMetric(pt.Logical, "logical-rate")
	}
	b.ReportMetric(float64(shots)/b.Elapsed().Seconds(), "shots/s")
}

// BenchmarkEstimatePointSerial is the single-worker baseline of the d=5
// heavy-hexagon memory point.
func BenchmarkEstimatePointSerial(b *testing.B) { benchEstimatePoint(b, 1) }

// BenchmarkEstimatePointParallel runs the same point on a NumCPU worker
// pool; at 8+ cores the sharded engine is expected to be >= 3x faster than
// the serial path, with bit-identical curve output for the fixed seed.
func BenchmarkEstimatePointParallel(b *testing.B) {
	b.Logf("workers = %d", runtime.NumCPU())
	benchEstimatePoint(b, 0)
}

// BenchmarkEndToEnd measures the full memory-experiment pipeline (noise,
// DEM extraction, decoding) per 1000 shots on the heavy-square code.
func BenchmarkEndToEnd(b *testing.B) {
	dev := MustDevice(HeavySquare, 4, 3)
	syn, err := Synthesize(context.Background(), dev, 3, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := EstimateLogicalErrorRate(context.Background(), syn, 0.002, RunConfig{Shots: 1000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
