package threshold

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/stats"
	"surfstitch/internal/synth"
)

func memoryInput(t *testing.T, dev *device.Device, d int, mode synth.Mode, rounds int) (Input, *experiment.Memory) {
	t.Helper()
	s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.NewMemory(s, rounds, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Input{Circuit: m.Circuit, IdleQubits: s.AllQubits()}, m
}

func TestSweepLogSpaced(t *testing.T) {
	ps, err := Sweep(0.001, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 5 {
		t.Fatalf("len = %d", len(ps))
	}
	if math.Abs(ps[0]-0.001) > 1e-12 || math.Abs(ps[4]-0.01) > 1e-12 {
		t.Errorf("endpoints = %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Error("sweep not increasing")
		}
	}
	ratio := ps[1] / ps[0]
	for i := 2; i < len(ps); i++ {
		if math.Abs(ps[i]/ps[i-1]-ratio) > 1e-9 {
			t.Error("sweep not log-spaced")
		}
	}
}

func TestSweepRejectsBadRange(t *testing.T) {
	for _, bad := range []struct {
		lo, hi float64
		n      int
	}{
		{0.01, 0.001, 5}, // inverted range
		{0, 0.01, 5},     // non-positive lo
		{0.001, 0.01, 1}, // too few points
	} {
		if _, err := Sweep(bad.lo, bad.hi, bad.n); err == nil {
			t.Errorf("Sweep(%g, %g, %d) accepted a degenerate range", bad.lo, bad.hi, bad.n)
		}
	}
}

func TestEstimatePointZeroNoise(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	// NoIdle expresses a truly idle-noise-free run; the zero IdleError value
	// alone means "paper default" for back compatibility.
	pt, err := EstimatePoint(prov, 0, Config{Shots: 500, NoIdle: true})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Errors != 0 {
		t.Errorf("zero-noise logical errors = %d", pt.Errors)
	}
	if pt.Shots != 500 {
		t.Errorf("shots = %d, want 500", pt.Shots)
	}
}

func TestIdleErrorZeroStillMeansDefault(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.IdleError == 0 {
		t.Fatal("zero IdleError should fall back to the paper default")
	}
	off := Config{NoIdle: true}.WithDefaults()
	if off.IdleError != 0 {
		t.Fatalf("NoIdle config has IdleError = %g, want 0", off.IdleError)
	}
	// WithDefaults must be idempotent: curve estimation re-applies it.
	if again := off.WithDefaults(); again.IdleError != 0 {
		t.Fatal("NoIdle lost on second WithDefaults")
	}
}

func TestLogicalRateIncreasesWithP(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 3)
	cfg := Config{Shots: 3000, Seed: 5}
	low, err := EstimatePoint(prov, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	high, err := EstimatePoint(prov, 0.02, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if high.Logical <= low.Logical {
		t.Errorf("logical rate not increasing: %.4f @0.001 vs %.4f @0.02", low.Logical, high.Logical)
	}
}

func TestEstimateCurveShape(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 3)
	ps := []float64{0.002, 0.008}
	curve, err := EstimateCurve("test", 3, prov, ps, Config{Shots: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 || curve.Distance != 3 || curve.Label != "test" {
		t.Fatalf("curve = %+v", curve)
	}
	for i, pt := range curve.Points {
		if pt.P != ps[i] || pt.Shots != 1500 {
			t.Errorf("point %d = %+v", i, pt)
		}
		if pt.Logical != float64(pt.Errors)/float64(pt.Shots) {
			t.Errorf("point %d rate inconsistent", i)
		}
	}
}

func TestPointStdErr(t *testing.T) {
	pt := Point{P: 0.01, Shots: 10000, Errors: 100, Logical: 0.01}
	se := pt.StdErr()
	want := math.Sqrt(0.01 * 0.99 / 10000)
	if math.Abs(se-want) > 1e-12 {
		t.Errorf("StdErr = %g, want %g", se, want)
	}
	if (Point{}).StdErr() != 0 {
		t.Error("zero-shot stderr should be 0")
	}
}

func TestCrossingSynthetic(t *testing.T) {
	// Construct curves that cross between p=0.004 and p=0.008:
	// below threshold d5 < d3, above d5 > d3.
	d3 := Curve{Distance: 3, Points: []Point{
		{P: 0.002, Logical: 0.010, Errors: 10, Shots: 1000},
		{P: 0.004, Logical: 0.030, Errors: 30, Shots: 1000},
		{P: 0.008, Logical: 0.080, Errors: 80, Shots: 1000},
	}}
	d5 := Curve{Distance: 5, Points: []Point{
		{P: 0.002, Logical: 0.002, Errors: 2, Shots: 1000},
		{P: 0.004, Logical: 0.020, Errors: 20, Shots: 1000},
		{P: 0.008, Logical: 0.150, Errors: 150, Shots: 1000},
	}}
	p, ok := Crossing(d3, d5)
	if !ok {
		t.Fatal("no crossing found")
	}
	if p <= 0.004 || p >= 0.008 {
		t.Errorf("crossing at %g, want within (0.004, 0.008)", p)
	}
}

func TestCrossingAbsent(t *testing.T) {
	d3 := Curve{Points: []Point{{P: 0.001, Logical: 0.01}, {P: 0.01, Logical: 0.1}}}
	d5 := Curve{Points: []Point{{P: 0.001, Logical: 0.001}, {P: 0.01, Logical: 0.05}}}
	if _, ok := Crossing(d3, d5); ok {
		t.Error("found crossing in non-crossing curves")
	}
	if _, ok := Crossing(Curve{}, Curve{}); ok {
		t.Error("empty curves crossed")
	}
}

func TestCrossingAtExactPoint(t *testing.T) {
	d3 := Curve{Points: []Point{{P: 0.001, Logical: 0.01}, {P: 0.01, Logical: 0.1}}}
	d5 := Curve{Points: []Point{{P: 0.001, Logical: 0.01}, {P: 0.01, Logical: 0.2}}}
	p, ok := Crossing(d3, d5)
	if !ok || p != 0.001 {
		t.Errorf("crossing = %g, %v; want 0.001, true", p, ok)
	}
}

func TestReproducibleForFixedSeed(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	cfg := Config{Shots: 1000, Seed: 99}
	a, err := EstimatePoint(prov, 0.01, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimatePoint(prov, 0.01, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Errors != b.Errors {
		t.Errorf("not reproducible: %d vs %d errors", a.Errors, b.Errors)
	}
}

func TestCurveDeterministicAcrossWorkers(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	ps := []float64{0.002, 0.008}
	var want Curve
	for i, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg := Config{Shots: 4096, Seed: 42, Workers: workers}
		got, err := EstimateCurve("det", 3, prov, ps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		for j := range ps {
			if got.Points[j] != want.Points[j] {
				t.Errorf("workers=%d point %d = %+v, want %+v (workers=1)",
					workers, j, got.Points[j], want.Points[j])
			}
		}
	}
}

func TestAdaptiveStopHonorsWilsonTarget(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	const target = 0.25
	cfg := Config{Shots: 200000, Seed: 9, TargetRSE: target}
	pt, err := EstimatePoint(prov, 0.02, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Shots >= cfg.Shots {
		t.Fatalf("adaptive run consumed the whole %d-shot budget", cfg.Shots)
	}
	if pt.Errors == 0 {
		t.Fatal("no errors at p=0.02; the stop rule cannot have fired")
	}
	if rhw := stats.WilsonRelHalfWidth(pt.Errors, pt.Shots, 1.96); rhw > target {
		t.Errorf("stopped at relative half-width %.3f > target %.3f", rhw, target)
	}
}

func TestEstimatePointCancellation(t *testing.T) {
	prov, _ := memoryInput(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimatePointContext(ctx, prov, 0.002, Config{Shots: 1 << 22}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPerRoundRate(t *testing.T) {
	// Composing k rounds of rate r gives total (1-(1-2r)^k)/2; inverting
	// recovers r.
	r := 0.01
	k := 9
	total := (1 - math.Pow(1-2*r, float64(k))) / 2
	got := PerRoundRate(total, k)
	if math.Abs(got-r) > 1e-12 {
		t.Errorf("PerRoundRate = %g, want %g", got, r)
	}
	if PerRoundRate(0, 5) != 0 || PerRoundRate(0.6, 5) != 0.5 {
		t.Error("edge cases broken")
	}
}

func TestRoundScalingConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	s, err := synth.Synthesize(context.Background(), device.Square(6, 6), 3, synth.Options{Mode: synth.ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	build := func(rounds int) (Input, error) {
		m, err := experiment.NewMemory(s, rounds, experiment.Options{})
		if err != nil {
			return Input{}, err
		}
		return Input{Circuit: m.Circuit, IdleQubits: s.AllQubits()}, nil
	}
	pts, err := RoundScaling(build, []int{3, 9}, 0.004, Config{Shots: 20000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r3, r9 := pts[0].Logical, pts[1].Logical
	t.Logf("per-round rates: 3 rounds %.5f, 9 rounds %.5f", r3, r9)
	if r3 <= 0 || r9 <= 0 {
		t.Fatal("zero per-round rates; raise shots")
	}
	// Boundary-time effects make short memories slightly optimistic; allow
	// a factor-2 window.
	if r3 > 2*r9 || r9 > 2*r3 {
		t.Errorf("per-round rates inconsistent: %.5f vs %.5f", r3, r9)
	}
}
