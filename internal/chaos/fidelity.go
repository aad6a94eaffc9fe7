package chaos

import (
	"context"
	"fmt"
	"strings"

	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/stats"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
	"surfstitch/internal/verify"
)

// The fidelity-degradation harness extends the defect chaos sweep to the
// calibration axis: instead of removing hardware it derates it, and instead
// of asserting "never panics" it asserts that the whole calibrated pipeline
// — snapshot generation, device-aware noise, DEM extraction, decoding —
// degrades monotonically. The library is the cross product
//
//	minimal tiling x defect preset x calibration snapshot (good/median/bad)
//
// and the invariants per (tiling, defect) group are:
//
//  1. every snapshot yields a finite logical error rate in [0, 1];
//  2. a strictly worse calibration band never yields a significantly
//     better logical error rate (Wilson intervals at z = orderingZ must
//     overlap or order correctly);
//  3. the certified fault distance of the calibration-aware synthesis
//     matches the uncalibrated one — derating error rates re-routes
//     bridge trees but must never change the code's protection.

// FidelityGroup is one (tiling, defect preset) cell of the library; the
// ladder runs every calibration snapshot against it.
type FidelityGroup struct {
	Kind      device.Kind
	Distance  int
	Generator string  // "" = pristine chip
	Density   float64 // defect density handed to the generator
}

// String renders the group compactly for violations and logs.
func (g FidelityGroup) String() string {
	if g.Generator == "" {
		return fmt.Sprintf("%v d=%d pristine", g.Kind, g.Distance)
	}
	return fmt.Sprintf("%v d=%d %s:%g", g.Kind, g.Distance, g.Generator, g.Density)
}

// FidelityGroups enumerates the scenario library: every minimal tiling,
// pristine and with a light random defect preset layered underneath.
func FidelityGroups() []FidelityGroup {
	var out []FidelityGroup
	for _, kind := range device.AllKinds() {
		out = append(out,
			FidelityGroup{Kind: kind, Distance: 3},
			FidelityGroup{Kind: kind, Distance: 3, Generator: "random", Density: 0.02},
		)
	}
	return out
}

// FidelityScenario is one cell of the library: a group plus the calibration
// snapshot applied to it. Seed drives defect generation, snapshot jitter and
// Monte-Carlo sampling alike, so a violation reproduces from its printed
// scenario alone.
type FidelityScenario struct {
	Group    FidelityGroup
	Snapshot string
	Seed     int64
}

func (sc FidelityScenario) String() string {
	return fmt.Sprintf("%v cal=%s seed=%d", sc.Group, sc.Snapshot, sc.Seed)
}

// FidelityResult is the short Monte-Carlo estimate of one scenario. The
// swept physical rate is the snapshot's reference rate (scale 1), so the
// point reflects the chip exactly as calibrated.
type FidelityResult struct {
	Scenario FidelityScenario
	Point    threshold.Point
	Degraded bool // the underlying synthesis dropped stabilizers
}

// FidelityShots is the default short-MC budget per scenario: enough for the
// disjoint preset bands to separate cleanly, small enough to keep the full
// library under a CI-friendly wall clock.
const FidelityShots = 2048

// orderingZ is the Wilson z used by the monotonicity invariant. Three sigma
// keeps the harness quiet on sampling noise while still catching a genuine
// inversion (the bands differ by factors, not percent).
const orderingZ = 3.0

// fidelityViolation mirrors Violation for the calibrated harness, reusing
// its error plumbing by embedding the group in a defect-style scenario
// string.
func fidelityViolation(sc FidelityScenario, msg string) *Violation {
	return &Violation{Scenario{Kind: sc.Group.Kind, Distance: sc.Group.Distance,
		Generator: sc.Group.Generator, Density: sc.Group.Density, Seed: sc.Seed}, "fidelity " + sc.String() + ": " + msg}
}

// RunFidelityLadder runs one group through every calibration snapshot and
// checks the invariants. The base circuit is synthesized once on the
// (possibly defected) uncalibrated device, so every snapshot decodes the
// same structure and the logical-rate ordering isolates the noise model. A
// group whose defect preset defeats synthesis entirely (typed failure)
// returns (nil, nil): the scenario is vacuous, not broken.
func RunFidelityLadder(ctx context.Context, g FidelityGroup, seed int64, shots int) (res []FidelityResult, v *Violation) {
	base := FidelityScenario{Group: g, Snapshot: "base", Seed: seed}
	defer func() {
		if r := recover(); r != nil {
			res = nil
			v = fidelityViolation(base, fmt.Sprintf("panic: %v", r))
		}
	}()

	wh, ok := minimalTilings[g.Kind]
	if !ok || g.Distance != 3 {
		return nil, fidelityViolation(base, fmt.Sprintf("no recorded tiling for %v at distance %d", g.Kind, g.Distance))
	}
	dev := device.ByKind(g.Kind, wh[0], wh[1])
	if g.Generator != "" {
		ds, err := device.GenerateDefects(dev, g.Generator, g.Density, seed)
		if err != nil {
			return nil, fidelityViolation(base, fmt.Sprintf("defect generation: %v", err))
		}
		dev, err = dev.WithDefects(ds)
		if err != nil {
			return nil, fidelityViolation(base, fmt.Sprintf("generated defect set rejected: %v", err))
		}
	}

	s, err := synth.SynthesizeDegraded(ctx, dev, g.Distance, synth.Options{})
	if err != nil {
		if !synth.IsTyped(err) {
			return nil, fidelityViolation(base, fmt.Sprintf("untyped synthesis error: %v", err))
		}
		return nil, nil // the defect preset defeated synthesis; vacuous group
	}
	if problems := verify.Structural(s); len(problems) != 0 {
		return nil, fidelityViolation(base, "structural: "+strings.Join(problems, "; "))
	}
	certBase, err := verify.CertifiedDistance(s)
	if err != nil {
		return nil, fidelityViolation(base, fmt.Sprintf("base distance certification: %v", err))
	}
	m, err := experiment.NewMemory(s, g.Distance, experiment.Options{})
	if err != nil {
		return nil, fidelityViolation(base, fmt.Sprintf("memory experiment: %v", err))
	}
	in := threshold.Input{Circuit: m.Circuit, IdleQubits: s.AllQubits()}

	for _, snapshot := range device.CalibrationSnapshots() {
		sc := FidelityScenario{Group: g, Snapshot: snapshot, Seed: seed}
		cal, err := device.GenerateCalibration(dev, snapshot, seed)
		if err != nil {
			return nil, fidelityViolation(sc, fmt.Sprintf("snapshot generation: %v", err))
		}
		calDev, err := dev.WithCalibration(cal)
		if err != nil {
			return nil, fidelityViolation(sc, fmt.Sprintf("snapshot rejected by its own device: %v", err))
		}

		// Invariant 3: calibration-aware routing must preserve the code's
		// certified protection — only the noise figures degraded.
		sCal, err := synth.SynthesizeDegraded(ctx, calDev, g.Distance, synth.Options{})
		if err != nil {
			return nil, fidelityViolation(sc, fmt.Sprintf("calibrated synthesis failed where uncalibrated succeeded: %v", err))
		}
		certCal, err := verify.CertifiedDistance(sCal)
		if err != nil {
			return nil, fidelityViolation(sc, fmt.Sprintf("calibrated distance certification: %v", err))
		}
		if certCal != certBase {
			return nil, fidelityViolation(sc, fmt.Sprintf(
				"calibration changed the certified fault distance: %d -> %d", certBase, certCal))
		}

		p := noise.ReferenceRate(cal)
		pt, err := threshold.EstimatePointContext(ctx, in, p, threshold.Config{
			Shots: shots,
			Seed:  seed,
			Noise: noise.BuilderFor(calDev),
		})
		if err != nil {
			return nil, fidelityViolation(sc, fmt.Sprintf("estimate: %v", err))
		}
		// Invariant 1: a finite, in-range logical error rate.
		if !(pt.Logical >= 0 && pt.Logical <= 1) || pt.Shots <= 0 {
			return nil, fidelityViolation(sc, fmt.Sprintf("logical error rate %g over %d shots is not a probability",
				pt.Logical, pt.Shots))
		}
		res = append(res, FidelityResult{Scenario: sc, Point: pt, Degraded: s.Degradation != nil})
	}

	// Invariant 2: walking down the snapshot ladder (good -> median -> bad)
	// must never significantly improve the logical error rate.
	for i := 1; i < len(res); i++ {
		better, worse := res[i-1], res[i]
		_, hiWorse := stats.WilsonInterval(worse.Point.Errors, worse.Point.Shots, orderingZ)
		loBetter, _ := stats.WilsonInterval(better.Point.Errors, better.Point.Shots, orderingZ)
		if hiWorse < loBetter {
			return nil, fidelityViolation(worse.Scenario, fmt.Sprintf(
				"degraded calibration improved the logical error rate: %s %g (>=%g) vs %s %g (<=%g)",
				better.Scenario.Snapshot, better.Point.Logical, loBetter,
				worse.Scenario.Snapshot, worse.Point.Logical, hiWorse))
		}
	}
	return res, nil
}
