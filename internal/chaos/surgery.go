package chaos

import (
	"context"
	"errors"
	"fmt"

	"surfstitch/internal/device"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// surgeryTilings records per architecture the smallest tiling that hosts a
// vertically merged 2-patch distance-3 layout on a pristine device. As with
// minimalTilings, chaos runs at the minimum so injected defects actually
// displace or defeat the packing.
var surgeryTilings = map[device.Kind][2]int{
	device.KindSquare:      {8, 10},
	device.KindHeavySquare: {4, 7},
}

// SurgeryScenario is one reproducible 2-patch fault-injection trial: a
// vertical ZZ merge at distance 3 on a defect-injected device.
type SurgeryScenario struct {
	Kind      device.Kind
	Generator string
	Density   float64
	Seed      int64
}

// String renders the scenario compactly enough to paste into a reproducer.
func (sc SurgeryScenario) String() string {
	return fmt.Sprintf("surgery %v %s:%g seed=%d", sc.Kind, sc.Generator, sc.Density, sc.Seed)
}

// surgeryTyped reports whether a packing error is part of the documented
// taxonomy: the synthesis sentinels plus the surgery spec sentinel.
func surgeryTyped(err error) bool {
	return synth.IsTyped(err) || errors.Is(err, surgery.ErrBadSpec)
}

// RunSurgery executes one 2-patch scenario end to end — build tiling,
// generate and apply defects, pack the layout, assemble the combined
// circuit — and checks the robustness contract: every scenario either fails
// with a typed error or produces a determinism-checked surgery circuit; it
// never panics and never leaks an untyped failure. A placement that packs
// but fails circuit assembly is a contract break: Pack's acceptance
// criteria must imply an assemblable, deterministic experiment.
func RunSurgery(ctx context.Context, sc SurgeryScenario) (err error, v *Violation) {
	vio := Scenario{Kind: sc.Kind, Distance: 3, Generator: sc.Generator, Density: sc.Density, Seed: sc.Seed}
	defer func() {
		if r := recover(); r != nil {
			err = nil
			v = &Violation{vio, fmt.Sprintf("surgery panic: %v", r)}
		}
	}()

	wh, ok := surgeryTilings[sc.Kind]
	if !ok {
		return nil, &Violation{vio, fmt.Sprintf("no recorded 2-patch tiling for %v", sc.Kind)}
	}
	dev := device.ByKind(sc.Kind, wh[0], wh[1])
	ds, err := device.GenerateDefects(dev, sc.Generator, sc.Density, sc.Seed)
	if err != nil {
		if !device.IsTyped(err) {
			return nil, &Violation{vio, fmt.Sprintf("untyped generator error: %v", err)}
		}
		return err, nil
	}
	damaged, err := dev.WithDefects(ds)
	if err != nil {
		return nil, &Violation{vio, fmt.Sprintf("generated defect set rejected: %v", err)}
	}

	spec := surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: 3}, {Name: "b", Row: 1, Distance: 3}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: surgery.JointZZ}},
	}
	p, err := surgery.Pack(ctx, damaged, spec, synth.Options{})
	if err != nil {
		if !surgeryTyped(err) {
			return nil, &Violation{vio, fmt.Sprintf("untyped packing error: %v", err)}
		}
		return err, nil
	}
	if _, err := surgery.NewExperiment(p, surgery.Options{}); err != nil {
		return nil, &Violation{vio, fmt.Sprintf("packed layout failed circuit assembly: %v", err)}
	}
	return nil, nil
}

// SurgerySweep executes count 2-patch scenarios against one architecture,
// cycling through every defect generator and the density ladder. Tally.OK
// counts scenarios that produced a verified circuit; Degraded is unused
// (packing rejects the degradation ladder).
func SurgerySweep(ctx context.Context, base int64, tiling int, kind device.Kind, count int) (Tally, *Violation) {
	var tally Tally
	gens := device.GeneratorNames()
	dens := Densities()
	for i := 0; i < count; i++ {
		sc := SurgeryScenario{
			Kind:      kind,
			Generator: gens[(i/len(dens))%len(gens)],
			Density:   dens[i%len(dens)],
			Seed:      Seed(base, tiling, i),
		}
		err, v := RunSurgery(ctx, sc)
		if v != nil {
			return tally, v
		}
		if err != nil {
			tally.Failed++
		} else {
			tally.OK++
		}
	}
	return tally, nil
}
