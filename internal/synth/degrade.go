package synth

import (
	"context"
	"fmt"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/obs"
)

// Degradation reports what the graceful-degradation ladder sacrificed to
// keep synthesizing on a defective device: which stabilizers were dropped
// and why, the retained check counts per type, and a conservative estimate
// of the code distance that survives the sacrifice.
type Degradation struct {
	// Dropped lists the sacrificed stabilizers in index order.
	Dropped []DroppedStab
	// RetainedX/Z and TotalX/Z count measured vs. nominal checks per type.
	RetainedX, TotalX int
	RetainedZ, TotalZ int
	// EffectiveDistance is the exact code-capacity distance that survives
	// the sacrifice: the minimum number of data-qubit errors forming a
	// chain undetectable by every retained check yet flipping a logical
	// operator, computed per error basis by the internal/distance
	// minimum-odd-cycle search and taken over the weaker basis.
	EffectiveDistance int
}

// DroppedStab identifies one sacrificed stabilizer.
type DroppedStab struct {
	Index  int
	Type   code.StabType
	Weight int
	Reason string
}

// DroppedCount returns the number of sacrificed stabilizers.
func (dg *Degradation) DroppedCount() int { return len(dg.Dropped) }

// Retained returns the total number of stabilizers still measured.
func (dg *Degradation) Retained() int {
	return dg.RetainedX + dg.RetainedZ
}

// String renders a one-line summary for logs and CLI output.
func (dg *Degradation) String() string {
	return fmt.Sprintf("degraded: %d/%d X + %d/%d Z checks retained, %d dropped, effective distance %d",
		dg.RetainedX, dg.TotalX, dg.RetainedZ, dg.TotalZ, len(dg.Dropped), dg.EffectiveDistance)
}

// SynthesizeDegraded runs the pipeline with the full graceful-degradation
// ladder armed. Where Synthesize fails with ErrDisconnected on the first
// unroutable stabilizer, SynthesizeDegraded drops it, keeps going, and
// reports the sacrifice in the result's Degradation field (nil when nothing
// was dropped — then the result matches Synthesize exactly). It still fails
// with a typed error when no placement exists at all, when every stabilizer
// of a type is unroutable (the code would be blind in one basis), or when
// the context is canceled.
func SynthesizeDegraded(ctx context.Context, dev *device.Device, distance int, opts Options) (*Synthesis, error) {
	ctx, span := obs.StartSpan(ctx, "synth.degraded")
	span.SetAttr("distance", distance)
	defer span.End()
	obs.RegistryFromContext(ctx).Counter("synth_degraded_runs_total").Inc()
	layout, err := allocateSpan(ctx, dev, distance, opts.Mode, true)
	if err != nil {
		return nil, err
	}
	opts.Degrade = true
	return SynthesizeOnLayout(ctx, layout, opts)
}

// newDegradation accounts for the dropped stabilizers of code c: per-type
// retained and total counts and the surviving distance. A code left blind
// in one basis (no retained X or no retained Z check) cannot be rescued;
// the first dropped stabilizer's error is returned instead.
func newDegradation(c *code.Code, dropped map[int]error) (*Degradation, error) {
	stabs := c.Stabilizers()
	dg := &Degradation{}
	droppedX, droppedZ := 0, 0
	for si, st := range stabs {
		if st.Type == code.StabX {
			dg.TotalX++
		} else {
			dg.TotalZ++
		}
		derr, gone := dropped[si]
		if !gone {
			continue
		}
		dg.Dropped = append(dg.Dropped, DroppedStab{
			Index: si, Type: st.Type, Weight: st.Weight(), Reason: derr.Error(),
		})
		if st.Type == code.StabX {
			droppedX++
		} else {
			droppedZ++
		}
	}
	dg.RetainedX = dg.TotalX - droppedX
	dg.RetainedZ = dg.TotalZ - droppedZ
	if dg.RetainedX == 0 || dg.RetainedZ == 0 {
		for si := range stabs {
			if derr, gone := dropped[si]; gone {
				return nil, derr
			}
		}
	}
	dg.EffectiveDistance = effectiveDistance(c, func(si int) bool {
		_, gone := dropped[si]
		return !gone
	})
	return dg, nil
}
