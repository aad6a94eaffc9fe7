package synth

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
)

// robustnessCases sweeps every Table 1 tiling at distances 3 and 5 (the
// d=5 sweep is skipped under -short: the octagon tiling alone has 200
// qubits).
func robustnessCases(t *testing.T) []struct {
	kind device.Kind
	d    int
} {
	var cases []struct {
		kind device.Kind
		d    int
	}
	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5} {
			if d == 5 && testing.Short() {
				continue
			}
			cases = append(cases, struct {
				kind device.Kind
				d    int
			}{kind, d})
		}
	}
	return cases
}

// TestSynthesisRobustOnDegradedDevices: synthesis on randomly damaged
// devices of every architecture either fails with a typed error or produces
// a structurally valid result — it must never panic, emit invalid
// schedules, or leak untyped failures.
func TestSynthesisRobustOnDegradedDevices(t *testing.T) {
	for _, c := range robustnessCases(t) {
		c := c
		t.Run(fmt.Sprintf("%v-d%d", c.kind, c.d), func(t *testing.T) {
			t.Parallel()
			base := devicetest.ForDistance(t, c.kind, c.d)
			kill := base.Graph().EdgeCount() / 12
			f := func(seed int64) bool {
				dev := devicetest.KillCouplers(t, base, seed, kill)
				s, err := Synthesize(context.Background(), dev, c.d, Options{})
				if err != nil {
					if !IsTyped(err) {
						t.Logf("seed %d: untyped error %v", seed, err)
						return false
					}
					return true // clean failure is acceptable on damaged hardware
				}
				if err := s.Schedule.Validate(len(s.Plans)); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				g := dev.Graph()
				for _, tree := range s.Trees {
					for _, e := range tree.Edges() {
						if !g.HasEdge(e[0], e[1]) {
							t.Logf("seed %d: tree uses missing coupling %v", seed, e)
							return false
						}
					}
				}
				return true
			}
			max := 12
			if c.d == 5 {
				max = 4
			}
			if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDegradedSynthesisAccounting: the degradation ladder's outcomes are
// always one of (a) a synthesis whose Degradation report matches the
// emitted plans, or (b) a typed error. The report's retained counts must
// agree with the non-nil plans and the schedule must cover exactly those.
func TestDegradedSynthesisAccounting(t *testing.T) {
	for _, c := range robustnessCases(t) {
		c := c
		t.Run(fmt.Sprintf("%v-d%d", c.kind, c.d), func(t *testing.T) {
			t.Parallel()
			base := devicetest.ForDistance(t, c.kind, c.d)
			kill := base.Graph().EdgeCount() / 10
			degradedSeen := false
			seeds := int64(12)
			if c.d == 5 {
				seeds = 4
			}
			for seed := int64(0); seed < seeds; seed++ {
				dev := devicetest.KillCouplers(t, base, seed, kill)
				s, err := SynthesizeDegraded(context.Background(), dev, c.d, Options{})
				if err != nil {
					if !IsTyped(err) {
						t.Fatalf("seed %d: untyped error %v", seed, err)
					}
					continue
				}
				if err := s.Schedule.Validate(len(s.RetainedPlans())); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				dg := s.Degradation
				if dg == nil {
					continue
				}
				degradedSeen = true
				retX, retZ := 0, 0
				for si, st := range s.Layout.Code.Stabilizers() {
					if s.Plans[si] == nil {
						continue
					}
					if st.Type == code.StabX {
						retX++
					} else {
						retZ++
					}
				}
				if retX != dg.RetainedX || retZ != dg.RetainedZ {
					t.Fatalf("seed %d: degradation reports %dX+%dZ, plans have %dX+%dZ",
						seed, dg.RetainedX, dg.RetainedZ, retX, retZ)
				}
				if dg.RetainedX+len(droppedOfType(dg, code.StabX)) != dg.TotalX {
					t.Fatalf("seed %d: X accounting inconsistent: %+v", seed, dg)
				}
				if dg.EffectiveDistance < 1 || dg.EffectiveDistance > c.d {
					t.Fatalf("seed %d: effective distance %d out of [1,%d]", seed, dg.EffectiveDistance, c.d)
				}
				for _, dr := range dg.Dropped {
					if s.Trees[dr.Index] != nil || s.Plans[dr.Index] != nil {
						t.Fatalf("seed %d: dropped stabilizer %d still has a tree/plan", seed, dr.Index)
					}
					if dr.Reason == "" {
						t.Fatalf("seed %d: dropped stabilizer %d has no reason", seed, dr.Index)
					}
				}
			}
			_ = degradedSeen // some tilings tolerate every sampled fault pattern
		})
	}
}

// TestSynthesizeDegradedMatchesSynthesizeWhenPristine: on an undamaged
// device the ladder must be invisible — identical trees, plans and schedule.
func TestSynthesizeDegradedMatchesSynthesizeWhenPristine(t *testing.T) {
	dev := device.HeavySquare(4, 3)
	a, err := Synthesize(context.Background(), dev, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeDegraded(context.Background(), dev, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Degradation != nil {
		t.Fatalf("pristine device produced a degradation report: %v", b.Degradation)
	}
	if got, want := b.Schedule.TotalSteps(), a.Schedule.TotalSteps(); got != want {
		t.Fatalf("degraded pipeline changed the schedule: %d vs %d steps", got, want)
	}
	for si := range a.Trees {
		if a.Trees[si].EdgeLen() != b.Trees[si].EdgeLen() {
			t.Fatalf("stabilizer %d tree differs between pipelines", si)
		}
	}
}

// TestSynthesizeHonorsContext: a pre-canceled context must surface as a
// BudgetError matching both the sentinel and the context error.
func TestSynthesizeHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Synthesize(ctx, device.Square(6, 6), 3, Options{})
	if err == nil {
		t.Fatal("canceled context did not abort synthesis")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error %v does not match ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestSynthesizedCodesAlwaysDeterministic: any successful synthesis on a
// damaged grid must yield trees rooted off the data qubits (determinism of
// the full circuit is covered by the chaos harness, which can import the
// experiment assembler).
func TestSynthesizedCodesAlwaysDeterministic(t *testing.T) {
	base := device.Square(8, 6)
	found := 0
	for seed := int64(0); seed < 40 && found < 6; seed++ {
		dev := devicetest.KillCouplers(t, base, seed, 6)
		s, err := Synthesize(context.Background(), dev, 3, Options{})
		if err != nil {
			continue
		}
		found++
		for si, tree := range s.Trees {
			if s.Layout.IsData[tree.Root] {
				t.Fatalf("seed %d: stabilizer %d rooted on data", seed, si)
			}
		}
	}
	if found == 0 {
		t.Skip("no degraded device admitted a synthesis in the sample")
	}
}

// droppedOfType filters a degradation report's drops by stabilizer type.
func droppedOfType(dg *Degradation, t code.StabType) []DroppedStab {
	var out []DroppedStab
	for _, d := range dg.Dropped {
		if d.Type == t {
			out = append(out, d)
		}
	}
	return out
}
