package synth

import (
	"context"
	"testing"
)

func TestCoOptimizeNeverWorsens(t *testing.T) {
	for _, c := range standardDevices() {
		s, err := Synthesize(context.Background(), c.dev, 3, Options{Mode: c.mode})
		if err != nil {
			t.Fatal(err)
		}
		before := s.Schedule.TotalSteps()
		opt, err := CoOptimize(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := opt.Schedule.TotalSteps()
		if after > before {
			t.Errorf("%s: co-optimization worsened: %d -> %d", c.name, before, after)
		}
		if err := opt.Schedule.Validate(len(opt.Plans)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if after < before {
			t.Logf("%s: co-optimization improved %d -> %d", c.name, before, after)
		}
	}
}
