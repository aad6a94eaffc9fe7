package threshold

import (
	"context"
	"fmt"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/mc"
	"surfstitch/internal/obs"
)

// TestDecoderSeriesCountMergedChunksOnly holds the decoder's registry
// series to the shots a point reports under both adaptive stops: workers
// finish chunks past the stopping point, and those chunks must reach
// neither the point nor the registry. Three runs at each worker count
// vary the schedule.
func TestDecoderSeriesCountMergedChunksOnly(t *testing.T) {
	in, _ := goldenInput(t, device.KindSquare, 3, 3, experiment.BasisZ, "")
	stops := map[string]Config{
		"max-errors": {Shots: 200000, Seed: 7, MaxErrors: 40},
		"target-rse": {Shots: 200000, Seed: 7, TargetRSE: 0.25},
	}
	for _, name := range []string{"max-errors", "target-rse"} {
		for _, workers := range []int{1, 2} {
			for run := 0; run < 3; run++ {
				cfg := stops[name]
				cfg.Workers = workers
				cfg.Registry = obs.NewRegistry()
				progress := 0
				cfg.Progress = func(float64, mc.Progress) { progress++ }
				pt, err := EstimatePointContext(context.Background(), in, 0.003, cfg)
				if err != nil {
					t.Fatal(err)
				}
				snap := cfg.Registry.Snapshot()
				label := fmt.Sprintf("%s/w%d/run%d", name, workers, run)
				if got := snap["decoder_syndrome_weight_count"]; got != float64(pt.Shots) {
					t.Errorf("%s: decoder_syndrome_weight_count %g, point shots %d", label, got, pt.Shots)
				}
				if got := snap["mc_shots_total"]; got != float64(pt.Shots) {
					t.Errorf("%s: mc_shots_total %g, point shots %d", label, got, pt.Shots)
				}
				if progress == 0 {
					t.Errorf("%s: the caller's Progress hook never ran", label)
				}
			}
		}
	}
}
