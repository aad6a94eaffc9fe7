package paper

import (
	"fmt"

	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
)

// BudgetEntry attributes logical error to one noise category by
// counterfactual removal: the rate drop when the category is turned off.
type BudgetEntry struct {
	Category string
	// Full is the logical error rate with every channel active; Without is
	// the rate with this category removed; Share = (Full-Without)/Full.
	Full, Without, Share float64
}

// NoiseBudget decomposes a synthesis's logical error rate at physical rate p
// into gate-error and idle-error contributions via counterfactual runs —
// the analysis behind the paper's Figure 11(b) claim that scheduling
// matters more as idle error grows.
func NoiseBudget(s *synth.Synthesis, p float64, cfg Config) ([]BudgetEntry, error) {
	cfg = cfg.withDefaults()
	in, err := memoryInput(s)
	if err != nil {
		return nil, err
	}

	rate := func(gate float64, withoutIdle bool) (float64, error) {
		tc := cfg.thresholdConfig()
		tc.IdleError = noise.DefaultIdleError
		tc.NoIdle = withoutIdle
		pt, err := threshold.EstimatePointContext(cfg.ctx(), in, gate, tc)
		if err != nil {
			return 0, err
		}
		return pt.Logical, nil
	}
	full, err := rate(p, false)
	if err != nil {
		return nil, err
	}
	noGate, err := rate(0, false)
	if err != nil {
		return nil, err
	}
	noIdle, err := rate(p, true)
	if err != nil {
		return nil, err
	}
	share := func(without float64) float64 {
		if full <= 0 {
			return 0
		}
		s := (full - without) / full
		if s < 0 {
			return 0
		}
		return s
	}
	return []BudgetEntry{
		{Category: "gate errors (depolarizing + meas/reset flips)", Full: full, Without: noGate, Share: share(noGate)},
		{Category: "idle decoherence", Full: full, Without: noIdle, Share: share(noIdle)},
	}, nil
}

// FormatBudget renders the budget as aligned text.
func FormatBudget(entries []BudgetEntry) string {
	out := fmt.Sprintf("%-48s %-10s %-10s %-8s\n", "category", "full", "without", "share")
	for _, e := range entries {
		out += fmt.Sprintf("%-48s %-10.5f %-10.5f %-8.0f%%\n", e.Category, e.Full, e.Without, 100*e.Share)
	}
	return out
}
