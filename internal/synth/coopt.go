package synth

import (
	"context"

	"surfstitch/internal/flagbridge"
	"surfstitch/internal/graph"
)

// CoOptimize implements the paper's §6 "co-optimizing the bridge tree finder
// and the stabilizer measurement scheduler": when the schedule fragments
// into extra sets because of bridge-tree conflicts, the plans of the
// smallest sets retry their tree search avoiding the trees of a target set,
// and the move is kept when the objective improves. On an uncalibrated
// device the objective is the paper's: the total error-detection cycle in
// time steps. On a calibrated device it is the calibration-weighted expected
// error per cycle (CalibrationCost), so a move that trades a slightly longer
// schedule for routing off a lossy coupler is accepted. Either way the
// returned synthesis is never worse than the input under the objective in
// force. A canceled context aborts the remaining rounds with a BudgetError.
func CoOptimize(ctx context.Context, s *Synthesis) (*Synthesis, error) {
	best := s
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, &BudgetError{Stage: "co-optimize", Cause: err}
		}
		improved, err := coOptimizeOnce(best)
		if err != nil {
			return nil, err
		}
		if improved == nil {
			break
		}
		best = improved
	}
	return best, nil
}

// synthCost is the co-optimizer's objective: calibration-weighted expected
// error on a calibrated device, schedule length in time steps otherwise.
func synthCost(s *Synthesis) float64 {
	if c, ok := CalibrationCost(s); ok {
		return c
	}
	return float64(s.Schedule.TotalSteps())
}

// coOptimizeOnce attempts one improving move; nil means no improvement found.
func coOptimizeOnce(s *Synthesis) (*Synthesis, error) {
	if len(s.Schedule) <= 1 || s.Degradation != nil {
		return nil, nil
	}
	layout := s.Layout
	base := synthCost(s)
	planIdx := map[*flagbridge.Plan]int{}
	for si, p := range s.Plans {
		if p != nil {
			planIdx[p] = si
		}
	}
	// Smallest set first: eliminating it buys the most.
	smallest := 0
	for i, set := range s.Schedule {
		if len(set) < len(s.Schedule[smallest]) {
			smallest = i
		}
	}
	for _, mover := range s.Schedule[smallest] {
		si := planIdx[mover]
		// Try to re-find the mover's tree avoiding each other set's trees.
		for j, target := range s.Schedule {
			if j == smallest {
				continue
			}
			blocked := make([]bool, layout.Dev.Len())
			for _, q := range target {
				for _, n := range q.Tree.Nodes() {
					if !layout.IsData[n] {
						blocked[n] = true
					}
				}
			}
			newTree, err := FindTree(layout, si, blocked)
			if err != nil {
				continue
			}
			// Rebuild the synthesis with the new tree and reschedule.
			trees := append([]*graph.Tree(nil), s.Trees...)
			trees[si] = newTree
			candidate, err := planTrees(layout, trees, nil, false)
			if err != nil {
				continue
			}
			candidate.Schedule = BestSchedule(candidate.Plans)
			if synthCost(candidate) < base {
				return candidate, nil
			}
		}
	}
	return nil, nil
}
