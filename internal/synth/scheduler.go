package synth

import (
	"fmt"
	"sort"

	"surfstitch/internal/code"
	"surfstitch/internal/flagbridge"
)

// Schedule is an ordered list of measurement sets; the sets execute
// sequentially and the plans inside a set execute in lock-step parallel.
type Schedule [][]*flagbridge.Plan

// TotalSteps returns the total error-detection-cycle length in time steps:
// the sum of each set's depth (the paper's "Tot. time-step #").
func (s Schedule) TotalSteps() int {
	total := 0
	for _, set := range s {
		total += flagbridge.SetDepth(set)
	}
	return total
}

// Validate checks that every set is internally compatible and that every
// plan appears exactly once.
func (s Schedule) Validate(numPlans int) error {
	seen := map[*flagbridge.Plan]bool{}
	total := 0
	for i, set := range s {
		if !internallyCompatible(set) {
			return fmt.Errorf("synth: schedule set %d has incompatible plans", i)
		}
		for _, p := range set {
			if seen[p] {
				return fmt.Errorf("synth: plan scheduled twice")
			}
			seen[p] = true
			total++
		}
	}
	if total != numPlans {
		return fmt.Errorf("synth: schedule covers %d of %d plans", total, numPlans)
	}
	return nil
}

// setCompatible reports whether plan p can join the set without bridge-tree
// conflicts.
func setCompatible(set []*flagbridge.Plan, p *flagbridge.Plan) bool {
	for _, q := range set {
		if !flagbridge.Compatible(q, p) {
			return false
		}
	}
	return true
}

// InitialSchedule builds the paper's starting point: all X-stabilizers in
// one set and all Z-stabilizers in the other. The data qubit allocation
// guarantees same-type compatibility; should it not hold (custom devices),
// conflicting plans spill into extra sets greedily.
func InitialSchedule(plans []*flagbridge.Plan) Schedule {
	var xs, zs []*flagbridge.Plan
	for _, p := range plans {
		if p.Type == code.StabX {
			xs = append(xs, p)
		} else {
			zs = append(zs, p)
		}
	}
	return append(FirstFit(xs), FirstFit(zs)...)
}

// GreedySchedule packs plans into compatible sets largest-circuit-first —
// the paper's core scheduling insight ("the error detection cycle can be
// reduced by executing large measurement circuits together") expressed as a
// first-fit-decreasing bin packing under the compatibility constraint.
func GreedySchedule(plans []*flagbridge.Plan) Schedule {
	ordered := append([]*flagbridge.Plan(nil), plans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].TimeSteps() > ordered[j].TimeSteps()
	})
	return FirstFit(ordered)
}

// FirstFit packs plans into compatible sets in the given order: each plan
// joins the first set whose every member it is compatible with, and opens a
// new set when none is.
func FirstFit(plans []*flagbridge.Plan) Schedule {
	var sets Schedule
	for _, p := range plans {
		placed := false
		for i := range sets {
			if setCompatible(sets[i], p) {
				sets[i] = append(sets[i], p)
				placed = true
				break
			}
		}
		if !placed {
			sets = append(sets, []*flagbridge.Plan{p})
		}
	}
	return sets
}

// BestSchedule runs the full Algorithm 3 flow: the X/Z initial schedule, the
// iterative refinement, and the greedy large-circuits-together packing, and
// returns the schedule with the fewest total time steps.
func BestSchedule(plans []*flagbridge.Plan) Schedule {
	initial := InitialSchedule(plans)
	best := initial
	if refined := RefineSchedule(initial); refined.TotalSteps() < best.TotalSteps() {
		best = refined
	}
	if greedy := GreedySchedule(plans); greedy.TotalSteps() < best.TotalSteps() {
		best = greedy
	}
	return best
}

// RefineSchedule implements the iterative refinement of Algorithm 3 on a
// two-set schedule: repeatedly move the stabilizer with the longest
// measurement circuit from the shorter set into the longer set, cascading
// conflict evictions between the sets, and keep the move only when the
// total error-detection cycle shrinks. Schedules with more than two sets
// (spilled conflicts) are returned unchanged — GreedySchedule covers them.
func RefineSchedule(sched Schedule) Schedule {
	if len(sched) != 2 {
		return sched
	}
	s1 := append([]*flagbridge.Plan(nil), sched[0]...)
	s2 := append([]*flagbridge.Plan(nil), sched[1]...)
	const maxIters = 64
	for iter := 0; iter < maxIters; iter++ {
		// Keep s1 the set with the longer execution time (Alg. 3 line 4).
		if flagbridge.SetDepth(s1) < flagbridge.SetDepth(s2) {
			s1, s2 = s2, s1
		}
		before := flagbridge.SetDepth(s1) + flagbridge.SetDepth(s2)
		n1, n2, ok := moveLargest(s1, s2)
		if !ok {
			break
		}
		after := flagbridge.SetDepth(n1) + flagbridge.SetDepth(n2)
		if after >= before {
			break
		}
		s1, s2 = n1, n2
	}
	return Schedule{s1, s2}
}

// moveLargest moves the largest plan of s2 into s1, evicting conflicting
// plans back and forth (the swap_list cascade of Algorithm 3). It fails when
// the cascade tries to move a plan larger than the one that started the
// refinement (line 13-14) or does not terminate quickly.
func moveLargest(s1, s2 []*flagbridge.Plan) (n1, n2 []*flagbridge.Plan, ok bool) {
	if len(s2) == 0 {
		return nil, nil, false
	}
	// Find the plan with the longest execution time in s2.
	r2 := s2[0]
	for _, p := range s2[1:] {
		if p.TimeSteps() > r2.TimeSteps() {
			r2 = p
		}
	}
	limit := r2.TimeSteps()
	n1 = append([]*flagbridge.Plan(nil), s1...)
	n2 = removePlan(s2, r2)
	swapList := []*flagbridge.Plan{r2}
	target := 0 // 0: moving into n1, 1: into n2
	const maxCascade = 4
	for round := 0; round < maxCascade && len(swapList) > 0; round++ {
		var next []*flagbridge.Plan
		for _, mover := range swapList {
			dst, other := &n1, &n2
			if target == 1 {
				dst, other = &n2, &n1
			}
			// Evict incompatible plans from dst, largest first (Alg. 3
			// scans "in descending order").
			var evicted []*flagbridge.Plan
			var keep []*flagbridge.Plan
			sort.SliceStable(*dst, func(i, j int) bool {
				return (*dst)[i].TimeSteps() > (*dst)[j].TimeSteps()
			})
			for _, q := range *dst {
				if !flagbridge.Compatible(q, mover) {
					if q.TimeSteps() > limit {
						return nil, nil, false // would move something larger
					}
					evicted = append(evicted, q)
				} else {
					keep = append(keep, q)
				}
			}
			*dst = append(keep, mover)
			next = append(next, evicted...)
			_ = other
		}
		swapList = next
		target = 1 - target
	}
	if len(swapList) > 0 {
		return nil, nil, false // cascade did not settle
	}
	// The cascade may have produced internal conflicts if two evictees clash
	// in their new set; verify both sets.
	if !internallyCompatible(n1) || !internallyCompatible(n2) {
		return nil, nil, false
	}
	return n1, n2, true
}

func removePlan(set []*flagbridge.Plan, p *flagbridge.Plan) []*flagbridge.Plan {
	var out []*flagbridge.Plan
	for _, q := range set {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

func internallyCompatible(set []*flagbridge.Plan) bool {
	for i := range set {
		for j := i + 1; j < len(set); j++ {
			if !flagbridge.Compatible(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}
