package synth

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/graph"
	"surfstitch/internal/obs"
)

// Options configures a synthesis run.
type Options struct {
	// Mode selects the syndrome-rectangle induction strategy.
	Mode Mode
	// NoRefine skips the Algorithm 3 refinement, leaving the two-stage
	// X-then-Z schedule (used by the Figure 11(b) baseline).
	NoRefine bool
	// StarOnlyTrees disables the branching-tree heuristic of Algorithm 2
	// (ablation of the path-merging optimization motivated by Figure 6).
	StarOnlyTrees bool
	// CoOptimize runs the §6 tree/schedule co-optimization pass after
	// synthesis, re-finding bridge trees to merge fragmented schedule sets.
	CoOptimize bool
	// Degrade arms the graceful-degradation ladder: instead of failing on
	// the first unroutable stabilizer, the synthesis sacrifices it and
	// reports the damage in the result's Degradation field.
	Degrade bool
}

// Synthesis is a fully synthesized surface code: the layout, the bridge
// trees and measurement plans of every stabilizer, and the measurement
// schedule. A degraded synthesis (SynthesizeDegraded) keeps the slices
// indexed by stabilizer but leaves nil entries at dropped indices and
// records what was sacrificed in Degradation.
type Synthesis struct {
	Layout   *Layout
	Trees    []*graph.Tree      // per stabilizer; nil where dropped
	Plans    []*flagbridge.Plan // per stabilizer; nil where dropped
	Schedule Schedule
	// Degradation is non-nil only when the graceful-degradation ladder had
	// to sacrifice stabilizers; a pristine synthesis leaves it nil.
	Degradation *Degradation
}

// Synthesize runs the full Surf-Stitch pipeline: data qubit allocation,
// bridge tree construction, and stabilizer measurement scheduling. The
// context bounds the search: on cancellation the error unwraps to both
// ErrBudgetExceeded and the context's error.
func Synthesize(ctx context.Context, dev *device.Device, distance int, opts Options) (*Synthesis, error) {
	if opts.Degrade {
		return SynthesizeDegraded(ctx, dev, distance, opts)
	}
	ctx, span := obs.StartSpan(ctx, "synth.synthesize")
	span.SetAttr("distance", distance)
	defer span.End()
	layout, err := allocateSpan(ctx, dev, distance, opts.Mode, false)
	if err != nil {
		return nil, err
	}
	return SynthesizeOnLayout(ctx, layout, opts)
}

// allocateSpan runs the placement search in a synth.allocate span. With
// relax set, a search that finds no fully routable layout is retried
// accepting layouts that strand stabilizers (AllocateRelaxed, stage 3 of
// the degradation ladder), in the same span; budget and construction
// errors pass through untouched.
func allocateSpan(ctx context.Context, dev *device.Device, distance int, mode Mode, relax bool) (*Layout, error) {
	_, span := obs.StartSpan(ctx, "synth.allocate")
	defer span.End()
	layout, err := Allocate(ctx, dev, distance, mode)
	if err == nil || !relax || !errors.Is(err, ErrNoPlacement) {
		return layout, err
	}
	obs.RegistryFromContext(ctx).Counter("synth_ladder_relaxed_total").Inc()
	return AllocateRelaxed(ctx, dev, distance, mode)
}

// SynthesizeOnLayout runs stages two and three on a pre-computed layout:
// bridge trees, measurement plans and the schedule, then the co-optimizer
// when asked. With opts.Degrade set, a stabilizer whose tree cannot be
// found or planned is dropped and reported in the result's Degradation;
// otherwise it fails the synthesis. The context stops the search at the
// next budget check on cancellation, and stage spans record into the
// context's registry and tracer (see internal/obs).
func SynthesizeOnLayout(ctx context.Context, layout *Layout, opts Options) (*Synthesis, error) {
	_, treeSpan := obs.StartSpan(ctx, "synth.trees")
	trees, dropped, err := newFinder(layout.Dev).allTrees(layout, opts.StarOnlyTrees, opts.Degrade)
	treeSpan.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &BudgetError{Stage: "trees", Cause: err}
	}
	out, err := planTrees(layout, trees, dropped, opts.Degrade)
	if err != nil {
		return nil, err
	}
	if dg := out.Degradation; dg != nil {
		obs.RegistryFromContext(ctx).Counter("synth_dropped_stabilizers_total").Add(int64(len(dg.Dropped)))
	}
	_, schedSpan := obs.StartSpan(ctx, "synth.schedule")
	if opts.NoRefine {
		out.Schedule = InitialSchedule(out.RetainedPlans())
	} else {
		out.Schedule = BestSchedule(out.RetainedPlans())
	}
	schedSpan.End()
	if opts.CoOptimize && out.Degradation == nil {
		_, coSpan := obs.StartSpan(ctx, "synth.cooptimize")
		defer coSpan.End()
		return CoOptimize(ctx, out)
	}
	return out, nil
}

// planTrees builds the measurement plan of every routed stabilizer; the
// caller schedules the plans. A tree the planner cannot plan fails the
// synthesis, unless degrade is set: then it is as lost as an unroutable
// one, and the stabilizer is sacrificed with those the finder dropped and
// reported in the result's Degradation.
func planTrees(layout *Layout, trees []*graph.Tree, dropped map[int]error, degrade bool) (*Synthesis, error) {
	stabs := layout.Code.Stabilizers()
	plans := make([]*flagbridge.Plan, len(trees))
	for si, tree := range trees {
		if tree == nil {
			continue
		}
		p, err := flagbridge.NewPlan(stabs[si].Type, tree, layout.Directions(si))
		if err != nil {
			if !degrade {
				return nil, fmt.Errorf("synth: plan for stabilizer %v: %w", stabs[si], err)
			}
			trees[si] = nil
			if dropped == nil {
				dropped = map[int]error{}
			}
			dropped[si] = err
			continue
		}
		plans[si] = p
	}
	out := &Synthesis{Layout: layout, Trees: trees, Plans: plans}
	if len(dropped) > 0 {
		dg, err := newDegradation(layout.Code, dropped)
		if err != nil {
			return nil, err
		}
		out.Degradation = dg
	}
	return out, nil
}

// RetainedPlans returns the non-nil plans, in stabilizer order — the whole
// plan set for a pristine synthesis.
func (s *Synthesis) RetainedPlans() []*flagbridge.Plan {
	out := make([]*flagbridge.Plan, 0, len(s.Plans))
	for _, p := range s.Plans {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Metrics summarizes a synthesis in the units of the paper's Table 2.
// Averages run over the weight-4 X-type stabilizers (the bulk measurement
// circuits the table characterizes).
type Metrics struct {
	AvgBridgeQubits float64
	AvgCNOTs        float64
	AvgTimeSteps    float64
	TotalTimeSteps  int
}

// Metrics computes the Table 2 statistics for the synthesis.
func (s *Synthesis) Metrics() Metrics {
	var m Metrics
	nx := 0
	for si, st := range s.Layout.Code.Stabilizers() {
		if st.Type != code.StabX || st.Weight() != 4 || s.Plans[si] == nil {
			continue
		}
		nx++
		m.AvgBridgeQubits += float64(s.Plans[si].NumBridges())
		m.AvgCNOTs += float64(s.Plans[si].NumCNOTs())
		m.AvgTimeSteps += float64(s.Plans[si].TimeSteps())
	}
	if nx > 0 {
		m.AvgBridgeQubits /= float64(nx)
		m.AvgCNOTs /= float64(nx)
		m.AvgTimeSteps /= float64(nx)
	}
	m.TotalTimeSteps = s.Schedule.TotalSteps()
	return m
}

// Utilization reports the Table 3 qubit-utilization statistics over the
// minimal device bounding box that supports the code.
type Utilization struct {
	DataQubits   int
	BridgeQubits int
	UnusedQubits int
	TotalQubits  int
}

// DataPercent returns the data-qubit share of the device.
func (u Utilization) DataPercent() float64 {
	return 100 * float64(u.DataQubits) / float64(u.TotalQubits)
}

// BridgePercent returns the bridge-qubit share of the device.
func (u Utilization) BridgePercent() float64 {
	return 100 * float64(u.BridgeQubits) / float64(u.TotalQubits)
}

// UnusedPercent returns the idle-qubit share of the device.
func (u Utilization) UnusedPercent() float64 {
	return 100 * float64(u.UnusedQubits) / float64(u.TotalQubits)
}

// Utilization counts data, bridge and unused qubits over the whole device.
func (s *Synthesis) Utilization() Utilization {
	used := make(map[int]bool)
	for _, t := range s.Trees {
		if t == nil {
			continue
		}
		for _, n := range t.Nodes() {
			used[n] = true
		}
	}
	var u Utilization
	u.TotalQubits = s.Layout.Dev.Len()
	for q := 0; q < s.Layout.Dev.Len(); q++ {
		switch {
		case s.Layout.IsData[q]:
			u.DataQubits++
		case used[q]:
			u.BridgeQubits++
		default:
			u.UnusedQubits++
		}
	}
	return u
}

// AllQubits returns every device qubit participating in the code (data or
// bridge), sorted — the set that receives idle noise in experiments.
func (s *Synthesis) AllQubits() []int {
	set := map[int]bool{}
	for _, t := range s.Trees {
		if t == nil {
			continue
		}
		for _, n := range t.Nodes() {
			set[n] = true
		}
	}
	for _, q := range s.Layout.DataQubit {
		set[q] = true
	}
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// Describe renders a human-readable synthesis report: the first stabilizers
// with their bridge trees (Figure 10 style) and the schedule shape.
func (s *Synthesis) Describe(maxStabs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "synthesis of distance-%d surface code on %s (mode %v)\n",
		s.Layout.Code.Distance(), s.Layout.Dev.Name(), s.Layout.Mode)
	fmt.Fprintf(&b, "lattice: base %v, u %v, v %v\n", s.Layout.Base, s.Layout.U, s.Layout.V)
	stabs := s.Layout.Code.Stabilizers()
	for si := 0; si < len(stabs) && si < maxStabs; si++ {
		st := stabs[si]
		if s.Trees[si] == nil {
			fmt.Fprintf(&b, "  %v: dropped (unroutable)\n", st)
			continue
		}
		var dataCoords []string
		for _, dq := range st.Data {
			dataCoords = append(dataCoords, s.Layout.Dev.Coord(s.Layout.DataQubit[dq]).String())
		}
		var bridgeCoords []string
		for _, n := range s.Trees[si].Nodes() {
			if !s.Layout.IsData[n] {
				bridgeCoords = append(bridgeCoords, s.Layout.Dev.Coord(n).String())
			}
		}
		fmt.Fprintf(&b, "  %v: data %s | bridges %s | root %v | cnots %d\n",
			st, strings.Join(dataCoords, " "), strings.Join(bridgeCoords, " "),
			s.Layout.Dev.Coord(s.Plans[si].Root()), s.Plans[si].NumCNOTs())
	}
	fmt.Fprintf(&b, "schedule: %d sets, %d total time steps\n", len(s.Schedule), s.Schedule.TotalSteps())
	for i, set := range s.Schedule {
		x, z := 0, 0
		for _, p := range set {
			if p.Type == code.StabX {
				x++
			} else {
				z++
			}
		}
		fmt.Fprintf(&b, "  set %d: %dX + %dZ, depth %d\n", i, x, z, flagbridge.SetDepth(set))
	}
	return b.String()
}
