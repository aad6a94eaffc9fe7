// Package steane extends the synthesis framework beyond the surface code —
// the direction the paper's §6 ("adapting to other QEC codes") points at and
// the setting of the flag-bridge source paper (Lao & Almudéver measured the
// Steane code's stabilizers on IBM's 20-qubit device).
//
// The [[7,1,3]] Steane code has six weight-4 stabilizers over seven data
// qubits. Unlike the surface code there is no plaquette geometry, so the
// synthesis here: (1) places the seven data qubits by a randomized compact
// search; (2) builds a bridge tree per stabilizer with the same
// star-tree machinery, keeping same-type trees disjoint; (3) schedules all
// X-stabilizers before all Z-stabilizers, with data-coupling slots assigned
// by edge coloring (same-type extraction circuits commute in any order, so
// only same-moment collisions must be avoided).
package steane

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/graph"
	"surfstitch/internal/pauli"
	"surfstitch/internal/synth"
	"surfstitch/internal/tableau"
)

// Supports lists the qubit supports of the Steane code's three X (and,
// identically, three Z) stabilizer generators: the parity checks of the
// [7,4] Hamming code.
func Supports() [][]int {
	return [][]int{
		{3, 4, 5, 6},
		{1, 2, 5, 6},
		{0, 2, 4, 6},
	}
}

// LogicalX returns the transversal logical X (X on every data qubit).
func LogicalX() pauli.String { return pauli.XOn(0, 1, 2, 3, 4, 5, 6) }

// LogicalZ returns the transversal logical Z.
func LogicalZ() pauli.String { return pauli.ZOn(0, 1, 2, 3, 4, 5, 6) }

// Validate checks the code's algebra: stabilizers commute, logicals commute
// with stabilizers and anticommute with each other.
func Validate() error {
	var stabs []pauli.String
	for _, sup := range Supports() {
		stabs = append(stabs, pauli.XOn(sup...), pauli.ZOn(sup...))
	}
	for i := range stabs {
		for j := i + 1; j < len(stabs); j++ {
			if !stabs[i].Commutes(stabs[j]) {
				return fmt.Errorf("steane: stabilizers %d and %d anticommute", i, j)
			}
		}
	}
	for i, s := range stabs {
		if !s.Commutes(LogicalX()) || !s.Commutes(LogicalZ()) {
			return fmt.Errorf("steane: stabilizer %d anticommutes with a logical", i)
		}
	}
	if LogicalX().Commutes(LogicalZ()) {
		return fmt.Errorf("steane: logicals must anticommute")
	}
	return nil
}

// Synthesis is a Steane code stitched onto a device.
type Synthesis struct {
	Dev      *device.Device
	Data     []int // device qubits of data 0..6
	XPlans   []*flagbridge.Plan
	ZPlans   []*flagbridge.Plan
	XSets    [][]*flagbridge.Plan // compatible parallel sets, X first
	ZSets    [][]*flagbridge.Plan
	TreeCost int // total bridge-tree edges plus set-count penalty (placement objective)
}

// Synthesize searches for a compact placement of the seven data qubits and
// builds flag-bridge measurement plans for all six stabilizers. The search
// is randomized but seeded, so results are reproducible.
func Synthesize(dev *device.Device, trials int, seed int64) (*Synthesis, error) {
	if trials <= 0 {
		trials = 200
	}
	rng := rand.New(rand.NewSource(seed))
	var best *Synthesis
	consider := func(data []int) {
		if data == nil {
			return
		}
		syn, err := synthesizeOn(dev, data)
		if err != nil {
			return
		}
		if best == nil || syn.TreeCost < best.TreeCost {
			best = syn
		}
	}
	// Structured placements first: the surface-code allocator's distance-3
	// lattice gives nine well-spaced data positions with guaranteed bridge
	// room; every 7-subset is a strong Steane candidate.
	if layout, err := synth.Allocate(context.Background(), dev, 3, synth.ModeDefault); err == nil {
		nine := layout.DataQubit
		for i := 0; i < 9; i++ {
			for j := i + 1; j < 9; j++ {
				var data []int
				for k, q := range nine {
					if k != i && k != j {
						data = append(data, q)
					}
				}
				// The assignment of code qubits to positions decides each
				// support's geometry (code qubit 6 appears in all three
				// stabilizers), so several permutations are tried per subset.
				consider(data)
				for p := 0; p < 12; p++ {
					perm := append([]int(nil), data...)
					rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
					consider(perm)
				}
			}
		}
	}
	for t := 0; t < trials; t++ {
		consider(samplePlacement(dev, rng))
	}
	if best == nil {
		return nil, fmt.Errorf("steane: no valid placement found on %s in %d trials", dev.Name(), trials)
	}
	return best, nil
}

// samplePlacement picks a random seed qubit and grows a compact cluster,
// then chooses 7 spaced qubits from it (data qubits should not be adjacent
// to each other or bridge room vanishes).
func samplePlacement(dev *device.Device, rng *rand.Rand) []int {
	g := dev.Graph()
	start := rng.Intn(dev.Len())
	dist := g.BFSDistances(start, nil)
	type cand struct{ q, d int }
	var cands []cand
	for q, d := range dist {
		if d >= 0 && d <= 8 {
			cands = append(cands, cand{q, d})
		}
	}
	if len(cands) < 25 {
		return nil
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	var data []int
	taken := map[int]bool{}
	for _, c := range cands {
		// Keep data qubits pairwise non-adjacent.
		ok := true
		for _, d := range data {
			if g.HasEdge(c.q, d) {
				ok = false
				break
			}
		}
		if !ok || taken[c.q] {
			continue
		}
		data = append(data, c.q)
		taken[c.q] = true
		if len(data) == 7 {
			return data
		}
	}
	return nil
}

// SynthesizeOn builds the plans for an explicit placement.
func SynthesizeOn(dev *device.Device, data []int) (*Synthesis, error) {
	if len(data) != 7 {
		return nil, fmt.Errorf("steane: need 7 data qubits, got %d", len(data))
	}
	return synthesizeOn(dev, data)
}

func synthesizeOn(dev *device.Device, data []int) (*Synthesis, error) {
	syn := &Synthesis{Dev: dev, Data: append([]int(nil), data...)}
	isData := map[int]bool{}
	for _, q := range data {
		isData[q] = true
	}
	for _, t := range []code.StabType{code.StabX, code.StabZ} {
		used := map[int]bool{}
		slots, err := colorSlots(Supports())
		if err != nil {
			return nil, err
		}
		for gi, sup := range Supports() {
			devData := make([]int, len(sup))
			for i, dq := range sup {
				devData[i] = data[dq]
			}
			tree, err := steinerTree(dev, devData, func(q int) bool {
				return !isData[q] && !used[q]
			})
			if err != nil {
				// Disjoint trees may not fit on sparse devices; overlap is
				// allowed and the conflicting measurements run sequentially.
				tree, err = steinerTree(dev, devData, func(q int) bool { return !isData[q] })
				if err != nil {
					return nil, fmt.Errorf("steane: %v stabilizer %d: %w", t, gi, err)
				}
			}
			for _, n := range tree.Nodes() {
				if !isData[n] {
					used[n] = true
				}
			}
			dirs := map[int]flagbridge.Direction{}
			for i, dq := range sup {
				dirs[devData[i]] = slotDirection(t, slots[gi][dq])
			}
			plan, err := flagbridge.NewPlan(t, tree, dirs)
			if err != nil {
				return nil, fmt.Errorf("steane: %v plan %d: %w", t, gi, err)
			}
			if t == code.StabX {
				syn.XPlans = append(syn.XPlans, plan)
			} else {
				syn.ZPlans = append(syn.ZPlans, plan)
			}
			syn.TreeCost += tree.EdgeLen()
		}
	}
	syn.XSets = synth.FirstFit(syn.XPlans)
	syn.ZSets = synth.FirstFit(syn.ZPlans)
	syn.TreeCost += 40 * (len(syn.XSets) + len(syn.ZSets) - 2)
	return syn, nil
}

// colorSlots assigns each (stabilizer, data qubit) incidence a slot 0..3
// such that no stabilizer repeats a slot and no data qubit repeats a slot —
// an edge coloring of the incidence graph (max degree 3 < 4 colors, so a
// greedy assignment always succeeds for the Steane code).
func colorSlots(supports [][]int) ([]map[int]int, error) {
	out := make([]map[int]int, len(supports))
	dataUsed := map[int]map[int]bool{}
	for gi, sup := range supports {
		out[gi] = map[int]int{}
		stabUsed := map[int]bool{}
		for _, dq := range sup {
			if dataUsed[dq] == nil {
				dataUsed[dq] = map[int]bool{}
			}
			slot := -1
			for s := 0; s < 4; s++ {
				if !stabUsed[s] && !dataUsed[dq][s] {
					slot = s
					break
				}
			}
			if slot == -1 {
				return nil, fmt.Errorf("steane: slot coloring failed for stabilizer %d qubit %d", gi, dq)
			}
			stabUsed[slot] = true
			dataUsed[dq][slot] = true
			out[gi][dq] = slot
		}
	}
	return out, nil
}

// slotDirection maps a desired global slot to the Direction that realizes it
// for the given stabilizer type (inverting flagbridge's per-type slot order).
func slotDirection(t code.StabType, slot int) flagbridge.Direction {
	if t == code.StabX {
		return [4]flagbridge.Direction{flagbridge.NW, flagbridge.NE, flagbridge.SW, flagbridge.SE}[slot]
	}
	return [4]flagbridge.Direction{flagbridge.NW, flagbridge.SW, flagbridge.NE, flagbridge.SE}[slot]
}

// steinerTree finds a small tree spanning the data qubits with interior
// restricted by allowed, trying every allowed root (star method).
func steinerTree(dev *device.Device, data []int, allowed func(int) bool) (*graph.Tree, error) {
	g := dev.Graph()
	terminals := map[int]bool{}
	for _, d := range data {
		terminals[d] = true
	}
	var best *graph.Tree
	for root := 0; root < dev.Len(); root++ {
		if !allowed(root) || terminals[root] {
			continue
		}
		parent := bfsParents(g, root, allowed, terminals)
		var paths [][]int
		ok := true
		for _, d := range data {
			p := walkPath(parent, d)
			if p == nil {
				ok = false
				break
			}
			paths = append(paths, p)
		}
		if !ok {
			continue
		}
		tree, err := graph.PathUnionTree(root, paths...)
		if err != nil {
			continue
		}
		if !leavesExactly(tree, data) {
			continue
		}
		if best == nil || tree.EdgeLen() < best.EdgeLen() {
			best = tree
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no bridge tree spans %v", data)
	}
	return best, nil
}

func bfsParents(g *graph.Graph, src int, allowed func(int) bool, terminals map[int]bool) []int {
	parent := make([]int, g.Len())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if terminals[u] && u != src {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if parent[v] != -1 {
				continue
			}
			if !allowed(v) && !terminals[v] {
				continue
			}
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return parent
}

func walkPath(parent []int, dst int) []int {
	if parent[dst] == -1 {
		return nil
	}
	path := []int{dst}
	for parent[path[len(path)-1]] != path[len(path)-1] {
		path = append(path, parent[path[len(path)-1]])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

func leavesExactly(t *graph.Tree, data []int) bool {
	leaves := t.Leaves()
	if len(leaves) != len(data) {
		return false
	}
	set := map[int]bool{}
	for _, d := range data {
		set[d] = true
	}
	for _, l := range leaves {
		if !set[l] {
			return false
		}
	}
	return t.Len() > len(data)
}

// MemoryCircuit assembles a Z-basis memory experiment: `rounds` rounds of
// (X set, then Z set) with detectors on the Z syndromes and flags, closed by
// a transversal data readout; the observable is the transversal logical Z.
// The construction is verified for detector determinism.
func (s *Synthesis) MemoryCircuit(rounds int) (*circuit.Circuit, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("steane: need at least one round")
	}
	b := circuit.NewBuilder(s.Dev.Len())
	b.Begin().R(s.Data...)
	zIndex := map[*flagbridge.Plan]int{}
	for i, p := range s.ZPlans {
		zIndex[p] = i
	}
	zSyn := make([][]int, len(s.ZPlans))
	for r := 0; r < rounds; r++ {
		for _, set := range s.XSets {
			flagbridge.AppendSet(b, set)
		}
		for _, set := range s.ZSets {
			for _, res := range flagbridge.AppendSet(b, set) {
				i := zIndex[res.Plan]
				zSyn[i] = append(zSyn[i], res.SyndromeRec)
				for _, f := range res.FlagRecs {
					b.Detector(f)
				}
			}
		}
		for i := range s.ZPlans {
			recs := zSyn[i]
			if r == 0 {
				b.Detector(recs[0])
			} else {
				b.Detector(recs[r-1], recs[r])
			}
		}
	}
	b.Begin()
	final := b.M(s.Data...)
	for i, sup := range Supports() {
		set := []int{zSyn[i][rounds-1]}
		for _, dq := range sup {
			set = append(set, final[dq])
		}
		b.Detector(set...)
	}
	b.Observable(final...)
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	if _, _, err := tableau.Reference(c, 3); err != nil {
		return nil, fmt.Errorf("steane: memory not deterministic: %w", err)
	}
	return c, nil
}

// IdleQubits returns the device qubits the synthesis uses.
func (s *Synthesis) IdleQubits() []int {
	set := map[int]bool{}
	for _, q := range s.Data {
		set[q] = true
	}
	for _, plans := range [][]*flagbridge.Plan{s.XPlans, s.ZPlans} {
		for _, p := range plans {
			for _, n := range p.Tree.Nodes() {
				set[n] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}
