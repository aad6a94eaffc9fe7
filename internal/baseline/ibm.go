// Package baseline implements the comparison systems of the paper's
// evaluation: the manually designed IBM QEC codes of Chamberland et al.
// (heavy-square and heavy-hexagon), a revised-SABRE routing baseline for the
// bridge-tree comparison (Figure 11a), the two-stage measurement schedule
// (Figure 11b), and the foreign data-qubit allocators of the §5.4 study.
package baseline

import (
	"context"
	"fmt"
	"sort"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/graph"
	"surfstitch/internal/synth"
)

// IBMHeavySquare returns the manually designed heavy-square surface code.
// Per the paper (§5.2), it is "almost identical" to the Surf-Stitch
// synthesis on the same architecture up to trimmed boundary qubits, and has
// the same error threshold; this reproduction therefore reuses the
// Surf-Stitch synthesis as its circuit-level model.
func IBMHeavySquare(dev *device.Device, distance int) (*synth.Synthesis, error) {
	if dev.Kind() != device.KindHeavySquare {
		return nil, fmt.Errorf("baseline: IBM heavy-square code needs a heavy-square device, got %v", dev.Kind())
	}
	return synth.Synthesize(context.Background(), dev, distance, synth.Options{})
}

// HeavyHexCode models IBM's heavy-hexagon hybrid surface/Bacon-Shor code
// (Chamberland et al. 2020). Its Pauli-X error detection is Bacon-Shor-like:
// weight-2 vertical Z gauge operators are measured without flag protection,
// and only their products along adjacent data-qubit row pairs — weight-2d
// stabilizers — are deterministic syndrome information (the horizontal X
// gauges anticommute with individual Z gauges). This reproduces the paper's
// two stated causes of the code's lower X-error threshold: gauge operators
// instead of stabilizers, and non-fault-tolerant X-error detection.
type HeavyHexCode struct {
	Synth *synth.Synthesis
	// zGauges[r][c] is the plan measuring Z_{(r,c)} Z_{(r+1,c)}.
	zGauges [][]*flagbridge.Plan
	// xGauges[r][c] is the plan measuring X_{(r,c)} X_{(r,c+1)}.
	xGauges [][]*flagbridge.Plan
}

// NewHeavyHexCode builds the baseline on a heavy-hexagon device, reusing the
// Surf-Stitch data qubit layout.
func NewHeavyHexCode(dev *device.Device, distance int) (*HeavyHexCode, error) {
	if dev.Kind() != device.KindHeavyHexagon {
		return nil, fmt.Errorf("baseline: heavy-hexagon code needs a heavy-hexagon device, got %v", dev.Kind())
	}
	s, err := synth.Synthesize(context.Background(), dev, distance, synth.Options{})
	if err != nil {
		return nil, err
	}
	hh := &HeavyHexCode{Synth: s}
	layout := s.Layout
	c := layout.Code
	d := c.Distance()

	dataAt := func(r, col int) int { return layout.DataQubit[c.DataIndex(r, col)] }

	// Vertical Z gauges, one per (row pair, column).
	usedZ := make([]bool, dev.Len())
	for r := 0; r < d-1; r++ {
		var row []*flagbridge.Plan
		for col := 0; col < d; col++ {
			a, b := dataAt(r, col), dataAt(r+1, col)
			tree, err := gaugeTree(layout, a, b, usedZ)
			if err != nil {
				return nil, fmt.Errorf("baseline: Z gauge (%d,%d): %w", r, col, err)
			}
			markUsed(layout, tree, usedZ)
			plan, err := flagbridge.NewPlan(code.StabZ, tree, map[int]flagbridge.Direction{
				a: flagbridge.NW, b: flagbridge.SW,
			})
			if err != nil {
				return nil, fmt.Errorf("baseline: Z gauge plan (%d,%d): %w", r, col, err)
			}
			row = append(row, plan)
		}
		hh.zGauges = append(hh.zGauges, row)
	}
	// Horizontal X gauges, one per (row, column pair).
	usedX := make([]bool, dev.Len())
	for r := 0; r < d; r++ {
		var row []*flagbridge.Plan
		for col := 0; col < d-1; col++ {
			a, b := dataAt(r, col), dataAt(r, col+1)
			tree, err := gaugeTree(layout, a, b, usedX)
			if err != nil {
				return nil, fmt.Errorf("baseline: X gauge (%d,%d): %w", r, col, err)
			}
			markUsed(layout, tree, usedX)
			plan, err := flagbridge.NewPlan(code.StabX, tree, map[int]flagbridge.Direction{
				a: flagbridge.NW, b: flagbridge.NE,
			})
			if err != nil {
				return nil, fmt.Errorf("baseline: X gauge plan (%d,%d): %w", r, col, err)
			}
			row = append(row, plan)
		}
		hh.xGauges = append(hh.xGauges, row)
	}
	return hh, nil
}

func markUsed(layout *synth.Layout, tree *graph.Tree, used []bool) {
	for _, n := range tree.Nodes() {
		if !layout.IsData[n] {
			used[n] = true
		}
	}
}

// gaugeTree finds a small path tree joining two data qubits through free
// non-data qubits.
func gaugeTree(layout *synth.Layout, a, b int, used []bool) (*graph.Tree, error) {
	g := layout.Dev.Graph()
	allowed := func(q int) bool {
		return (!layout.IsData[q] && !used[q]) || q == a || q == b
	}
	path := g.ShortestPath(a, b, allowed)
	if path == nil {
		// Retry ignoring the used set; the schedule serializes conflicts.
		allowed = func(q int) bool { return !layout.IsData[q] || q == a || q == b }
		path = g.ShortestPath(a, b, allowed)
		if path == nil {
			return nil, fmt.Errorf("no gauge path between %d and %d", a, b)
		}
	}
	if len(path) < 3 {
		return nil, fmt.Errorf("gauge pair (%d,%d) is directly coupled; no bridge available", a, b)
	}
	root := path[len(path)/2]
	return graph.PathUnionTree(root, path)
}

// MemoryCircuit assembles a Z-basis memory experiment for the heavy-hex
// baseline: each round measures the X gauges, then the Z gauges; detectors
// are the row-pair products of Z-gauge outcomes (the Bacon-Shor
// stabilizers), with no flag information (non-fault-tolerant X-error
// detection, per the paper); then a final data readout closes the detectors.
func (hh *HeavyHexCode) MemoryCircuit(rounds int) (*circuit.Circuit, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("baseline: need at least one round")
	}
	layout := hh.Synth.Layout
	c := layout.Code
	d := c.Distance()
	b := circuit.NewBuilder(layout.Dev.Len())
	data := append([]int(nil), layout.DataQubit...)
	b.Begin().R(data...)

	var xAll, zAll []*flagbridge.Plan
	zOf := map[*flagbridge.Plan]int{} // plan -> row pair index
	for r, row := range hh.zGauges {
		for _, p := range row {
			zAll = append(zAll, p)
			zOf[p] = r
		}
	}
	for _, row := range hh.xGauges {
		xAll = append(xAll, row...)
	}
	xSets := synth.FirstFit(xAll)
	zSets := synth.FirstFit(zAll)

	// rowRecs[r] accumulates, per round, the record indices of row pair r.
	rowRecs := make([][][]int, d-1)
	for r := 0; r < rounds; r++ {
		for _, set := range xSets {
			flagbridge.AppendSet(b, set) // X gauge outcomes carry no Z-memory info
		}
		thisRound := make([][]int, d-1)
		for _, set := range zSets {
			for _, res := range flagbridge.AppendSet(b, set) {
				rp := zOf[res.Plan]
				thisRound[rp] = append(thisRound[rp], res.SyndromeRec)
				// Flags intentionally NOT annotated (non-FT detection).
			}
		}
		for rp := 0; rp < d-1; rp++ {
			rowRecs[rp] = append(rowRecs[rp], thisRound[rp])
			if r == 0 {
				b.Detector(thisRound[rp]...)
			} else {
				prev := rowRecs[rp][r-1]
				b.Detector(append(append([]int{}, prev...), thisRound[rp]...)...)
			}
		}
	}
	b.Begin()
	finalRecs := b.M(data...)
	recOf := func(row, col int) int { return finalRecs[c.DataIndex(row, col)] }
	for rp := 0; rp < d-1; rp++ {
		set := append([]int{}, rowRecs[rp][rounds-1]...)
		for col := 0; col < d; col++ {
			set = append(set, recOf(rp, col), recOf(rp+1, col))
		}
		b.Detector(set...)
	}
	var obs []int
	for col := 0; col < d; col++ {
		obs = append(obs, recOf(0, col)) // logical Z: the top data row
	}
	b.Observable(obs...)
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := dem.CheckDeterminism(out); err != nil {
		return nil, fmt.Errorf("baseline: heavy-hex memory not deterministic: %w", err)
	}
	return out, nil
}

// IdleQubits returns the qubits participating in the baseline's circuits.
func (hh *HeavyHexCode) IdleQubits() []int {
	set := map[int]bool{}
	for _, q := range hh.Synth.Layout.DataQubit {
		set[q] = true
	}
	for _, rows := range [][][]*flagbridge.Plan{hh.zGauges, hh.xGauges} {
		for _, row := range rows {
			for _, p := range row {
				for _, n := range p.Tree.Nodes() {
					set[n] = true
				}
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
