// Package synth implements the Surf-Stitch synthesis framework — the
// paper's core contribution. It stitches a rotated surface code onto a
// connectivity-constrained superconducting device in three stages:
//
//  1. data qubit allocation (Algorithm 1): bridge rectangles seeded from
//     high-degree qubits anchor a periodic data-qubit lattice;
//  2. bridge tree construction (Algorithm 2): the star-tree and
//     branching-tree heuristics find small local bridge trees inside each
//     syndrome rectangle;
//  3. stabilizer measurement scheduling (Algorithm 3): an iterative
//     refinement groups large measurement circuits together to shorten the
//     error detection cycle.
package synth

import (
	"context"
	"fmt"
	"sort"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/graph"
	"surfstitch/internal/grid"
)

// Mode selects how syndrome rectangles are induced (§5.3 of the paper).
type Mode int

const (
	// ModeDefault induces syndrome rectangles from pairs of three-degree
	// qubits (the suffix-less codes of Table 2).
	ModeDefault Mode = iota
	// ModeFour centers syndrome rectangles on four-degree qubits (the "-4"
	// codes of Table 2), yielding diamond data lattices.
	ModeFour
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeFour {
		return "four-degree"
	}
	return "default"
}

// Layout is the result of data qubit allocation: the affine embedding of the
// abstract d x d data lattice onto device qubits, plus the per-stabilizer
// syndrome rectangles.
type Layout struct {
	Dev  *device.Device
	Code *code.Code
	Mode Mode

	// Base, U, V define the embedding: abstract data (r, c) sits at device
	// coordinate Base + c*U + r*V.
	Base, U, V grid.Coord

	// DataQubit maps abstract data index -> device qubit.
	DataQubit []int
	// IsData flags device qubits holding data.
	IsData []bool
	// Rects holds the syndrome rectangle of each stabilizer, indexed like
	// Code.Stabilizers().
	Rects []grid.Rect

	// Score is the allocation quality metric (total bridge-tree size plus
	// hook-orientation penalties); lower is better. FitDevice compares it
	// across equally sized devices.
	Score int
}

// DataCoord returns the device coordinate of abstract data position (r, c).
func (l *Layout) DataCoord(r, c int) grid.Coord {
	return l.Base.Add(l.U.Scale(c)).Add(l.V.Scale(r))
}

// LayoutFromMapping builds a Layout from an explicit data-qubit assignment
// (abstract data index -> device qubit). It is the entry point for foreign
// allocators (random sampling, SABRE-style, noise-adaptive) in the §5.4
// comparison: the resulting layout can be fed to FindAllTrees to test
// whether all stabilizer measurements are executable without moving data.
func LayoutFromMapping(dev *device.Device, c *code.Code, dataQubits []int) (*Layout, error) {
	if len(dataQubits) != c.NumData() {
		return nil, fmt.Errorf("synth: mapping has %d qubits, want %d", len(dataQubits), c.NumData())
	}
	layout := &Layout{
		Dev: dev, Code: c, Mode: ModeDefault,
		DataQubit: append([]int(nil), dataQubits...),
		IsData:    make([]bool, dev.Len()),
	}
	for _, q := range dataQubits {
		if q < 0 || q >= dev.Len() {
			return nil, fmt.Errorf("synth: qubit %d out of range", q)
		}
		if layout.IsData[q] {
			return nil, fmt.Errorf("synth: qubit %d assigned twice", q)
		}
		layout.IsData[q] = true
	}
	layout.Rects = stabilizerRects(dev, c, layout.DataQubit)
	return layout, nil
}

// stabilizerRects returns each stabilizer's syndrome rectangle: the
// smallest rectangle around its data qubits' device coordinates.
func stabilizerRects(dev *device.Device, c *code.Code, dataQubits []int) []grid.Rect {
	rects := make([]grid.Rect, len(c.Stabilizers()))
	for si, s := range c.Stabilizers() {
		pts := make([]grid.Coord, len(s.Data))
		for i, dq := range s.Data {
			pts[i] = dev.Coord(dataQubits[dq])
		}
		rects[si] = grid.RectAround(pts...)
	}
	return rects
}

// BridgeRectangles implements lines 1–11 of Algorithm 1: one minimal
// rectangle per high-degree qubit, containing the qubit, its nearest
// high-degree partner (for three-degree seeds), and their neighbors.
func BridgeRectangles(dev *device.Device, mode Mode) []grid.Rect {
	minDeg := 3
	if mode == ModeFour {
		minDeg = 4
	}
	high := dev.HighDegreeQubits(minDeg)
	g := dev.Graph()
	var rects []grid.Rect
	seen := map[grid.Rect]bool{}
	for _, na := range high {
		pts := []grid.Coord{dev.Coord(na)}
		for _, nb := range g.Neighbors(na) {
			pts = append(pts, dev.Coord(nb))
		}
		if mode == ModeDefault && g.Degree(na) == 3 {
			nb := nearestHighDegree(dev, na, high)
			if nb >= 0 {
				pts = append(pts, dev.Coord(nb))
				for _, nn := range g.Neighbors(nb) {
					pts = append(pts, dev.Coord(nn))
				}
			}
		}
		r := grid.RectAround(pts...)
		if !seen[r] {
			seen[r] = true
			rects = append(rects, r)
		}
	}
	sort.Slice(rects, func(i, j int) bool { return rects[i].Less(rects[j]) })
	return rects
}

// nearestHighDegree returns the qubit of high, the device's high-degree
// qubits in id order, nearest to q (excluding q), breaking ties toward
// smaller qubit id.
func nearestHighDegree(dev *device.Device, q int, high []int) int {
	best, bestDist := -1, 0
	for _, cand := range high {
		if cand == q {
			continue
		}
		d := dev.Coord(q).Manhattan(dev.Coord(cand))
		if best == -1 || d < bestDist {
			best, bestDist = cand, d
		}
	}
	return best
}

// latticeCandidates enumerates candidate (U, V) basis vector pairs for the
// data lattice, smallest cell first. ModeDefault tries axis-aligned
// lattices; ModeFour tries diamond lattices centered on four-degree qubits.
func latticeCandidates(mode Mode, maxPeriod int) [][2]grid.Coord {
	var out [][2]grid.Coord
	if mode == ModeFour {
		for k := 1; k <= maxPeriod; k++ {
			out = append(out, [2]grid.Coord{{X: k, Y: k}, {X: -k, Y: k}})
		}
		return out
	}
	type cand struct {
		uv   [2]grid.Coord
		area int
	}
	var cands []cand
	for px := 1; px <= maxPeriod; px++ {
		for py := 1; py <= maxPeriod; py++ {
			cands = append(cands, cand{[2]grid.Coord{{X: px}, {Y: py}}, px * py})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].area != cands[j].area {
			return cands[i].area < cands[j].area
		}
		return cands[i].uv[0].X < cands[j].uv[0].X
	})
	for _, c := range cands {
		out = append(out, c.uv)
	}
	return out
}

// maxAnchorRetries bounds stage 1 of the degradation ladder: how many
// alternative bridge-rectangle anchors the allocator tries after the
// canonical top-left anchor fails (defects near the top-left corner
// otherwise doom the whole allocation).
const maxAnchorRetries = 12

// maxPeriod bounds the lattice periods the placement search tries.
const maxPeriod = 4

// Ladder describes one placement search: the walk of Algorithm 1 over
// bridge-rectangle anchors, lattice bases (U, V) and base positions that
// Allocate, AllocateRelaxed and surgery.Pack share. The caller supplies how
// to place and score one candidate; Place supplies the walk.
type Ladder[T any] struct {
	Dev      *device.Device
	Distance int
	Mode     Mode
	// Stage names the search in the BudgetError of a canceled context.
	Stage string
	// EveryAnchor scans every permitted anchor and keeps the overall best
	// candidate. Otherwise the first anchor with a feasible candidate ends
	// the search.
	EveryAnchor bool
	// Exhausted is the PlacementError reason when no candidate is feasible.
	Exhausted string
	// Try places the candidate whose abstract data (r, c) sits at device
	// coordinate base + c·u + r·v and scores it, lower being better; ok is
	// false when the candidate is infeasible.
	Try func(base, u, v grid.Coord) (cand T, score int, ok bool)
}

// Place walks the ladder. The anchors are the device's bridge rectangles:
// the canonical top-left one and at most maxAnchorRetries more (stage 1 of
// the degradation ladder). Under each anchor every lattice basis is tried,
// smallest cell first, and the first feasible base of a basis is its
// candidate. A candidate replaces the best only with a strictly lower
// score, so the earliest wins ties.
//
// The context is checked before each basis and after each rejected base,
// since Try may reject a base because the context was canceled. A walk the
// context cuts short could miss the candidate an uncanceled search picks,
// so it returns a BudgetError and no candidate; a walk that completes
// stands.
func Place[T any](ctx context.Context, l Ladder[T]) (T, error) {
	var best T
	rects := BridgeRectangles(l.Dev, l.Mode)
	if len(rects) == 0 {
		return best, &PlacementError{
			Device: l.Dev.Name(), Distance: l.Distance, Mode: l.Mode,
			Reason: fmt.Sprintf("no degree-%d qubits to anchor bridge rectangles", 3+int(l.Mode)),
		}
	}
	anchors := min(len(rects), 1+maxAnchorRetries)
	uvs := latticeCandidates(l.Mode, maxPeriod)
	found, bestScore, lattices := false, 0, 0
	canceled := func(err error) (T, error) {
		var none T
		return none, &BudgetError{Stage: l.Stage, Cause: err}
	}
	for _, anchor := range rects[:anchors] {
		lattices += len(uvs)
		for _, uv := range uvs {
			if err := ctx.Err(); err != nil {
				return canceled(err)
			}
			for _, base := range baseCandidates(l.Dev, anchor, uv[0], uv[1]) {
				cand, score, ok := l.Try(base, uv[0], uv[1])
				if !ok {
					if err := ctx.Err(); err != nil {
						return canceled(err)
					}
					continue
				}
				if !found || score < bestScore {
					best, bestScore, found = cand, score, true
				}
				break // one feasible base per lattice basis
			}
		}
		if found && !l.EveryAnchor {
			break
		}
	}
	if !found {
		return best, &PlacementError{
			Device: l.Dev.Name(), Distance: l.Distance, Mode: l.Mode,
			Anchors: anchors, Lattices: lattices, Reason: l.Exhausted,
		}
	}
	return best, nil
}

// Allocate runs data qubit allocation for a distance-d rotated surface code
// on the device. It searches the periodic lattices anchored by the device's
// bridge rectangles (Algorithm 1) and returns the best-scoring layout of
// the first anchor under which every stabilizer of some lattice admits a
// local bridge tree (verified with Algorithm 2's tree finder). Scoring
// every lattice rather than taking the first feasible one keeps sparse
// lattices rescued by oversized fallback trees from winning.
//
// On a pristine device the search behaves exactly as Algorithm 1: only the
// top-left bridge rectangle anchors the lattice. When that anchor admits no
// feasible layout — the signature of defects under the canonical placement —
// stage 1 of the degradation ladder retries the search from alternative
// anchors in deterministic order before reporting ErrNoPlacement.
//
// The context cancels the search between candidate evaluations; a canceled
// search returns a BudgetError (ErrBudgetExceeded).
func Allocate(ctx context.Context, dev *device.Device, d int, mode Mode) (*Layout, error) {
	return allocate(ctx, dev, d, mode, false)
}

// AllocateRelaxed is the placement fallback of the degradation ladder: when
// Allocate finds no layout in which every stabilizer routes, it re-runs the
// anchor search accepting layouts with unroutable stabilizers, returning the
// one that strands the fewest (bridge-tree size and hook penalties break
// ties). At least one stabilizer must route; otherwise ErrNoPlacement.
// The relaxed search scans every permitted anchor and keeps the overall
// best rather than stopping at the first hit: once stabilizers are being
// sacrificed, which anchor strands fewest is not monotone in anchor order.
//
// SynthesizeDegraded calls this automatically — Synthesize never does, so
// the strict pipeline's failure semantics are unchanged.
func AllocateRelaxed(ctx context.Context, dev *device.Device, d int, mode Mode) (*Layout, error) {
	return allocate(ctx, dev, d, mode, true)
}

// droppedPenalty dominates the relaxed allocation score so that stranding
// one more stabilizer is never worth any tree-size or hook improvement.
const droppedPenalty = 100000

// allocate is Allocate, or AllocateRelaxed when relaxed is set. Every
// candidate's tree pass runs on one finder, so the device's hop prices are
// compiled once per search.
func allocate(ctx context.Context, dev *device.Device, d int, mode Mode, relaxed bool) (*Layout, error) {
	c, err := code.NewRotated(d)
	if err != nil {
		return nil, err
	}
	exhausted := "no feasible lattice base under any anchor"
	if relaxed {
		exhausted = "no lattice routes even a partial stabilizer set under any anchor"
	}
	f := newFinder(dev)
	return Place(ctx, Ladder[*Layout]{
		Dev: dev, Distance: d, Mode: mode, Stage: "allocate",
		EveryAnchor: relaxed, Exhausted: exhausted,
		Try: func(base, u, v grid.Coord) (*Layout, int, bool) {
			layout, ok := InstantiateLattice(dev, c, mode, base, u, v)
			if !ok {
				return nil, 0, false
			}
			trees, dropped, err := f.allTrees(layout, false, relaxed)
			if err != nil || len(dropped) == len(trees) {
				return nil, 0, false // nothing routes: not a placement
			}
			layout.Score = Score(layout, trees) + droppedPenalty*len(dropped)
			return layout, layout.Score, true
		},
	})
}

// Score is the allocation quality metric of a layout routed by the given
// trees (nil where a stabilizer is dropped): the total size of the trees
// plus a hook-orientation penalty, lower being better. A bridge leaf of an
// X-type tree that couples two data qubits of the same abstract column
// turns a single hook fault into a vertical weight-2 X error — aligned with
// the logical X operator — halving the code's effective distance against
// the Pauli-X errors the paper's evaluation measures. Each such pair costs
// 500, so that a transposed orientation (horizontal, benign hooks) wins.
func Score(layout *Layout, trees []*graph.Tree) int {
	score := 0
	for _, t := range trees {
		if t != nil {
			score += t.EdgeLen()
		}
	}
	return score + 500*verticalXHookPairs(layout, trees)
}

// baseCandidates lists plausible positions for abstract data qubit (0,0):
// every qubit within the anchor rectangle expanded by one lattice cell, plus
// the whole top band of the device. The top band matters for diamond
// lattices (ModeFour), whose base is the topmost diamond vertex and can sit
// anywhere along the device's upper edge.
func baseCandidates(dev *device.Device, anchor grid.Rect, u, v grid.Coord) []grid.Coord {
	cell := max(abs(u.X)+abs(v.X), abs(u.Y)+abs(v.Y))
	reach := anchor.Expand(cell)
	bounds := dev.Bounds()
	topBand := grid.Rect{
		MinX: bounds.MinX, MaxX: bounds.MaxX,
		MinY: bounds.MinY, MaxY: bounds.MinY + cell,
	}
	seen := map[grid.Coord]bool{}
	var out []grid.Coord
	for _, r := range []grid.Rect{reach, topBand} {
		for _, q := range dev.QubitsIn(r) {
			c := dev.Coord(q)
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// InstantiateLattice realizes code c on the device under the affine
// embedding (base, u, v): data (r, cl) at base + cl*u + r*v, with each
// stabilizer's syndrome rectangle. It returns nil, false when any lattice
// point misses a device qubit, and checks every point before it allocates:
// most candidate bases fail.
func InstantiateLattice(dev *device.Device, c *code.Code, mode Mode, base, u, v grid.Coord) (*Layout, bool) {
	at := func(r, cl int) grid.Coord { return base.Add(u.Scale(cl)).Add(v.Scale(r)) }
	for r := 0; r < c.Rows(); r++ {
		for cl := 0; cl < c.Cols(); cl++ {
			if _, ok := dev.QubitAt(at(r, cl)); !ok {
				return nil, false
			}
		}
	}
	layout := &Layout{
		Dev: dev, Code: c, Mode: mode,
		Base: base, U: u, V: v,
		DataQubit: make([]int, c.NumData()),
		IsData:    make([]bool, dev.Len()),
	}
	for r := 0; r < c.Rows(); r++ {
		for cl := 0; cl < c.Cols(); cl++ {
			q, _ := dev.QubitAt(at(r, cl))
			layout.DataQubit[c.DataIndex(r, cl)] = q
			layout.IsData[q] = true
		}
	}
	layout.Rects = stabilizerRects(dev, c, layout.DataQubit)
	return layout, true
}

// verticalXHookPairs counts bridge leaves of X-type trees whose coupled
// data qubits share an abstract column (hook pairs parallel to the logical
// X operator).
func verticalXHookPairs(layout *Layout, trees []*graph.Tree) int {
	col := map[int]int{} // device qubit -> abstract column
	for idx, q := range layout.DataQubit {
		_, c := layout.Code.DataPos(idx)
		col[q] = c
	}
	bad := 0
	for si, st := range layout.Code.Stabilizers() {
		if st.Type != code.StabX {
			continue
		}
		t := trees[si]
		if t == nil {
			continue // dropped under relaxed allocation: no hooks to audit
		}
		// Group the stabilizer's data qubits by their parent bridge leaf.
		byLeaf := map[int][]int{}
		for _, dq := range st.Data {
			q := layout.DataQubit[dq]
			byLeaf[t.Parent(q)] = append(byLeaf[t.Parent(q)], q)
		}
		for _, group := range byLeaf {
			if len(group) == 2 && col[group[0]] == col[group[1]] {
				bad++
			}
		}
	}
	return bad
}

// Directions returns the plaquette direction of each data qubit of
// stabilizer index si, keyed by device qubit.
func (l *Layout) Directions(si int) map[int]flagbridge.Direction {
	s := l.Code.Stabilizers()[si]
	out := map[int]flagbridge.Direction{}
	for _, dq := range s.Data {
		r, c := l.Code.DataPos(dq)
		var dir flagbridge.Direction
		switch {
		case r == s.Corner[0]-1 && c == s.Corner[1]-1:
			dir = flagbridge.NW
		case r == s.Corner[0]-1 && c == s.Corner[1]:
			dir = flagbridge.NE
		case r == s.Corner[0] && c == s.Corner[1]-1:
			dir = flagbridge.SW
		default:
			dir = flagbridge.SE
		}
		out[l.DataQubit[dq]] = dir
	}
	return out
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
