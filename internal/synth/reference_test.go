package synth

import (
	"container/heap"
	"fmt"
	"sort"

	"surfstitch/internal/code"
	"surfstitch/internal/graph"
)

// This file keeps the original map-and-closure implementation of Algorithm
// 2 as a test oracle: every search allocates its own arrays, every
// candidate root becomes a graph.Tree, and the center is found by
// re-rooting the winner at each bridge node. TestFindAllTreesMatchesReference
// holds the compiled finder to it tree for tree.

// referenceFindAllTrees is the original findAllTrees. With degrade set, an
// unroutable stabilizer does not abort the pass: its tree stays nil and its
// RouteError is recorded in the dropped map.
func referenceFindAllTrees(layout *Layout, starOnly, degrade bool) ([]*graph.Tree, map[int]error, error) {
	stabs := layout.Code.Stabilizers()
	trees := make([]*graph.Tree, len(stabs))
	blockedBy := map[code.StabType][]bool{
		code.StabX: make([]bool, layout.Dev.Len()),
		code.StabZ: make([]bool, layout.Dev.Len()),
	}
	// Bulk (weight-4) stabilizers of both types go first: their trees are
	// the most constrained (often a single possible root), while boundary
	// stabilizers usually have alternatives.
	var order []int
	for _, w := range []int{4, 2} {
		for _, t := range []code.StabType{code.StabX, code.StabZ} {
			for si, s := range stabs {
				if s.Type == t && s.Weight() == w {
					order = append(order, si)
				}
			}
		}
	}
	var dropped map[int]error
	for _, si := range order {
		s := stabs[si]
		same := blockedBy[s.Type]
		other := blockedBy[s.Type.Opposite()]
		// Preference ladder: avoid every earlier tree (maximal parallelism),
		// then only same-type trees (the initial X/Z schedule still works),
		// then nothing (the scheduler serializes the conflicts).
		both := make([]bool, len(same))
		for i := range both {
			both[i] = same[i] || other[i]
		}
		tree, err := referenceFindTree(layout, si, both, starOnly)
		if err != nil {
			tree, err = referenceFindTree(layout, si, same, starOnly)
		}
		if err != nil {
			tree, err = referenceFindTree(layout, si, make([]bool, layout.Dev.Len()), starOnly)
		}
		if err != nil {
			if !degrade {
				return nil, nil, fmt.Errorf("synth: stabilizer %v: %w", s, err)
			}
			if dropped == nil {
				dropped = map[int]error{}
			}
			dropped[si] = err
			continue
		}
		trees[si] = tree
		for _, n := range tree.Nodes() {
			if !layout.IsData[n] {
				same[n] = true
			}
		}
	}
	return trees, dropped, nil
}

// referenceFindTree is the original FindTreeWith: star-only when starOnly
// is set.
func referenceFindTree(layout *Layout, si int, blocked []bool, starOnly bool) (*graph.Tree, error) {
	s := layout.Code.Stabilizers()[si]
	data := make([]int, len(s.Data))
	for i, dq := range s.Data {
		data[i] = layout.DataQubit[dq]
	}
	for expand := 0; expand <= maxRectExpand; expand++ {
		rect := layout.Rects[si].Expand(expand)
		interior := func(q int) bool {
			return rect.Contains(layout.Dev.Coord(q)) && !layout.IsData[q] && !blocked[q]
		}
		best := refBestStarTree(layout, data, interior)
		if len(data) == 4 && !starOnly {
			if bt := refBestBranchingTree(layout, data, interior); bt != nil {
				if best == nil || bt.EdgeLen() < best.EdgeLen() {
					best = bt
				}
			}
		}
		if best != nil {
			return refRerootAtCenter(best, layout.IsData)
		}
	}
	return nil, &RouteError{
		Device:     layout.Dev.Name(),
		Stabilizer: s.String(),
		Index:      si,
		Rect:       layout.Rects[si],
		Expand:     maxRectExpand,
	}
}

// refTerminalSearch finds routes from src through interior nodes toward the
// terminals. On a pristine device it is a plain BFS (fewest hops, the
// paper's Algorithm 2); on a device carrying calibration overrides it
// switches to a defect-weighted Dijkstra so bridge routes detour around
// derated qubits and couplers — stage two of the degradation ladder.
func refTerminalSearch(layout *Layout, src int, interior func(int) bool, terminals map[int]bool) []int {
	if layout.Dev.HasErrorOverrides() {
		return refTerminalDijkstra(layout, src, interior, terminals)
	}
	return refTerminalBFS(layout, src, interior, terminals)
}

// refTerminalBFS runs a BFS from src that expands only through interior nodes
// but may terminate on the given terminal nodes. It returns parent pointers
// (-1 = unreached; src's parent is src).
func refTerminalBFS(layout *Layout, src int, interior func(int) bool, terminals map[int]bool) []int {
	g := layout.Dev.Graph()
	parent := make([]int, layout.Dev.Len())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if terminals[u] && u != src {
			continue // do not expand through terminals
		}
		for _, v := range g.Neighbors(u) {
			if parent[v] != -1 {
				continue
			}
			if !interior(v) && !terminals[v] {
				continue
			}
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return parent
}

// refTerminalDijkstra is refTerminalBFS with defect-weighted edges. Ties break
// toward the smaller qubit id, keeping routes deterministic.
func refTerminalDijkstra(layout *Layout, src int, interior func(int) bool, terminals map[int]bool) []int {
	g := layout.Dev.Graph()
	ec := newEdgeCoster(layout.Dev)
	n := layout.Dev.Len()
	parent := make([]int, n)
	dist := make([]int, n)
	done := make([]bool, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = int(^uint(0) >> 1)
	}
	parent[src] = src
	dist[src] = 0
	pq := &refNodeHeap{{0, src}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(refNodeDist)
		u := top.node
		if done[u] {
			continue
		}
		done[u] = true
		if terminals[u] && u != src {
			continue // do not expand through terminals
		}
		for _, v := range g.Neighbors(u) {
			if done[v] || (!interior(v) && !terminals[v]) {
				continue
			}
			nd := dist[u] + ec.cost(u, v)
			if nd < dist[v] || (nd == dist[v] && u < parent[v]) {
				dist[v] = nd
				parent[v] = u
				heap.Push(pq, refNodeDist{nd, v})
			}
		}
	}
	return parent
}

// refNodeHeap is a min-heap of (distance, node) pairs with deterministic
// smaller-id tie-breaking.
type refNodeDist struct{ dist, node int }

type refNodeHeap []refNodeDist

func (h refNodeHeap) Len() int { return len(h) }
func (h refNodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h refNodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refNodeHeap) Push(x any)   { *h = append(*h, x.(refNodeDist)) }
func (h *refNodeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func refPathFromParents(parent []int, dst int) []int {
	if parent[dst] == -1 {
		return nil
	}
	path := []int{dst}
	for parent[path[len(path)-1]] != path[len(path)-1] {
		path = append(path, parent[path[len(path)-1]])
	}
	// reverse: src..dst
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// refBestStarTree implements the star-tree method: every interior qubit is
// tried as root; the BFS tree branches to the data qubits are merged. The
// smallest resulting tree wins.
func refBestStarTree(layout *Layout, data []int, interior func(int) bool) *graph.Tree {
	terminals := map[int]bool{}
	for _, d := range data {
		terminals[d] = true
	}
	var best *graph.Tree
	for q := 0; q < layout.Dev.Len(); q++ {
		if !interior(q) {
			continue
		}
		parent := refTerminalSearch(layout, q, interior, terminals)
		paths := make([][]int, 0, len(data))
		ok := true
		for _, d := range data {
			p := refPathFromParents(parent, d)
			if p == nil {
				ok = false
				break
			}
			paths = append(paths, p)
		}
		if !ok {
			continue
		}
		tree, err := graph.PathUnionTree(q, paths...)
		if err != nil {
			continue
		}
		if !refLeavesAreExactly(tree, data) {
			continue
		}
		if best == nil || tree.EdgeLen() < best.EdgeLen() {
			best = tree
		}
	}
	return best
}

// refBestBranchingTree implements the branching-tree method for weight-4
// stabilizers: connect the closest data-qubit pairs with shortest paths,
// then join the two paths by a connector path (Algorithm 2 lines 7–12).
func refBestBranchingTree(layout *Layout, data []int, interior func(int) bool) *graph.Tree {
	terminals := map[int]bool{}
	for _, d := range data {
		terminals[d] = true
	}
	// Pairwise distances between data qubits through the interior.
	dist := map[[2]int]int{}
	paths := map[[2]int][]int{}
	for _, a := range data {
		parent := refTerminalSearch(layout, a, interior, terminals)
		for _, b := range data {
			if b == a {
				continue
			}
			if p := refPathFromParents(parent, b); p != nil {
				dist[[2]int{a, b}] = len(p) - 1
				paths[[2]int{a, b}] = p
			}
		}
	}
	pairings := [][4]int{
		{data[0], data[1], data[2], data[3]},
		{data[0], data[2], data[1], data[3]},
		{data[0], data[3], data[1], data[2]},
	}
	sort.Slice(pairings, func(i, j int) bool {
		return refPairingCost(dist, pairings[i]) < refPairingCost(dist, pairings[j])
	})
	var best *graph.Tree
	for _, pr := range pairings {
		p1, ok1 := paths[[2]int{pr[0], pr[1]}]
		p2, ok2 := paths[[2]int{pr[2], pr[3]}]
		if !ok1 || !ok2 {
			continue
		}
		if t := refJoinPaths(layout, p1, p2, interior, terminals); t != nil {
			if !refLeavesAreExactly(t, data) {
				continue
			}
			if best == nil || t.EdgeLen() < best.EdgeLen() {
				best = t
			}
		}
	}
	return best
}

func refPairingCost(dist map[[2]int]int, pr [4]int) int {
	const inf = 1 << 20
	c := 0
	if d, ok := dist[[2]int{pr[0], pr[1]}]; ok {
		c += d
	} else {
		c += inf
	}
	if d, ok := dist[[2]int{pr[2], pr[3]}]; ok {
		c += d
	} else {
		c += inf
	}
	return c
}

// refJoinPaths connects two data-to-data shortest paths into one bridge tree by
// the shortest connector between their interior nodes. The two paths must
// not intersect; overlapping pairs are rejected (the star method covers
// those cases).
func refJoinPaths(layout *Layout, p1, p2 []int, interior func(int) bool, terminals map[int]bool) *graph.Tree {
	onP1 := map[int]bool{}
	for _, n := range p1 {
		onP1[n] = true
	}
	for _, n := range p2 {
		if onP1[n] {
			return nil
		}
	}
	in1, in2 := refInteriorNodes(p1, terminals), refInteriorNodes(p2, terminals)
	if len(in1) == 0 || len(in2) == 0 {
		return nil
	}
	onP2 := map[int]bool{}
	for _, n := range p2 {
		onP2[n] = true
	}
	// Multi-source BFS from p1's interior nodes through interior nodes not
	// already on either path; stop at p2's interior nodes.
	g := layout.Dev.Graph()
	parent := make([]int, layout.Dev.Len())
	for i := range parent {
		parent[i] = -1
	}
	var queue []int
	for _, n := range in1 {
		parent[n] = n
		queue = append(queue, n)
	}
	var hit int = -1
	for len(queue) > 0 && hit == -1 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if parent[v] != -1 {
				continue
			}
			if onP2[v] {
				if terminals[v] {
					continue // cannot attach at a data qubit
				}
				parent[v] = u
				hit = v
				break
			}
			if !interior(v) || onP1[v] {
				continue
			}
			parent[v] = u
			queue = append(queue, v)
		}
	}
	if hit == -1 {
		return nil
	}
	connector := refPathFromParents(parent, hit)
	root := connector[0]
	tree, err := graph.PathUnionTree(root, p1, p2, connector)
	if err != nil {
		return nil
	}
	return tree
}

func refInteriorNodes(path []int, terminals map[int]bool) []int {
	var out []int
	for _, n := range path {
		if !terminals[n] {
			out = append(out, n)
		}
	}
	return out
}

// refLeavesAreExactly checks that the tree's leaves are precisely the data
// qubits and that the tree contains at least one bridge qubit.
func refLeavesAreExactly(t *graph.Tree, data []int) bool {
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

// refRerootAtCenter re-roots the tree at the non-data node with minimal
// eccentricity (ties toward smaller id); the root acts as the syndrome
// qubit, and a central root minimizes the encoding depth.
func refRerootAtCenter(t *graph.Tree, isData []bool) (*graph.Tree, error) {
	bestNode, bestEcc := -1, 0
	for _, n := range t.Nodes() {
		if isData[n] {
			continue
		}
		rr, err := t.Reroot(n)
		if err != nil {
			return nil, err
		}
		ecc := rr.Height()
		if bestNode == -1 || ecc < bestEcc {
			bestNode, bestEcc = n, ecc
		}
	}
	if bestNode == -1 {
		return nil, fmt.Errorf("synth: tree has no bridge qubits")
	}
	return t.Reroot(bestNode)
}
