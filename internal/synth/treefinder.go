package synth

import (
	"fmt"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/graph"
	"surfstitch/internal/grid"
	"surfstitch/internal/noise"
)

// maxRectExpand bounds how far a syndrome rectangle may grow when the tight
// rectangle admits no bridge tree (boundary stabilizers routinely need one
// extra ring of qubits).
const maxRectExpand = 3

// FindAllTrees runs Algorithm 2 for every stabilizer of the layout,
// processing each stabilizer type in deterministic order and preferring
// same-type bridge trees to be disjoint (the property the initial X/Z
// schedule exploits). On tightly packed layouts the boundary stabilizers may
// have no disjoint option — the paper's Table 3 square layout leaves zero
// unused qubits — so the finder falls back to overlapping trees, which the
// measurement scheduler later places in different sets. The result is
// indexed like layout.Code.Stabilizers().
func FindAllTrees(layout *Layout) ([]*graph.Tree, error) {
	trees, _, err := newFinder(layout.Dev).allTrees(layout, false, false)
	return trees, err
}

// allTrees is the shared core of the pristine and degraded tree passes,
// on the finder's scratch. With starOnly set the branching-tree heuristic
// is off for every stabilizer (the star-only ablation). With degrade set,
// an unroutable stabilizer does not abort the pass: its tree stays nil and
// its RouteError is recorded in the dropped map.
func (f *finder) allTrees(layout *Layout, starOnly, degrade bool) ([]*graph.Tree, map[int]error, error) {
	f.layout = layout
	stabs := layout.Code.Stabilizers()
	n := layout.Dev.Len()
	trees := make([]*graph.Tree, len(stabs))
	blockedBy := map[code.StabType][]bool{
		code.StabX: make([]bool, n),
		code.StabZ: make([]bool, n),
	}
	both, none := make([]bool, n), make([]bool, n)
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
		for i := range both {
			both[i] = same[i] || other[i]
		}
		tree, err := f.findTree(si, both, starOnly)
		if err != nil {
			tree, err = f.findTree(si, same, starOnly)
		}
		if err != nil {
			tree, err = f.findTree(si, none, starOnly)
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

// FindTree finds a small local bridge tree for stabilizer si: bridge qubits
// confined to the stabilizer's syndrome rectangle (expanded ring by ring up
// to maxRectExpand), avoiding data qubits and the blocked set. Both the
// star-tree and branching-tree heuristics run; the smaller tree wins
// (Algorithm 2 line 13). The returned tree is rooted at its center.
func FindTree(layout *Layout, si int, blocked []bool) (*graph.Tree, error) {
	f := newFinder(layout.Dev)
	f.layout = layout
	return f.findTree(si, blocked, false)
}

// edgeCoster prices hops for the defect-weighted Dijkstra. The base price of
// a hop is 1000 milli-hops; error-rate overrides on the entered qubit and
// the traversed coupler add 20000·rate (a 5% rate costs about one extra
// hop), and a calibration snapshot adds the same 20000-scaled penalty from
// its derived channel strengths — 1q depolarizing plus readout for the
// entered qubit, 2q depolarizing for the coupler. Routes therefore detour
// around derated hardware, and among equal-hop routes prefer the
// best-calibrated one, without ballooning tree sizes.
type edgeCoster struct {
	dev  *device.Device
	qpen []int          // per-qubit calibration penalty, milli-hops
	cpen map[[2]int]int // per-coupler calibration penalty, milli-hops
}

func newEdgeCoster(dev *device.Device) *edgeCoster {
	ec := &edgeCoster{dev: dev}
	cal := dev.Calibration()
	if cal == nil {
		return ec
	}
	ec.qpen = make([]int, dev.Len())
	ec.cpen = make(map[[2]int]int, len(cal.Couplers))
	for _, qc := range cal.Qubits {
		if q, ok := dev.QubitAt(qc.At); ok {
			ec.qpen[q] = int(20000 * (noise.Gate1Rate(qc.Fidelity1Q) + qc.ReadoutError))
		}
	}
	for _, cc := range cal.Couplers {
		a, aok := dev.QubitAt(cc.Between[0])
		b, bok := dev.QubitAt(cc.Between[1])
		if !aok || !bok {
			continue
		}
		if a > b {
			a, b = b, a
		}
		ec.cpen[[2]int{a, b}] = int(20000 * noise.Gate2Rate(cc.Fidelity2Q))
	}
	return ec
}

// cost prices one hop u→v in milli-hops.
func (ec *edgeCoster) cost(u, v int) int {
	cost := 1000
	if r, ok := ec.dev.QubitErrorRate(v); ok {
		cost += int(20000 * r)
	}
	if r, ok := ec.dev.CouplerErrorRate(u, v); ok {
		cost += int(20000 * r)
	}
	if ec.qpen != nil {
		cost += ec.qpen[v]
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		cost += ec.cpen[key]
	}
	return cost
}

// compileHops prices every directed hop of the device once, in arrays
// aligned with the coupling graph's adjacency: hop[u][k] is the cost of
// entering the k-th neighbour of u, by edgeCoster.cost.
func compileHops(dev *device.Device) [][]int {
	g := dev.Graph()
	ec := newEdgeCoster(dev)
	hop := make([][]int, g.Len())
	flat := make([]int, 2*g.EdgeCount())
	for u := range hop {
		nbrs := g.Neighbors(u)
		hop[u], flat = flat[:len(nbrs):len(nbrs)], flat[len(nbrs):]
		for k, v := range nbrs {
			hop[u][k] = ec.cost(u, v)
		}
	}
	return hop
}

// finder runs Algorithm 2's searches for one search call: a FindTree or
// FindAllTrees call, a synthesis's tree pass, or every tree pass of one
// Allocate or AllocateRelaxed call, which all route on one device. It
// prices the device's hops once, keeps one search scratch whose per-node
// arrays are stamped with an epoch instead of cleared, and scores each
// candidate tree by its size alone: only the winner of each stabilizer
// becomes a graph.Tree. A finder belongs to the call that made it; it is
// never stored on the device or in a package variable, and never shared
// between goroutines.
type finder struct {
	// layout is the layout of the current tree pass, on the finder's device.
	layout *Layout
	g      *graph.Graph
	// hop[u][k] prices entering the k-th neighbour of u, in milli-hops; nil
	// on a device without error information, whose searches are plain BFS.
	hop [][]int

	// clock issues epochs. A per-node entry belongs to the current use of
	// its array only while its stamp equals that use's epoch.
	clock    uint32
	searchEp uint32
	seen     []uint32 // parent and dist hold the current search's values
	done     []uint32 // settled by the current Dijkstra
	parent   []int
	dist     []int
	queue    []int
	heap     []nodeDist

	termEp   uint32
	terminal []uint32 // the stabilizer's data qubits
	inEp     uint32
	interior []uint32 // free bridge candidates in the current rectangle
	inner    []int    // the interior qubits, ascending
	data     []int    // the stabilizer's data qubits, in stabilizer order

	mark  []uint32 // path and union membership
	union []int    // a star candidate's nodes other than its root
	paths [4][4][]int

	// The smallest candidate so far: its edge count (-1 for none), root and
	// edges.
	bestSize  int
	bestRoot  int
	bestEdges [][2]int
}

func newFinder(dev *device.Device) *finder {
	n := dev.Len()
	f := &finder{
		g:        dev.Graph(),
		seen:     make([]uint32, n),
		done:     make([]uint32, n),
		parent:   make([]int, n),
		dist:     make([]int, n),
		terminal: make([]uint32, n),
		interior: make([]uint32, n),
		mark:     make([]uint32, n),
	}
	if dev.HasErrorOverrides() {
		f.hop = compileHops(dev)
	}
	return f
}

func (f *finder) tick() uint32 {
	f.clock++
	return f.clock
}

// findTree is FindTree on the finder's scratch, with the branching-tree
// heuristic off when starOnly is set.
func (f *finder) findTree(si int, blocked []bool, starOnly bool) (*graph.Tree, error) {
	for expand := 0; expand <= maxRectExpand; expand++ {
		if f.score(si, expand, blocked, starOnly) {
			return f.winner()
		}
	}
	return nil, &RouteError{
		Device:     f.layout.Dev.Name(),
		Stabilizer: f.layout.Code.Stabilizers()[si].String(),
		Index:      si,
		Rect:       f.layout.Rects[si],
		Expand:     maxRectExpand,
	}
}

// score runs both heuristics for stabilizer si inside its syndrome
// rectangle expanded by expand rings, avoiding blocked qubits, and reports
// whether any candidate exists; the smallest is left in bestRoot and
// bestEdges. Stars come first in ascending root order, then the branching
// pairings in cost order, and a candidate replaces the best only when
// strictly smaller (Algorithm 2 line 13).
func (f *finder) score(si, expand int, blocked []bool, starOnly bool) bool {
	f.scope(si, expand, blocked)
	f.bestSize = -1
	f.scoreStars()
	if len(f.data) == 4 && !starOnly {
		f.scoreBranchings()
	}
	return f.bestSize >= 0
}

// scope stamps stabilizer si's data qubits as the terminals and the free
// bridge candidates of its rectangle, expanded by expand rings, as the
// interior.
func (f *finder) scope(si, expand int, blocked []bool) {
	l := f.layout
	f.termEp = f.tick()
	f.data = f.data[:0]
	for _, dq := range l.Code.Stabilizers()[si].Data {
		q := l.DataQubit[dq]
		f.terminal[q] = f.termEp
		f.data = append(f.data, q)
	}
	rect := l.Rects[si].Expand(expand)
	f.inEp = f.tick()
	f.inner = f.inner[:0]
	for q := range f.interior {
		if rect.Contains(l.Dev.Coord(q)) && !l.IsData[q] && !blocked[q] {
			f.interior[q] = f.inEp
			f.inner = append(f.inner, q)
		}
	}
}

func (f *finder) isTerminal(v int) bool { return f.terminal[v] == f.termEp }

// open reports whether a route may enter v: through it when interior, or
// ending on it when a terminal.
func (f *finder) open(v int) bool { return f.interior[v] == f.inEp || f.terminal[v] == f.termEp }

// search grows src's shortest-path tree: routes run through interior nodes
// and may end on terminals, which are never expanded (src itself may be
// one). Afterwards seen[v] == searchEp marks the reached nodes and parent
// their parent pointers; src is its own parent. On a pristine device it is
// a plain BFS (fewest hops, the paper's Algorithm 2). On a device carrying
// error overrides or a calibration it is a Dijkstra over the compiled hop
// prices, so bridge routes detour around derated qubits and couplers —
// stage two of the degradation ladder.
//
// Callers read only the routes to terminals, so the search stops once
// every terminal other than src is reached (BFS) or settled (Dijkstra):
// from then on no parent pointer on those routes can change.
func (f *finder) search(src int) {
	ep := f.tick()
	f.searchEp = ep
	f.seen[src], f.parent[src] = ep, src
	left := len(f.data)
	if f.isTerminal(src) {
		left--
	}
	if f.hop == nil {
		f.bfs(src, ep, left)
	} else {
		f.dijkstra(src, ep, left)
	}
}

func (f *finder) bfs(src int, ep uint32, left int) {
	queue := append(f.queue[:0], src)
search:
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if u != src && f.isTerminal(u) {
			continue
		}
		for _, v := range f.g.Neighbors(u) {
			if f.seen[v] == ep || !f.open(v) {
				continue
			}
			f.seen[v], f.parent[v] = ep, u
			queue = append(queue, v)
			if f.isTerminal(v) {
				if left--; left == 0 {
					break search
				}
			}
		}
	}
	f.queue = queue
}

// dijkstra settles nodes in (dist, node) order. That order is total, so
// the pop sequence does not depend on the heap's layout. Equal distances
// keep the smaller parent id, which makes routes deterministic.
func (f *finder) dijkstra(src int, ep uint32, left int) {
	f.dist[src] = 0
	f.heap = append(f.heap[:0], nodeDist{0, src})
	for len(f.heap) > 0 {
		u := f.pop().node
		if f.done[u] == ep {
			continue
		}
		f.done[u] = ep
		if u != src && f.isTerminal(u) {
			if left--; left == 0 {
				return
			}
			continue
		}
		for k, v := range f.g.Neighbors(u) {
			if f.done[v] == ep || !f.open(v) {
				continue
			}
			nd := f.dist[u] + f.hop[u][k]
			if f.seen[v] != ep || nd < f.dist[v] || (nd == f.dist[v] && u < f.parent[v]) {
				f.seen[v], f.dist[v], f.parent[v] = ep, nd, u
				f.push(nodeDist{nd, v})
			}
		}
	}
}

// nodeDist is a Dijkstra heap entry, ordered by distance and then node id.
type nodeDist struct{ dist, node int }

func (a nodeDist) less(b nodeDist) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

func (f *finder) push(e nodeDist) {
	h := append(f.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	f.heap = h
}

func (f *finder) pop() nodeDist {
	h := f.heap
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].less(h[m]) {
			m = r
		}
		if !h[m].less(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	f.heap = h
	return top
}

// scoreStars implements the star-tree method: every interior qubit q is
// tried as the root, and its candidate is the union of its search tree's
// paths to the data qubits. That union is a subtree of the search tree, and
// terminals are never expanded, so its leaves are exactly the data qubits
// and its edge count is the number of distinct nodes on the paths other
// than q.
func (f *finder) scoreStars() {
	for _, q := range f.inner {
		f.search(q)
		reached := true
		for _, d := range f.data {
			reached = reached && f.seen[d] == f.searchEp
		}
		if !reached {
			continue
		}
		ep := f.tick()
		f.mark[q] = ep
		f.union = f.union[:0]
		for _, d := range f.data {
			for v := d; f.mark[v] != ep; v = f.parent[v] {
				f.mark[v] = ep
				f.union = append(f.union, v)
			}
		}
		if f.bestSize < 0 || len(f.union) < f.bestSize {
			f.bestSize, f.bestRoot = len(f.union), q
			f.bestEdges = f.bestEdges[:0]
			for _, v := range f.union {
				f.bestEdges = append(f.bestEdges, [2]int{v, f.parent[v]})
			}
		}
	}
}

// scoreBranchings implements the branching-tree method for weight-4
// stabilizers: connect a pairing's two data pairs by shortest paths, then
// join the two paths by a connector (Algorithm 2 lines 7–12). Pairings are
// tried in order of their paths' total hop count, ties in listing order.
func (f *finder) scoreBranchings() {
	// Each pairing takes its paths from the lower-indexed qubit's search,
	// so the last data qubit never roots one.
	for a := 0; a < 3; a++ {
		f.search(f.data[a])
		for b := a + 1; b < 4; b++ {
			f.paths[a][b] = f.pathTo(f.paths[a][b][:0], f.data[b])
		}
	}
	pairings := [3][4]int{{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2}}
	var cost [3]int
	for i, pr := range pairings {
		cost[i] = f.hops(pr[0], pr[1]) + f.hops(pr[2], pr[3])
	}
	for i := 1; i < len(pairings); i++ { // stable insertion sort
		for j := i; j > 0 && cost[j] < cost[j-1]; j-- {
			cost[j], cost[j-1] = cost[j-1], cost[j]
			pairings[j], pairings[j-1] = pairings[j-1], pairings[j]
		}
	}
	for _, pr := range pairings {
		p1, p2 := f.paths[pr[0]][pr[1]], f.paths[pr[2]][pr[3]]
		if len(p1) == 0 || len(p2) == 0 {
			continue
		}
		size, hit := f.join(p1, p2)
		if hit < 0 || (f.bestSize >= 0 && size >= f.bestSize) {
			continue
		}
		f.bestSize = size
		f.bestEdges = f.bestEdges[:0]
		for _, p := range [2][]int{p1, p2} {
			for i := 1; i < len(p); i++ {
				f.bestEdges = append(f.bestEdges, [2]int{p[i-1], p[i]})
			}
		}
		v := hit
		for ; f.parent[v] != v; v = f.parent[v] {
			f.bestEdges = append(f.bestEdges, [2]int{v, f.parent[v]})
		}
		f.bestRoot = v
	}
}

// pathTo appends the current search's route from its source to dst onto
// buf, source first; an unreached dst leaves buf empty.
func (f *finder) pathTo(buf []int, dst int) []int {
	if f.seen[dst] != f.searchEp {
		return buf
	}
	for v := dst; ; v = f.parent[v] {
		buf = append(buf, v)
		if f.parent[v] == v {
			break
		}
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// hops is the hop count of the path between data qubits a and b, or 2^20
// when they are not connected.
func (f *finder) hops(a, b int) int {
	if p := f.paths[a][b]; len(p) > 0 {
		return len(p) - 1
	}
	return 1 << 20
}

// join connects two data-to-data paths by the shortest connector between
// their bridge nodes: a multi-source BFS from p1's bridge nodes, in path
// order, through interior nodes on neither path, stopping at the first
// bridge node of p2 it reaches. It returns that node, whose parent pointers
// lead back along the connector, and the candidate's size: p1, p2 and the
// connector have |p1|+|p2|+|connector|−3 edges. Paths that intersect (the
// star method covers those), paths without bridge nodes, and paths no
// connector joins yield no candidate, hit -1.
func (f *finder) join(p1, p2 []int) (size, hit int) {
	on1, on2 := f.tick(), f.tick()
	for _, v := range p1 {
		f.mark[v] = on1
	}
	bridges2 := 0
	for _, v := range p2 {
		if f.mark[v] == on1 {
			return 0, -1
		}
		f.mark[v] = on2
		if !f.isTerminal(v) {
			bridges2++
		}
	}
	ep := f.tick()
	queue := f.queue[:0]
	for _, v := range p1 {
		if !f.isTerminal(v) {
			f.seen[v], f.parent[v] = ep, v
			queue = append(queue, v)
		}
	}
	hit = -1
	if len(queue) > 0 && bridges2 > 0 {
		for head := 0; head < len(queue) && hit < 0; head++ {
			u := queue[head]
			for _, v := range f.g.Neighbors(u) {
				if f.seen[v] == ep {
					continue
				}
				if f.mark[v] == on2 {
					if f.isTerminal(v) {
						continue // cannot attach at a data qubit
					}
					f.seen[v], f.parent[v] = ep, u
					hit = v
					break
				}
				if f.interior[v] != f.inEp || f.mark[v] == on1 {
					continue
				}
				f.seen[v], f.parent[v] = ep, u
				queue = append(queue, v)
			}
		}
	}
	f.queue = queue
	if hit < 0 {
		return 0, -1
	}
	nodes := 1
	for v := hit; f.parent[v] != v; v = f.parent[v] {
		nodes++
	}
	return len(p1) + len(p2) + nodes - 3, hit
}

// winner builds the best candidate's tree and re-roots it once, at the
// bridge node of least eccentricity (ties toward the smaller id): the root
// acts as the syndrome qubit, and a central root minimizes the encoding
// depth.
func (f *finder) winner() (*graph.Tree, error) {
	t, err := graph.BuildTree(f.bestRoot, f.bestEdges)
	if err != nil {
		return nil, err
	}
	center, bestEcc := -1, 0
	for _, n := range t.Nodes() {
		if f.layout.IsData[n] {
			continue
		}
		if ecc := f.eccentricity(t, n); center < 0 || ecc < bestEcc {
			center, bestEcc = n, ecc
		}
	}
	if center < 0 {
		return nil, fmt.Errorf("synth: tree has no bridge qubits")
	}
	return t.Reroot(center)
}

// eccentricity is the largest distance from n to a node of t, by BFS over
// the tree's own parent and child links.
func (f *finder) eccentricity(t *graph.Tree, n int) int {
	ep := f.tick()
	f.seen[n], f.dist[n] = ep, 0
	queue := append(f.queue[:0], n)
	visit := func(u, v int) {
		if f.seen[v] != ep {
			f.seen[v], f.dist[v] = ep, f.dist[u]+1
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range t.Children(u) {
			visit(u, v)
		}
		visit(u, t.Parent(u)) // the root is its own parent, already seen
	}
	f.queue = queue
	return f.dist[queue[len(queue)-1]]
}

// TreeStats summarizes bridge tree sizes for reporting.
type TreeStats struct {
	Bridges int // bridge qubits (tree nodes minus data leaves)
	Edges   int // total tree edges
}

// StatsFor computes the bridge statistics of a tree given the layout.
func (l *Layout) StatsFor(t *graph.Tree) TreeStats {
	bridges := 0
	for _, n := range t.Nodes() {
		if !l.IsData[n] {
			bridges++
		}
	}
	return TreeStats{Bridges: bridges, Edges: t.EdgeLen()}
}

// RectsByType returns the syndrome rectangles of one stabilizer type, for
// overlap diagnostics.
func (l *Layout) RectsByType(t code.StabType) []grid.Rect {
	var out []grid.Rect
	for i, s := range l.Code.Stabilizers() {
		if s.Type == t {
			out = append(out, l.Rects[i])
		}
	}
	return out
}
