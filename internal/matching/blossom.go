// Package matching implements maximum-weight matching on general graphs via
// the blossom algorithm (Galil's O(n^3) formulation, following van
// Rantwijk's well-known array-based implementation), plus the
// minimum-weight perfect matching wrapper used by the MWPM decoder — the
// role PyMatching plays in the paper's toolchain.
//
// A Scratch keeps every buffer of the matcher between calls, its blossom
// bookkeeping included, so once warm the decoder's per-shot matchings
// allocate nothing. TestMatchingGoldenDigest pins the matcher's exact
// trajectory, tie-breaks included.
package matching

// Edge is a weighted undirected edge for the matcher. Weights are integers;
// callers with float weights should quantize (the decoder multiplies
// log-likelihood weights by a fixed scale).
type Edge struct {
	U, V int
	W    int64
}

const noNode = -1

// MaxWeightMatching computes a maximum-weight matching on the graph with n
// vertices. When maxCardinality is true, it returns the maximum-weight
// matching among all maximum-cardinality matchings. The result maps each
// vertex to its partner, or -1 when unmatched.
func MaxWeightMatching(n int, edges []Edge, maxCardinality bool) []int {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = noNode
	}
	if len(edges) == 0 || n == 0 {
		return mate
	}
	m := newMatcher(n, edges, maxCardinality)
	m.run()
	// Convert endpoint-based mates to vertex-based.
	for v := 0; v < n; v++ {
		if m.mate[v] >= 0 {
			mate[v] = m.endpoint[m.mate[v]]
		}
	}
	return mate
}

type matcher struct {
	nvertex int
	nedge   int
	edges   []Edge // weights doubled internally to preserve integrality
	maxCard bool

	endpoint  []int   // endpoint[p] = vertex at endpoint p; p/2 is the edge
	neighbend [][]int // remote endpoints of edges incident to each vertex

	mate          []int // vertex -> remote endpoint of its matched edge, or -1
	label         []int // 0 free, 1 S, 2 T (per top-level blossom and vertex)
	labelend      []int
	inblossom     []int
	blossomparent []int
	blossombase   []int
	bestedge      []int

	// Per blossom index: its children, the endpoints joining them, and its
	// least-slack edges to other S-blossoms. Each entry keeps its backing
	// array when the blossom is expanded and its index returns to
	// unusedblossoms, so the blossom that next takes the index builds its
	// lists without allocating. An empty best-edge list means "unknown":
	// addBlossom then rescans the child's leaves.
	blossomchilds    [][]int
	blossomendps     [][]int
	blossombestedges [][]int

	unusedblossoms []int
	dualvar        []int64
	allowedge      []bool
	queue          []int

	bestedgeto []int // addBlossom's table of best edges by blossom; all noNode between calls
	path       []int // scanBlossom's trace
	leaves     []int // addBlossom's and expandBlossom's leaf lists
	leavesBuf  []int // assignLabel's queue fill
}

func newMatcher(n int, edges []Edge, maxCard bool) *matcher {
	m := &matcher{}
	m.reset(n, edges, maxCard)
	return m
}

// reset (re)initializes the matcher for a fresh run over n vertices and the
// given edges, reusing every buffer whose capacity suffices. A matcher that
// lives inside a Scratch is reset once per matching call, which is what
// makes repeated small matchings (the decoder's per-shot blossom runs)
// allocation-free in the steady state.
func (m *matcher) reset(n int, edges []Edge, maxCard bool) {
	m.nvertex, m.nedge, m.maxCard = n, len(edges), maxCard
	m.edges = resizeEdges(m.edges, len(edges))
	var maxw int64
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			panic("matching: invalid edge")
		}
		// Double weights so that all dual arithmetic stays integral.
		m.edges[i] = Edge{U: e.U, V: e.V, W: 2 * e.W}
		if 2*e.W > maxw {
			maxw = 2 * e.W
		}
	}
	m.endpoint = resizeInts(m.endpoint, 2*m.nedge)
	m.neighbend = resizeIntSlices(m.neighbend, n)
	for v := 0; v < n; v++ {
		m.neighbend[v] = m.neighbend[v][:0]
	}
	for k, e := range m.edges {
		m.endpoint[2*k] = e.U
		m.endpoint[2*k+1] = e.V
		m.neighbend[e.U] = append(m.neighbend[e.U], 2*k+1)
		m.neighbend[e.V] = append(m.neighbend[e.V], 2*k)
	}
	m.mate = resizeInts(m.mate, n)
	fillInts(m.mate, noNode)
	m.label = resizeInts(m.label, 2*n)
	fillInts(m.label, 0)
	m.labelend = resizeInts(m.labelend, 2*n)
	fillInts(m.labelend, noNode)
	m.inblossom = resizeInts(m.inblossom, n)
	for i := range m.inblossom {
		m.inblossom[i] = i
	}
	m.blossomparent = resizeInts(m.blossomparent, 2*n)
	fillInts(m.blossomparent, noNode)
	m.blossomchilds = resizeIntSlices(m.blossomchilds, 2*n)
	m.blossomendps = resizeIntSlices(m.blossomendps, 2*n)
	m.blossombestedges = resizeIntSlices(m.blossombestedges, 2*n)
	for i := 0; i < 2*n; i++ {
		m.blossomchilds[i] = m.blossomchilds[i][:0]
		m.blossomendps[i] = m.blossomendps[i][:0]
		m.blossombestedges[i] = m.blossombestedges[i][:0]
	}
	m.blossombase = resizeInts(m.blossombase, 2*n)
	for v := 0; v < n; v++ {
		m.blossombase[v] = v
		m.blossombase[n+v] = noNode
	}
	m.bestedge = resizeInts(m.bestedge, 2*n)
	fillInts(m.bestedge, noNode)
	m.bestedgeto = resizeInts(m.bestedgeto, 2*n)
	fillInts(m.bestedgeto, noNode)
	m.unusedblossoms = m.unusedblossoms[:0]
	for b := n; b < 2*n; b++ {
		m.unusedblossoms = append(m.unusedblossoms, b)
	}
	m.dualvar = resizeInt64s(m.dualvar, 2*n)
	for v := 0; v < n; v++ {
		m.dualvar[v] = maxw
		m.dualvar[n+v] = 0
	}
	m.allowedge = resizeBools(m.allowedge, m.nedge)
	for i := range m.allowedge {
		m.allowedge[i] = false
	}
	m.queue = m.queue[:0]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeEdges(s []Edge, n int) []Edge {
	if cap(s) < n {
		return make([]Edge, n)
	}
	return s[:n]
}

// resizeIntSlices is resizeInts for lists of lists: a grown table keeps
// every inner list it had, so their backing arrays stay in use.
func resizeIntSlices(s [][]int, n int) [][]int {
	if cap(s) < n {
		grown := make([][]int, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

func fillInts(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

// slack returns the slack of edge k (non-negative on tight duals).
func (m *matcher) slack(k int) int64 {
	e := m.edges[k]
	return m.dualvar[e.U] + m.dualvar[e.V] - 2*e.W
}

// blossomLeaves appends all vertices contained in blossom b to out.
func (m *matcher) blossomLeaves(b int, out *[]int) {
	if b < m.nvertex {
		*out = append(*out, b)
		return
	}
	for _, t := range m.blossomchilds[b] {
		m.blossomLeaves(t, out)
	}
}

// assignLabel labels blossom containing w with t, reached through endpoint p.
func (m *matcher) assignLabel(w, t, p int) {
	b := m.inblossom[w]
	if m.label[w] != 0 || m.label[b] != 0 {
		panic("matching: relabeling a labeled node")
	}
	m.label[w] = t
	m.label[b] = t
	m.labelend[w] = p
	m.labelend[b] = p
	m.bestedge[w] = noNode
	m.bestedge[b] = noNode
	if t == 1 {
		m.leavesBuf = m.leavesBuf[:0]
		m.blossomLeaves(b, &m.leavesBuf)
		m.queue = append(m.queue, m.leavesBuf...)
	} else if t == 2 {
		base := m.blossombase[b]
		if m.mate[base] < 0 {
			panic("matching: T-blossom base unmatched")
		}
		m.assignLabel(m.endpoint[m.mate[base]], 1, m.mate[base]^1)
	}
}

// scanBlossom traces back from v and w to find the closest common ancestor
// blossom in the alternating tree; returns its base vertex, or noNode when
// an augmenting path was found instead.
func (m *matcher) scanBlossom(v, w int) int {
	path := m.path[:0]
	base := noNode
	for v != noNode || w != noNode {
		b := m.inblossom[v]
		if m.label[b]&4 != 0 {
			base = m.blossombase[b]
			break
		}
		if m.label[b] != 1 {
			panic("matching: scanBlossom hit non-S blossom")
		}
		path = append(path, b)
		m.label[b] = 5
		if m.labelend[b] != m.mate[m.blossombase[b]] {
			panic("matching: S-blossom labelend mismatch")
		}
		if m.labelend[b] == noNode {
			v = noNode
		} else {
			v = m.endpoint[m.labelend[b]]
			b = m.inblossom[v]
			if m.label[b] != 2 {
				panic("matching: expected T-blossom on trace")
			}
			if m.labelend[b] < 0 {
				panic("matching: T-blossom without labelend")
			}
			v = m.endpoint[m.labelend[b]]
		}
		if w != noNode {
			v, w = w, v
		}
	}
	for _, b := range path {
		m.label[b] = 1
	}
	m.path = path
	return base
}

// addBlossom creates a new blossom with the given base, formed by edge k and
// the tree paths from its endpoints back to the base.
func (m *matcher) addBlossom(base, k int) {
	v, w := m.edges[k].U, m.edges[k].V
	bb := m.inblossom[base]
	bv := m.inblossom[v]
	bw := m.inblossom[w]
	b := m.unusedblossoms[len(m.unusedblossoms)-1]
	m.unusedblossoms = m.unusedblossoms[:len(m.unusedblossoms)-1]
	m.blossombase[b] = base
	m.blossomparent[b] = noNode
	m.blossomparent[bb] = b
	path, endps := m.blossomchilds[b][:0], m.blossomendps[b][:0]
	for bv != bb {
		m.blossomparent[bv] = b
		path = append(path, bv)
		endps = append(endps, m.labelend[bv])
		v = m.endpoint[m.labelend[bv]]
		bv = m.inblossom[v]
	}
	path = append(path, bb)
	reverseInts(path)
	reverseInts(endps)
	endps = append(endps, 2*k)
	for bw != bb {
		m.blossomparent[bw] = b
		path = append(path, bw)
		endps = append(endps, m.labelend[bw]^1)
		w = m.endpoint[m.labelend[bw]]
		bw = m.inblossom[w]
	}
	if m.label[bb] != 1 {
		panic("matching: blossom base not S-labeled")
	}
	m.label[b] = 1
	m.labelend[b] = m.labelend[bb]
	m.dualvar[b] = 0
	m.blossomchilds[b] = path
	m.blossomendps[b] = endps
	m.leaves = m.leaves[:0]
	m.blossomLeaves(b, &m.leaves)
	for _, lv := range m.leaves {
		if m.label[m.inblossom[lv]] == 2 {
			m.queue = append(m.queue, lv)
		}
		m.inblossom[lv] = b
	}
	// Recompute best edges out of the new blossom.
	for _, child := range path {
		if len(m.blossombestedges[child]) == 0 {
			m.leaves = m.leaves[:0]
			m.blossomLeaves(child, &m.leaves)
			for _, lv := range m.leaves {
				for _, p := range m.neighbend[lv] {
					m.offerBestEdge(b, p/2)
				}
			}
		} else {
			for _, ek := range m.blossombestedges[child] {
				m.offerBestEdge(b, ek)
			}
		}
		m.blossombestedges[child] = m.blossombestedges[child][:0]
		m.bestedge[child] = noNode
	}
	best := m.blossombestedges[b][:0]
	for bj, ek := range m.bestedgeto {
		if ek != noNode {
			best = append(best, ek)
			m.bestedgeto[bj] = noNode
		}
	}
	m.blossombestedges[b] = best
	m.bestedge[b] = noNode
	for _, ek := range best {
		if m.bestedge[b] == noNode || m.slack(ek) < m.slack(m.bestedge[b]) {
			m.bestedge[b] = ek
		}
	}
}

// offerBestEdge records edge ek in bestedgeto when it leads from the new
// blossom b to another S-blossom with less slack than the edge recorded
// for that blossom so far.
func (m *matcher) offerBestEdge(b, ek int) {
	j := m.edges[ek].V
	if m.inblossom[j] == b {
		j = m.edges[ek].U
	}
	bj := m.inblossom[j]
	if bj != b && m.label[bj] == 1 &&
		(m.bestedgeto[bj] == noNode || m.slack(ek) < m.slack(m.bestedgeto[bj])) {
		m.bestedgeto[bj] = ek
	}
}

// expandBlossom dissolves blossom b, relabeling its children. When endstage
// is true the blossom's dual is zero and the stage is over.
func (m *matcher) expandBlossom(b int, endstage bool) {
	for _, s := range m.blossomchilds[b] {
		m.blossomparent[s] = noNode
		if s < m.nvertex {
			m.inblossom[s] = s
		} else if endstage && m.dualvar[s] == 0 {
			m.expandBlossom(s, endstage)
		} else {
			m.leaves = m.leaves[:0]
			m.blossomLeaves(s, &m.leaves)
			for _, lv := range m.leaves {
				m.inblossom[lv] = s
			}
		}
	}
	if !endstage && m.label[b] == 2 {
		// The blossom is a T-blossom inside the tree; relabel the even-path
		// children and clear the odd-path ones.
		entrychild := m.inblossom[m.endpoint[m.labelend[b]^1]]
		childs := m.blossomchilds[b]
		nc := len(childs)
		j := indexOf(childs, entrychild)
		jstep, endptrick := -1, 1
		if j&1 != 0 {
			j -= nc
			jstep, endptrick = 1, 0
		}
		p := m.labelend[b]
		for j != 0 {
			m.label[m.endpoint[p^1]] = 0
			m.label[m.endpoint[m.blossomendps[b][mod(j-endptrick, nc)]^endptrick^1]] = 0
			m.assignLabel(m.endpoint[p^1], 2, p)
			m.allowedge[m.blossomendps[b][mod(j-endptrick, nc)]/2] = true
			j += jstep
			p = m.blossomendps[b][mod(j-endptrick, nc)] ^ endptrick
			m.allowedge[p/2] = true
			j += jstep
		}
		bv := childs[mod(j, nc)]
		m.label[m.endpoint[p^1]] = 2
		m.label[bv] = 2
		m.labelend[m.endpoint[p^1]] = p
		m.labelend[bv] = p
		m.bestedge[bv] = noNode
		j += jstep
		for childs[mod(j, nc)] != entrychild {
			bv = childs[mod(j, nc)]
			if m.label[bv] == 1 {
				j += jstep
				continue
			}
			m.leaves = m.leaves[:0]
			m.blossomLeaves(bv, &m.leaves)
			var lv int
			found := false
			for _, lv = range m.leaves {
				if m.label[lv] != 0 {
					found = true
					break
				}
			}
			if found {
				if m.label[lv] != 2 || m.inblossom[lv] != bv {
					panic("matching: unexpected label during expand")
				}
				m.label[lv] = 0
				m.label[m.endpoint[m.mate[m.blossombase[bv]]]] = 0
				m.assignLabel(lv, 2, m.labelend[lv])
			}
			j += jstep
		}
	}
	m.label[b] = noNode
	m.labelend[b] = noNode
	m.blossomchilds[b] = m.blossomchilds[b][:0]
	m.blossomendps[b] = m.blossomendps[b][:0]
	m.blossombase[b] = noNode
	m.blossombestedges[b] = m.blossombestedges[b][:0]
	m.bestedge[b] = noNode
	m.unusedblossoms = append(m.unusedblossoms, b)
}

// augmentBlossom swaps matched and unmatched edges within blossom b so that
// vertex v becomes the blossom's base.
func (m *matcher) augmentBlossom(b, v int) {
	t := v
	for m.blossomparent[t] != b {
		t = m.blossomparent[t]
	}
	if t >= m.nvertex {
		m.augmentBlossom(t, v)
	}
	childs := m.blossomchilds[b]
	nc := len(childs)
	i := indexOf(childs, t)
	j := i
	jstep, endptrick := -1, 1
	if i&1 != 0 {
		j -= nc
		jstep, endptrick = 1, 0
	}
	for j != 0 {
		j += jstep
		t = childs[mod(j, nc)]
		p := m.blossomendps[b][mod(j-endptrick, nc)] ^ endptrick
		if t >= m.nvertex {
			m.augmentBlossom(t, m.endpoint[p])
		}
		j += jstep
		t = childs[mod(j, nc)]
		if t >= m.nvertex {
			m.augmentBlossom(t, m.endpoint[p^1])
		}
		m.mate[m.endpoint[p]] = p ^ 1
		m.mate[m.endpoint[p^1]] = p
	}
	rotateInts(childs, i)
	rotateInts(m.blossomendps[b], i)
	m.blossombase[b] = m.blossombase[childs[0]]
	if m.blossombase[b] != v {
		panic("matching: augmentBlossom failed to rebase")
	}
}

// augmentMatching augments along the path through tight edge k.
func (m *matcher) augmentMatching(k int) {
	v, w := m.edges[k].U, m.edges[k].V
	for _, sp := range [2][2]int{{v, 2*k + 1}, {w, 2 * k}} {
		s, p := sp[0], sp[1]
		for {
			bs := m.inblossom[s]
			if m.label[bs] != 1 {
				panic("matching: augment path through non-S blossom")
			}
			if m.labelend[bs] != m.mate[m.blossombase[bs]] {
				panic("matching: augment labelend mismatch")
			}
			if bs >= m.nvertex {
				m.augmentBlossom(bs, s)
			}
			m.mate[s] = p
			if m.labelend[bs] == noNode {
				break
			}
			t := m.endpoint[m.labelend[bs]]
			bt := m.inblossom[t]
			if m.label[bt] != 2 {
				panic("matching: augment path through non-T blossom")
			}
			s = m.endpoint[m.labelend[bt]]
			j := m.endpoint[m.labelend[bt]^1]
			if m.blossombase[bt] != t {
				panic("matching: T-blossom base mismatch")
			}
			if bt >= m.nvertex {
				m.augmentBlossom(bt, j)
			}
			m.mate[j] = m.labelend[bt]
			p = m.labelend[bt] ^ 1
		}
	}
}

func (m *matcher) run() {
	n := m.nvertex
	for stage := 0; stage < n; stage++ {
		for i := range m.label {
			m.label[i] = 0
		}
		for i := range m.bestedge {
			m.bestedge[i] = noNode
		}
		for b := n; b < 2*n; b++ {
			m.blossombestedges[b] = m.blossombestedges[b][:0]
		}
		for i := range m.allowedge {
			m.allowedge[i] = false
		}
		m.queue = m.queue[:0]
		for v := 0; v < n; v++ {
			if m.mate[v] == noNode && m.label[m.inblossom[v]] == 0 {
				m.assignLabel(v, 1, noNode)
			}
		}
		augmented := false
		for {
			for len(m.queue) > 0 && !augmented {
				v := m.queue[len(m.queue)-1]
				m.queue = m.queue[:len(m.queue)-1]
				if m.label[m.inblossom[v]] != 1 {
					panic("matching: queue vertex not in S-blossom")
				}
				for _, p := range m.neighbend[v] {
					k := p / 2
					w := m.endpoint[p]
					if m.inblossom[v] == m.inblossom[w] {
						continue
					}
					if !m.allowedge[k] {
						kslack := m.slack(k)
						if kslack <= 0 {
							m.allowedge[k] = true
						} else if m.label[m.inblossom[w]] == 1 {
							b := m.inblossom[v]
							if m.bestedge[b] == noNode || kslack < m.slack(m.bestedge[b]) {
								m.bestedge[b] = k
							}
						} else if m.label[w] == 0 {
							if m.bestedge[w] == noNode || kslack < m.slack(m.bestedge[w]) {
								m.bestedge[w] = k
							}
						}
					}
					if m.allowedge[k] {
						switch {
						case m.label[m.inblossom[w]] == 0:
							m.assignLabel(w, 2, p^1)
						case m.label[m.inblossom[w]] == 1:
							base := m.scanBlossom(v, w)
							if base >= 0 {
								m.addBlossom(base, k)
							} else {
								m.augmentMatching(k)
								augmented = true
							}
						case m.label[w] == 0:
							m.label[w] = 2
							m.labelend[w] = p ^ 1
						}
						if augmented {
							break
						}
					}
				}
			}
			if augmented {
				break
			}
			// Compute the dual adjustment delta.
			deltatype := -1
			var delta int64
			deltaedge, deltablossom := noNode, noNode
			if !m.maxCard {
				deltatype = 1
				delta = maxInt64(0, minDual(m.dualvar[:n]))
			}
			for v := 0; v < n; v++ {
				if m.label[m.inblossom[v]] == 0 && m.bestedge[v] != noNode {
					d := m.slack(m.bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = m.bestedge[v]
					}
				}
			}
			for b := 0; b < 2*n; b++ {
				if m.blossomparent[b] == noNode && m.label[b] == 1 && m.bestedge[b] != noNode {
					kslack := m.slack(m.bestedge[b])
					d := kslack / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = m.bestedge[b]
					}
				}
			}
			for b := n; b < 2*n; b++ {
				if m.blossombase[b] >= 0 && m.blossomparent[b] == noNode && m.label[b] == 2 &&
					(deltatype == -1 || m.dualvar[b] < delta) {
					delta = m.dualvar[b]
					deltatype = 4
					deltablossom = b
				}
			}
			if deltatype == -1 {
				deltatype = 1
				delta = maxInt64(0, minDual(m.dualvar[:n]))
			}
			// Apply the delta to duals.
			for v := 0; v < n; v++ {
				switch m.label[m.inblossom[v]] {
				case 1:
					m.dualvar[v] -= delta
				case 2:
					m.dualvar[v] += delta
				}
			}
			for b := n; b < 2*n; b++ {
				if m.blossombase[b] >= 0 && m.blossomparent[b] == noNode {
					switch m.label[b] {
					case 1:
						m.dualvar[b] += delta
					case 2:
						m.dualvar[b] -= delta
					}
				}
			}
			// Take action depending on the limiting constraint.
			switch deltatype {
			case 1:
				// Optimum reached.
			case 2:
				m.allowedge[deltaedge] = true
				i := m.edges[deltaedge].U
				if m.label[m.inblossom[i]] == 0 {
					i = m.edges[deltaedge].V
				}
				m.queue = append(m.queue, i)
			case 3:
				m.allowedge[deltaedge] = true
				m.queue = append(m.queue, m.edges[deltaedge].U)
			case 4:
				m.expandBlossom(deltablossom, false)
			}
			if deltatype == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// End of stage: expand all S-blossoms with zero dual.
		for b := n; b < 2*n; b++ {
			if m.blossomparent[b] == noNode && m.blossombase[b] >= 0 &&
				m.label[b] == 1 && m.dualvar[b] == 0 {
				m.expandBlossom(b, true)
			}
		}
	}
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// rotateInts rotates s left by i in place: s[i:] followed by s[:i].
func rotateInts(s []int, i int) {
	reverseInts(s[:i])
	reverseInts(s[i:])
	reverseInts(s)
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("matching: element not found in blossom children")
}

// mod maps possibly negative j into [0, n).
func mod(j, n int) int {
	j %= n
	if j < 0 {
		j += n
	}
	return j
}

func minDual(s []int64) int64 {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
