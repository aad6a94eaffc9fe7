// Package distance is a static fault-distance certifier for detector error
// models: it proves, rather than samples, the minimum number of elementary
// error mechanisms whose combined effect flips a logical observable while
// tripping no detector — the circuit-level effective distance of a
// synthesized memory.
//
// The certificate rests on the graphlike structure MWPM decoding silently
// relies on: when every mechanism flips at most two detectors, a mechanism
// is an edge of a multigraph over detectors plus one virtual boundary node
// (the same boundary convention as internal/matching), and an undetectable
// fault set is exactly an edge set with even degree at every detector — an
// element of the graph's cycle space. Labelling each edge with the
// observable bits its mechanism flips turns "undetectable logical error"
// into "cycle with odd observable parity", and the minimum-weight such
// cycle is found exactly by a breadth-first search over (node, frame-bit)
// states in the parity double cover, where traversing an edge whose
// mechanism flips the observable crosses between the even and odd layers.
// The shortest (s,0)→(s,1) closed walk, minimized over endpoints s of
// observable-flipping edges, is the certified distance; its edge list is a
// concrete minimum-weight witness fault set.
//
// Each source's search meets in the middle. The cover's edges are
// undirected and flipping every frame bit is an automorphism, so
// dist((v,p⊕1),(s,1)) = dist((s,0),(v,p)), and the closed-walk length
// D_s = dist((s,0),(s,1)) is the minimum over states (v,p) of
// dist((s,0),(v,p)) + dist((s,0),(v,p⊕1)), reached at the midpoint of a
// shortest walk with terms ⌊D_s/2⌋ and ⌈D_s/2⌉. One search from (s,0)
// records that sum whenever it discovers a state whose partner it has
// already reached, and stops once the next depth exceeds ⌊L/2⌋, where L is
// the best length known: it finds every D_s < L, and every sum is the
// length of a real walk, so the result is exact while the search explores
// radius ⌊D/2⌋ rather than D-1. The winning source's witness comes from one
// full search with parent pointers in the same first-in first-out order
// over the same adjacency order (ascending edge index), so it is the walk a
// plain search from that source finds.
//
// Mechanisms flipping three or more detectors (correlated depolarizing
// components, flagged hook errors) are not edges; the certifier proves
// each one decomposes into already-existing elementary edges whose
// observable masks XOR to the hyperedge's own mask — stim's
// decompose-errors discipline. A consistent decomposition means the
// hyperedge introduces no detector-graph structure the elementary edges do
// not already carry, so the graph distance is stim's "shortest graphlike
// error". Unlike the decoder, the certifier never invents residual-mask
// edges for unpeelable hyperedges — a synthetic edge that exists in no
// physical mechanism can fabricate an artificially short "undetectable"
// cycle; hyperedges that resist consistent decomposition are instead
// counted in Result.Undecomposable, marking the certificate as covering
// the graphlike sub-model only. For fully graphlike models the certificate
// is exact for the model itself, which the exhaustive differential tests
// pin down.
package distance

import (
	"fmt"
	"math/bits"

	"surfstitch/internal/dem"
)

// Fault is one elementary mechanism (or graphlike component) of a witness:
// the detectors it flips — one entry may be the boundary, omitted — and the
// observable bits it flips.
type Fault struct {
	Detectors []int  `json:"detectors"`
	Obs       uint64 `json:"obs"`
}

// String renders the fault compactly for reports.
func (f Fault) String() string {
	if len(f.Detectors) == 0 {
		return fmt.Sprintf("D[] obs=%b", f.Obs)
	}
	return fmt.Sprintf("D%v obs=%b", f.Detectors, f.Obs)
}

// Result is a distance certificate.
type Result struct {
	// Distance is the certified minimum number of elementary faults that
	// flip a logical observable without tripping any detector. Zero means
	// no such fault set exists at all (the model admits no undetectable
	// logical error); a real logical error always costs at least one fault.
	Distance int
	// Observable is the index of the observable bit achieving the minimum
	// (meaningful only when Distance > 0).
	Observable int
	// Witness is one minimum-weight undetectable logical fault set: its
	// faults flip no detector in combination, flip observable bit
	// Observable, and there are exactly Distance of them.
	Witness []Fault
	// Graphlike reports whether every mechanism flipped at most two
	// detectors. When false the certificate is exact for the decomposed
	// (decoder's) graph rather than the hypergraph model itself.
	Graphlike bool
	// Decomposed counts the hyperedge mechanisms proven to decompose into
	// existing elementary edges with observable-consistent masks.
	Decomposed int
	// Undecomposable counts the hyperedge mechanisms with no consistent
	// decomposition; when non-zero, the certificate covers only the
	// graphlike sub-model and those mechanisms are reported, not certified.
	Undecomposable int
}

// Certified reports whether an undetectable logical error exists at all.
func (r Result) Certified() bool { return r.Distance > 0 }

// edge is one unit-weight mechanism edge of the detector graph. next is
// the index of the following edge on the same (u, v) pair, or -1.
type edge struct {
	u, v int32 // node ids, u <= v; either may be the boundary, and u == v is allowed
	next int32
	obs  uint64
}

// Graph is a multigraph over detector nodes plus one virtual boundary node
// (index NumDetectors, matching the decoder's convention). Parallel edges
// with different observable masks are kept distinct — a pair of parallel
// edges whose masks differ is itself a weight-2 undetectable logical error,
// which merged adjacency would hide.
type Graph struct {
	numDet int
	numObs int
	edges  []edge
	// pairs is an open-addressed table over (u, v) pairs, sized to a power
	// of two at least twice the number of edges: a slot holds one plus the
	// index of the pair's first edge, or 0 when empty. The pair's other
	// edges, one per distinct mask, follow through edge.next.
	pairs []int32
	shift uint // 64 - log2(len(pairs))
	// rem holds the detectors of the hyperedge being decomposed.
	rem []int
}

// NewGraph returns an empty detector graph. Nodes 0..numDetectors-1 are
// detectors; node numDetectors is the boundary.
func NewGraph(numDetectors, numObservables int) *Graph {
	return newGraph(numDetectors, numObservables, 0)
}

// newGraph returns an empty graph with room for edges edges.
func newGraph(numDetectors, numObservables, edges int) *Graph {
	g := &Graph{numDet: numDetectors, numObs: numObservables, edges: make([]edge, 0, edges)}
	g.resize(max(16, 1<<bits.Len(uint(2*edges))))
	return g
}

// Boundary returns the virtual boundary node index.
func (g *Graph) Boundary() int { return g.numDet }

// NumEdges returns the number of distinct mechanism edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge records one unit-weight mechanism flipping detectors u and v
// (either may be the boundary; u == v == boundary expresses a mechanism
// flipping no detector at all) and observable mask obs. Duplicate
// (u, v, obs) edges are interchangeable for distance purposes and are
// deduplicated.
func (g *Graph) AddEdge(u, v int, obs uint64) error {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v > g.numDet {
		return fmt.Errorf("distance: edge (%d,%d) outside detector range [0,%d]", u, v, g.numDet)
	}
	if u == v && u != g.numDet {
		return fmt.Errorf("distance: self-loop on detector %d (a mechanism cannot flip a detector twice)", u)
	}
	if 2*(len(g.edges)+1) > len(g.pairs) {
		g.resize(2 * len(g.pairs))
	}
	idx := int32(len(g.edges))
	i := g.slot(int32(u), int32(v))
	if g.pairs[i] == 0 {
		g.pairs[i] = idx + 1
	} else {
		last := g.pairs[i] - 1
		for g.edges[last].obs != obs && g.edges[last].next >= 0 {
			last = g.edges[last].next
		}
		if g.edges[last].obs == obs {
			return nil
		}
		g.edges[last].next = idx
	}
	g.edges = append(g.edges, edge{u: int32(u), v: int32(v), next: -1, obs: obs})
	return nil
}

// slot returns the table slot of pair (u, v), u <= v: the one holding its
// first edge, or the empty slot where that edge belongs.
func (g *Graph) slot(u, v int32) int {
	mask := len(g.pairs) - 1
	i := int((uint64(uint32(u))<<32 | uint64(uint32(v))) * 0x9e3779b97f4a7c15 >> g.shift)
	for {
		first := g.pairs[i]
		if first == 0 {
			return i
		}
		if e := &g.edges[first-1]; e.u == u && e.v == v {
			return i
		}
		i = (i + 1) & mask
	}
}

// resize rehashes the pair table into n slots, a power of two.
func (g *Graph) resize(n int) {
	old := g.pairs
	g.pairs = make([]int32, n)
	g.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, first := range old {
		if first != 0 {
			e := &g.edges[first-1]
			g.pairs[g.slot(e.u, e.v)] = first
		}
	}
}

// firstEdge returns the index of the first edge on pair (u, v), or -1.
func (g *Graph) firstEdge(u, v int) int32 {
	if u > v {
		u, v = v, u
	}
	return g.pairs[g.slot(int32(u), int32(v))] - 1
}

// MinLogical computes the minimum-weight odd-parity cycle over every
// observable bit: the certified distance, the bit achieving it, and the
// witness edge set. dist == 0 reports that no undetectable logical error
// exists.
//
// The first observable, then the first source in node order, whose closed
// walk is strictly shorter than the best so far wins, and the bound carries
// from one observable to the next.
func (g *Graph) MinLogical() (dist int, obsBit int, witness []Fault) {
	c := g.compile()
	best, bestBit, bestSrc := int32(0), 0, int32(0)
	for o := 0; o < g.numObs; o++ {
		if !c.observe(g, o) {
			continue
		}
		for s, src := range c.src {
			if !src {
				continue
			}
			if d := c.oddReturn(int32(s), best); d > 0 {
				best, bestBit, bestSrc = d, o, int32(s)
			}
		}
	}
	if best == 0 {
		return 0, 0, nil
	}
	c.observe(g, bestBit)
	for _, ei := range c.walk(bestSrc) {
		witness = append(witness, g.fault(ei))
	}
	return int(best), bestBit, witness
}

// fault converts an edge back into witness form, dropping the boundary
// endpoint.
func (g *Graph) fault(ei int32) Fault {
	e := g.edges[ei]
	f := Fault{Obs: e.obs}
	if int(e.u) != g.numDet {
		f.Detectors = append(f.Detectors, int(e.u))
	}
	if int(e.v) != g.numDet && e.v != e.u {
		f.Detectors = append(f.Detectors, int(e.v))
	}
	return f
}

// csr is the graph compiled for search over the parity double cover, where
// state v<<1|p is node v with frame bit p. Node v's entries are
// off[v]..off[v+1], in ascending edge index, one per incident edge and one
// for a self-loop; entry k leads to node to[k] over edge via[k]. For the
// observable being searched, nb[k] is to[k]<<1 | the edge's bit, so state
// st steps to nb[k] ^ st&1, and src[v] reports whether v is an endpoint of
// an odd edge.
//
// One search scratch serves every source and observable: a state is
// reached in the current search when seen[st] == epoch, at depth dist[st].
type csr struct {
	off, to, via, nb []int32
	src              []bool
	seen, dist       []int32
	queue            []int32
	epoch            int32
}

// compile lays the graph out as a csr with an empty search scratch.
func (g *Graph) compile() *csr {
	n := g.numDet + 1
	c := &csr{off: make([]int32, n+1), src: make([]bool, n)}
	for _, e := range g.edges {
		c.off[e.u+1]++
		if e.v != e.u {
			c.off[e.v+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.off[v+1] += c.off[v]
	}
	m := c.off[n]
	c.to, c.via, c.nb = make([]int32, m), make([]int32, m), make([]int32, m)
	next := append([]int32(nil), c.off[:n]...)
	for ei, e := range g.edges {
		c.to[next[e.u]], c.via[next[e.u]] = e.v, int32(ei)
		next[e.u]++
		if e.v != e.u {
			c.to[next[e.v]], c.via[next[e.v]] = e.u, int32(ei)
			next[e.v]++
		}
	}
	c.seen, c.dist = make([]int32, 2*n), make([]int32, 2*n)
	c.queue = make([]int32, 0, 2*n)
	return c
}

// observe points the csr at observable o: it fills nb, marks the endpoints
// of o's odd edges in src, and reports whether there are any.
func (c *csr) observe(g *Graph, o int) bool {
	for k, ei := range c.via {
		c.nb[k] = c.to[k]<<1 | int32(g.edges[ei].obs>>uint(o)&1)
	}
	clear(c.src)
	odd := false
	for _, e := range g.edges {
		if e.obs>>uint(o)&1 == 1 {
			c.src[e.u], c.src[e.v] = true, true
			odd = true
		}
	}
	return odd
}

// oddReturn returns the length D of the shortest walk from (s,0) to (s,1)
// when D < limit, or any D when limit is 0; otherwise it returns 0. It
// meets in the middle, as the package doc describes: a state discovered at
// depth d whose partner was reached at depth d' closes a walk of length
// d+d', and the search stops once the next depth exceeds half the best
// length known.
func (c *csr) oddReturn(s, limit int32) int32 {
	c.epoch++
	epoch, off, nb, seen, dist := c.epoch, c.off, c.nb, c.seen, c.dist
	start := s << 1
	seen[start], dist[start] = epoch, 0
	q := append(c.queue[:0], start)
	best, found := limit, false
	for head := 0; head < len(q); head++ {
		st := q[head]
		d := dist[st] + 1
		if best > 0 && d > best/2 {
			break
		}
		p, v := st&1, st>>1
		for _, to := range nb[off[v]:off[v+1]] {
			ns := to ^ p
			if seen[ns] == epoch {
				continue
			}
			seen[ns], dist[ns] = epoch, d
			q = append(q, ns)
			if seen[ns^1] == epoch {
				if w := d + dist[ns^1]; best == 0 || w < best {
					best, found = w, true
				}
			}
		}
	}
	if !found {
		return 0
	}
	return best
}

// walk runs the full first-in first-out search from (s,0) with parent
// pointers until it reaches (s,1), which must be reachable, and returns the
// walk's edges from (s,1) back to (s,0).
func (c *csr) walk(s int32) []int32 {
	c.epoch++
	epoch, off, nb, seen := c.epoch, c.off, c.nb, c.seen
	from := c.dist // the parent state of each reached state
	entry := make([]int32, len(seen))
	start, target := s<<1, s<<1|1
	seen[start] = epoch
	q := append(c.queue[:0], start)
	for head := 0; seen[target] != epoch; head++ {
		st := q[head]
		p, v := st&1, st>>1
		for k := off[v]; k < off[v+1]; k++ {
			ns := nb[k] ^ p
			if seen[ns] == epoch {
				continue
			}
			seen[ns], from[ns], entry[ns] = epoch, st, k
			q = append(q, ns)
		}
	}
	var path []int32
	for st := target; st != start; st = from[st] {
		path = append(path, c.via[entry[st]])
	}
	return path
}

// Certify builds the detector graph of the model — proving non-graphlike
// mechanisms decompose into existing elementary edges, or reporting the
// ones that do not — and certifies its fault distance.
func Certify(m *dem.Model) (Result, error) {
	g, res, err := FromDEM(m)
	if err != nil {
		return Result{}, err
	}
	res.Distance, res.Observable, res.Witness = g.MinLogical()
	return res, nil
}

// FromDEM converts a detector error model into the certifier's multigraph.
// The returned Result carries the graphlike-ness report; its distance
// fields are not yet populated (Certify does both steps).
func FromDEM(m *dem.Model) (*Graph, Result, error) {
	if m.NumObservables > 64 {
		return nil, Result{}, fmt.Errorf("distance: at most 64 observables supported, got %d", m.NumObservables)
	}
	g := newGraph(m.NumDetectors, m.NumObservables, len(m.Mechanisms))
	res := Result{Graphlike: true}

	// First pass: graphlike mechanisms become edges directly.
	b := g.Boundary()
	for _, mech := range m.Mechanisms {
		if err := checkMechanism(m, mech); err != nil {
			return nil, Result{}, err
		}
		var err error
		switch len(mech.Detectors) {
		case 0:
			err = g.AddEdge(b, b, mech.Obs)
		case 1:
			err = g.AddEdge(mech.Detectors[0], b, mech.Obs)
		case 2:
			err = g.AddEdge(mech.Detectors[0], mech.Detectors[1], mech.Obs)
		}
		if err != nil {
			return nil, Result{}, err
		}
	}

	// Second pass: each hyperedge must be provably redundant — some
	// partition of its detectors into existing elementary edges (pairs, or
	// singletons matched to the boundary) whose observable masks XOR to
	// the hyperedge's own mask. Such a mechanism adds nothing the graph
	// does not already express. No consistent decomposition means the
	// hyperedge genuinely exceeds the graph model; it is reported, never
	// approximated with invented edges.
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) <= 2 {
			continue
		}
		res.Graphlike = false
		g.rem = append(g.rem[:0], mech.Detectors...)
		if g.partition(g.rem, 0, mech.Obs) {
			res.Decomposed++
		} else {
			res.Undecomposable++
		}
	}
	return g, res, nil
}

// partition reports whether the detectors rem admit a partition into
// existing elementary edges whose masks, XORed into acc, give obs.
// Exhaustive over partitions and over each pair's distinct masks;
// hyperedges are small (≤ a handful of detectors), so the search space is
// tiny. It permutes rem in place and restores it before returning.
func (g *Graph) partition(rem []int, acc, obs uint64) bool {
	if len(rem) == 0 {
		return acc == obs
	}
	// Pair rem[0] with a later detector via an existing elementary edge.
	for i := 1; i < len(rem); i++ {
		rem[1], rem[i] = rem[i], rem[1]
		ok := g.partitionVia(rem[0], rem[1], rem[2:], acc, obs)
		rem[1], rem[i] = rem[i], rem[1]
		if ok {
			return true
		}
	}
	// Or match rem[0] to the boundary via an existing boundary edge.
	return g.partitionVia(rem[0], g.numDet, rem[1:], acc, obs)
}

// partitionVia tries every edge on pair (u, v) as the next part.
func (g *Graph) partitionVia(u, v int, rest []int, acc, obs uint64) bool {
	for ei := g.firstEdge(u, v); ei >= 0; ei = g.edges[ei].next {
		if g.partition(rest, acc^g.edges[ei].obs, obs) {
			return true
		}
	}
	return false
}

// checkMechanism validates one mechanism's detector list: sorted, distinct,
// in range.
func checkMechanism(m *dem.Model, mech dem.Mechanism) error {
	prev := -1
	for _, d := range mech.Detectors {
		if d < 0 || d >= m.NumDetectors {
			return fmt.Errorf("distance: mechanism detector %d outside [0,%d)", d, m.NumDetectors)
		}
		if d <= prev {
			return fmt.Errorf("distance: mechanism detectors %v not sorted and distinct", mech.Detectors)
		}
		prev = d
	}
	return nil
}
