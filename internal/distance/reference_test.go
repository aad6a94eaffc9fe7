package distance

import (
	"fmt"
	"sort"

	"surfstitch/internal/dem"
)

// This file keeps the original map-based certifier as a test oracle: edges
// are deduplicated through a map, each node keeps its own adjacency list,
// hyperedge masks are looked up in a map of pairs, and every source runs
// its own parity BFS out to radius D-1 on freshly allocated arrays.
// TestCertifyMatchesReference and FuzzCertifyVsReference hold Certify to it
// field for field, witness included.

// refEdge is one deduplicated mechanism edge of the reference graph.
type refEdge struct {
	u, v int
	obs  uint64
}

// refGraph is the reference multigraph: node numDet is the boundary.
type refGraph struct {
	numDet, numObs int
	edges          []refEdge
	adj            [][]int32 // node -> indices into edges
	seen           map[refEdge]bool
}

func newRefGraph(numDet, numObs int) *refGraph {
	return &refGraph{
		numDet: numDet,
		numObs: numObs,
		adj:    make([][]int32, numDet+1),
		seen:   map[refEdge]bool{},
	}
}

// addEdge is the original AddEdge for a pair the caller has validated.
func (g *refGraph) addEdge(u, v int, obs uint64) {
	if u > v {
		u, v = v, u
	}
	e := refEdge{u: u, v: v, obs: obs}
	if g.seen[e] {
		return
	}
	g.seen[e] = true
	idx := int32(len(g.edges))
	g.edges = append(g.edges, e)
	g.adj[e.u] = append(g.adj[e.u], idx)
	if e.v != e.u {
		g.adj[e.v] = append(g.adj[e.v], idx)
	}
}

// ReferenceCertify is the original Certify: the graph, the hyperedge
// decomposition report and the certificate, all computed by the oracle. It
// also returns the number of distinct edges the graph holds.
func ReferenceCertify(m *dem.Model) (res Result, numEdges int, err error) {
	if m.NumObservables > 64 {
		return Result{}, 0, fmt.Errorf("distance: at most 64 observables supported, got %d", m.NumObservables)
	}
	g := newRefGraph(m.NumDetectors, m.NumObservables)
	res = Result{Graphlike: true}
	b := g.numDet
	masks := map[refPair][]uint64{}
	addMech := func(u, v int, obs uint64) {
		g.addEdge(u, v, obs)
		k := mkRefPair(u, v)
		for _, m := range masks[k] {
			if m == obs {
				return
			}
		}
		masks[k] = append(masks[k], obs)
	}
	for _, mech := range m.Mechanisms {
		if err := checkMechanism(m, mech); err != nil {
			return Result{}, 0, err
		}
		switch len(mech.Detectors) {
		case 0:
			addMech(b, b, mech.Obs)
		case 1:
			addMech(mech.Detectors[0], b, mech.Obs)
		case 2:
			addMech(mech.Detectors[0], mech.Detectors[1], mech.Obs)
		}
	}
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) <= 2 {
			continue
		}
		res.Graphlike = false
		if refDecomposes(mech.Detectors, mech.Obs, b, masks) {
			res.Decomposed++
		} else {
			res.Undecomposable++
		}
	}
	res.Distance, res.Observable, res.Witness = g.minLogical()
	return res, len(g.edges), nil
}

// refPair is an unordered detector pair (or detector+boundary) key.
type refPair struct{ u, v int }

func mkRefPair(u, v int) refPair {
	if u > v {
		u, v = v, u
	}
	return refPair{u, v}
}

// refDecomposes is the original exhaustive partition search, which copies
// the remaining detectors at every step.
func refDecomposes(dets []int, obs uint64, boundary int, masks map[refPair][]uint64) bool {
	var rec func(remaining []int, acc uint64) bool
	rec = func(remaining []int, acc uint64) bool {
		if len(remaining) == 0 {
			return acc == obs
		}
		a := remaining[0]
		for i := 1; i < len(remaining); i++ {
			for _, m := range masks[mkRefPair(a, remaining[i])] {
				rest := make([]int, 0, len(remaining)-2)
				rest = append(rest, remaining[1:i]...)
				rest = append(rest, remaining[i+1:]...)
				if rec(rest, acc^m) {
					return true
				}
			}
		}
		for _, m := range masks[mkRefPair(a, boundary)] {
			if rec(remaining[1:], acc^m) {
				return true
			}
		}
		return false
	}
	return rec(dets, 0)
}

// minLogical is the original MinLogical.
func (g *refGraph) minLogical() (dist int, obsBit int, witness []Fault) {
	best, bestBit := 0, 0
	var bestEdges []int32
	for o := 0; o < g.numObs; o++ {
		d, edges := g.minOddCycle(o, best)
		if d > 0 && (best == 0 || d < best) {
			best, bestBit, bestEdges = d, o, edges
		}
	}
	for _, ei := range bestEdges {
		e := g.edges[ei]
		f := Fault{Obs: e.obs}
		if e.u != g.numDet {
			f.Detectors = append(f.Detectors, e.u)
		}
		if e.v != g.numDet && e.v != e.u {
			f.Detectors = append(f.Detectors, e.v)
		}
		witness = append(witness, f)
	}
	return best, bestBit, witness
}

// minOddCycle searches from every endpoint of an odd edge, in sorted order,
// keeping the first strictly shorter odd return.
func (g *refGraph) minOddCycle(o int, bound int) (int, []int32) {
	mark := map[int]bool{}
	for _, e := range g.edges {
		if e.obs>>uint(o)&1 == 1 {
			mark[e.u] = true
			mark[e.v] = true
		}
	}
	if len(mark) == 0 {
		return 0, nil
	}
	sources := make([]int, 0, len(mark))
	for v := range mark {
		sources = append(sources, v)
	}
	sort.Ints(sources)

	best := 0
	if bound > 0 {
		best = bound
	}
	var bestEdges []int32
	for _, s := range sources {
		d, edges := g.oddReturn(s, o, best)
		if d > 0 && (best == 0 || d < best) {
			best, bestEdges = d, edges
		}
	}
	if bestEdges == nil {
		return 0, nil
	}
	return best, bestEdges
}

// oddReturn is the original FIFO search from (s, even) to (s, odd), pruned
// at one edge short of bound.
func (g *refGraph) oddReturn(s, o, bound int) (int, []int32) {
	n := (g.numDet + 1) * 2
	const unseen = int32(-1)
	dist := make([]int32, n)
	parentEdge := make([]int32, n)
	parentState := make([]int32, n)
	for i := range dist {
		dist[i] = unseen
	}
	start, target := int32(s*2), int32(s*2+1)
	dist[start] = 0
	queue := []int32{start}
	for head := 0; head < len(queue); head++ {
		st := queue[head]
		if st == target {
			break
		}
		d := dist[st]
		if bound > 0 && int(d)+1 >= bound && target != st {
			continue
		}
		node, parity := int(st)/2, st&1
		for _, ei := range g.adj[node] {
			e := g.edges[ei]
			to := e.u + e.v - node
			np := parity
			if e.obs>>uint(o)&1 == 1 {
				np ^= 1
			}
			ns := int32(to*2) + np
			if dist[ns] != unseen {
				continue
			}
			dist[ns] = d + 1
			parentEdge[ns] = ei
			parentState[ns] = st
			queue = append(queue, ns)
		}
	}
	if dist[target] == unseen {
		return 0, nil
	}
	var edges []int32
	for st := target; st != start; st = parentState[st] {
		edges = append(edges, parentEdge[st])
	}
	return int(dist[target]), edges
}
