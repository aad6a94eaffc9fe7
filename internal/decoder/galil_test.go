package decoder

import (
	"container/heap"
	"fmt"
	"testing"

	"surfstitch/internal/matching"
)

// refRow is one source's shortest-path distances (-1 where unreachable)
// and path masks to every node, over the decoder's integer edge weights.
type refRow struct {
	dist []int64
	mask []uint64
}

// galil is the exact reference the matcher is held to: minimum-weight
// perfect matching of the whole defect set on one node per defect, plus
// the boundary when the set is odd, solved by internal/matching's Galil
// matcher on all-pairs shortest-path rows. Edge (i, j) costs pairCost and
// edge (i, k) i's boundary distance; the defects a matching with a
// boundary image per defect sends to the boundary pair off here, one left
// for the boundary node when k is odd, each pair at no more than its two
// boundary paths, so the two graphs have the same minimum weight and the
// same unmatchable sets (denseBlossom checks it). Rows and state rows are
// computed per source on first use.
type galil struct {
	d     *Decoder
	rows  []*refRow
	state [][]int64
	edges []matching.Edge
	ms    matching.Scratch
}

func newGalil(d *Decoder) *galil {
	return &galil{d: d, rows: make([]*refRow, d.numDet+1), state: make([][]int64, d.numDet+1)}
}

// distItem and distHeap are a boxed Dijkstra queue over states.
type distItem struct {
	state int
	dist  int64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// row returns src's shortest-path row.
func (g *galil) row(src int) *refRow {
	if r := g.rows[src]; r != nil {
		return r
	}
	d := g.d
	n := d.numDet + 1
	r := &refRow{dist: make([]int64, n), mask: make([]uint64, n)}
	for i := range r.dist {
		r.dist[i] = -1
	}
	r.dist[src] = 0
	done := make([]bool, n)
	q := &distHeap{{state: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(distItem)
		u := it.state
		if done[u] {
			continue
		}
		done[u] = true
		for e := d.off[u]; e < d.off[u+1]; e++ {
			v := int(d.to[e])
			if nd := r.dist[u] + d.w[e]; r.dist[v] < 0 || nd < r.dist[v] {
				r.dist[v] = nd
				r.mask[v] = r.mask[u] ^ d.obs[e]
				heap.Push(q, distItem{state: v, dist: nd})
			}
		}
	}
	g.rows[src] = r
	return r
}

// stateRow returns the shortest distances from src to every (node,
// observable mask) state, indexed node<<numObs|mask, -1 where no path
// with that mask exists: the least weight of a path to each node that
// flips exactly each set of observables.
func (g *galil) stateRow(src int) []int64 {
	if st := g.state[src]; st != nil {
		return st
	}
	d := g.d
	if d.numObs > 8 {
		panic(fmt.Sprintf("state rows over %d observables", d.numObs))
	}
	sh := uint(d.numObs)
	st := make([]int64, (d.numDet+1)<<sh)
	for i := range st {
		st[i] = -1
	}
	done := make([]bool, len(st))
	st[src<<sh] = 0
	q := &distHeap{{state: src << sh}}
	for q.Len() > 0 {
		it := heap.Pop(q).(distItem)
		if done[it.state] {
			continue
		}
		done[it.state] = true
		u, mask := it.state>>sh, uint64(it.state)&(1<<sh-1)
		for e := d.off[u]; e < d.off[u+1]; e++ {
			v := int(d.to[e])<<sh | int(mask^d.obs[e])
			if nd := st[it.state] + d.w[e]; st[v] < 0 || nd < st[v] {
				st[v] = nd
				heap.Push(q, distItem{state: v, dist: nd})
			}
		}
	}
	g.state[src] = st
	return st
}

// pairCost prices matching defect i with defect j, given i's row ri, j's
// detector index and both boundary distances bi and bj (-1 when
// unreachable): along their shortest path, or by sending both to the
// boundary, whichever is cheaper, taking the path on a tie. A negative
// cost means neither route exists.
func pairCost(ri *refRow, j int, bi, bj int64) (w int64, viaPath bool) {
	wp := ri.dist[j]
	wb := int64(-1)
	if bi >= 0 && bj >= 0 {
		wb = bi + bj
	}
	if wp >= 0 && (wb < 0 || wp <= wb) {
		return wp, true
	}
	return wb, false
}

// decode runs the Galil reference on one defect set and returns its pair
// list and total weight, or the unmatchable error.
func (g *galil) decode(defects []int) ([]pair, int64, error) {
	k := len(defects)
	bnd := make([]int64, k)
	for i, det := range defects {
		bnd[i] = g.row(det).dist[g.d.boundary]
	}
	edges := g.edges[:0]
	for i := 0; i < k; i++ {
		ri := g.row(defects[i])
		for j := i + 1; j < k; j++ {
			if w, _ := pairCost(ri, defects[j], bnd[i], bnd[j]); w >= 0 {
				edges = append(edges, matching.Edge{U: i, V: j, W: w})
			}
		}
		if k%2 == 1 && bnd[i] >= 0 {
			edges = append(edges, matching.Edge{U: i, V: k, W: bnd[i]})
		}
	}
	g.edges = edges
	mate, err := g.ms.MinWeightPerfectMatching(k+k%2, edges)
	if err != nil {
		return nil, 0, fmt.Errorf("decoder: defects unmatchable: %w", err)
	}
	var pairs []pair
	var weight int64
	toBoundary := func(i int) {
		b := g.d.boundary
		pairs = append(pairs, pair{a: int32(defects[i]), b: int32(b), w: bnd[i], obs: g.row(defects[i]).mask[b]})
	}
	for i, m := range mate[:k] {
		switch {
		case m == k:
			toBoundary(i)
			weight += bnd[i]
		case m > i:
			w, viaPath := pairCost(g.row(defects[i]), defects[m], bnd[i], bnd[m])
			if viaPath {
				pairs = append(pairs, pair{a: int32(defects[i]), b: int32(defects[m]), w: w, obs: g.row(defects[i]).mask[defects[m]]})
			} else {
				toBoundary(i)
				toBoundary(m)
			}
			weight += w
		}
	}
	return pairs, weight, nil
}

// denseBlossom is the image-graph matching that galil reduces, kept as its
// exactness oracle. Nodes 0..k-1 are the defects and k..2k-1 their
// boundary images, interconnected with zero-weight edges so that any
// subset of them can pair off among themselves; defect i reaches its own
// image at its boundary weight. It returns the predicted observable mask
// and the matching weight, or the unmatchable error.
func denseBlossom(g *galil, defects []int) (uint64, int64, error) {
	k := len(defects)
	b := g.d.boundary
	edges := make([]matching.Edge, 0, k*k)
	for i := 0; i < k; i++ {
		ri := g.row(defects[i])
		for j := i + 1; j < k; j++ {
			if w := ri.dist[defects[j]]; w >= 0 {
				edges = append(edges, matching.Edge{U: i, V: j, W: w})
			}
			edges = append(edges, matching.Edge{U: k + i, V: k + j, W: 0})
		}
		if w := ri.dist[b]; w >= 0 {
			edges = append(edges, matching.Edge{U: i, V: k + i, W: w})
		}
	}
	mate, err := matching.MinWeightPerfectMatching(2*k, edges)
	if err != nil {
		return 0, 0, fmt.Errorf("decoder: defects unmatchable: %w", err)
	}
	var obs uint64
	for i := 0; i < k; i++ {
		switch m := mate[i]; {
		case m == k+i: // matched to the boundary
			obs ^= g.row(defects[i]).mask[b]
		case m < k && m > i: // defect-defect pair, counted once
			obs ^= g.row(defects[i]).mask[defects[m]]
		}
	}
	return obs, matching.MatchingWeight(edges, mate), nil
}

func pairsObs(pairs []pair) uint64 {
	var obs uint64
	for _, p := range pairs {
		obs ^= p.obs
	}
	return obs
}

// checkPairs is the oracle for one pair list: it pairs every defect
// exactly once, with another defect or the boundary; each pair's weight is
// the shortest distance between its ends; each pair's mask is the mask of
// some path of exactly that weight; and the weights sum to want, the
// optimum. So the XOR of the masks is the observable flip of some
// minimum-weight correction.
func (g *galil) checkPairs(tb testing.TB, defects []int, pairs []pair, want int64) {
	tb.Helper()
	b := int32(g.d.boundary)
	seen := make(map[int32]int, len(defects))
	for _, det := range defects {
		seen[int32(det)] = 0
	}
	var total int64
	for _, p := range pairs {
		if p.a == b {
			tb.Fatalf("defects %v: pairs %v: a pair starts at the boundary", defects, pairs)
		}
		for _, end := range []int32{p.a, p.b} {
			if end == b {
				continue
			}
			n, ok := seen[end]
			if !ok || n > 0 {
				tb.Fatalf("defects %v: pairs %v: %d is not an unpaired defect", defects, pairs, end)
			}
			seen[end] = 1
		}
		if d := g.row(int(p.a)).dist[p.b]; p.w != d {
			tb.Fatalf("defects %v: pair %+v weighs %d, shortest distance %d", defects, p, p.w, d)
		}
		if st := g.stateRow(int(p.a)); st[int(p.b)<<uint(g.d.numObs)|int(p.obs)] != p.w {
			tb.Fatalf("defects %v: pair %+v: no path of weight %d flips mask %b", defects, p, p.w, p.obs)
		}
		total += p.w
	}
	for det, n := range seen {
		if n != 1 {
			tb.Fatalf("defects %v: pairs %v leave defect %d unpaired", defects, pairs, det)
		}
	}
	if total != want {
		tb.Fatalf("defects %v: pairs %v weigh %d, optimum %d", defects, pairs, total, want)
	}
}

// checkOracle runs the matcher on one defect set with scratch s and holds
// it to the Galil reference g: both fail, or neither; the reference's own
// pair list passes checkPairs, which checks the oracle itself; and the
// matcher's passes it at the reference's optimum. It returns the matcher's
// prediction, whether it differs from the reference's, which a tie between
// equal-weight corrections allows, and the matcher's error.
func checkOracle(tb testing.TB, d *Decoder, g *galil, s *Scratch, defects []int) (uint64, bool, error) {
	tb.Helper()
	pairs, err := d.matchPairs(defects, &s.m)
	ref, refW, refErr := g.decode(defects)
	if (err != nil) != (refErr != nil) {
		tb.Fatalf("defects %v: matcher err=%v, reference err=%v", defects, err, refErr)
	}
	if err != nil {
		return 0, false, err
	}
	g.checkPairs(tb, defects, ref, refW)
	g.checkPairs(tb, defects, pairs, refW)
	obs := pairsObs(pairs)
	return obs, obs != pairsObs(ref), nil
}
