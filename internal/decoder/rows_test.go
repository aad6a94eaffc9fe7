package decoder

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
)

// pqItem and pq are the boxed container/heap queue the typed rowHeap
// replaced, kept as the reference for its pop order.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// refDijkstra is the shortest-path row as the decoder computed it on the
// boxed heap, with a settled set, over the same CSR graph.
func refDijkstra(d *Decoder, src int) ([]float64, []uint64) {
	n := d.numDet + 1
	dist := make([]float64, n)
	mask := make([]uint64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := &pq{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for e := d.off[u]; e < d.off[u+1]; e++ {
			v := int(d.to[e])
			nd := dist[u] + d.w[e]
			if nd < dist[v] {
				dist[v] = nd
				mask[v] = mask[u] ^ d.obs[e]
				heap.Push(q, pqItem{node: v, dist: nd})
			}
		}
	}
	return dist, mask
}

// checkRows asserts that every node lists its neighbours in strictly
// ascending order — the order the decoder's adjacency lists always had —
// and that every row of a freshly compiled decoder matches refDijkstra bit
// for bit: the exact bits of each distance, and each path mask.
func checkRows(t *testing.T, model *dem.Model) {
	t.Helper()
	d, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	n := d.numDet + 1
	for u := 0; u < n; u++ {
		for e := d.off[u] + 1; e < d.off[u+1]; e++ {
			if d.to[e-1] >= d.to[e] {
				t.Fatalf("node %d: neighbours %v not strictly ascending", u, d.to[d.off[u]:d.off[u+1]])
			}
		}
	}
	s := d.NewScratch()
	for src := 0; src < n; src++ {
		r := d.row(src, s)
		dist, mask := refDijkstra(d, src)
		for v := 0; v < n; v++ {
			if math.Float64bits(r.dist[v]) != math.Float64bits(dist[v]) || r.mask[v] != mask[v] {
				t.Fatalf("row %d, node %d: (%v, %b), reference (%v, %b)",
					src, v, r.dist[v], r.mask[v], dist[v], mask[v])
			}
		}
	}
}

// tiedModel is a random graphlike model whose edge probabilities come from
// three values, so that equal-weight paths, and with them the heap's
// tie-break order, are common. Each detector pair carries at most one
// mechanism, so no XOR-merge dilutes the ties.
func tiedModel(rng *rand.Rand, numDet int) *dem.Model {
	probs := []float64{0.01, 0.03, 0.1}
	m := &dem.Model{NumDetectors: numDet, NumObservables: 2}
	seen := map[[2]int]bool{}
	for i := 0; i < 3*numDet; i++ {
		a, b := rng.Intn(numDet), rng.Intn(numDet+1)
		if b < a {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		dets := []int{a, b}
		if b == numDet { // the boundary
			dets = dets[:1]
		}
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{
			Detectors: dets,
			Obs:       uint64(rng.Intn(4)),
			Prob:      probs[rng.Intn(len(probs))],
		})
	}
	return m
}

// TestRowsMatchBoxedHeapReference holds the typed heap to the boxed heap's
// pop order on the synthesized memories of all five tilings, a merged
// two-patch graph and random graphs full of exact ties. The differential
// decode tests cannot see a change of order: their two decoders share one
// dijkstra, and randomModel's continuous probabilities rarely tie.
func TestRowsMatchBoxedHeapReference(t *testing.T) {
	distances := []int{3, 5}
	ps := []float64{0.001, 0.002, 0.005}
	graphs := 200
	if testing.Short() || raceEnabled {
		distances, ps, graphs = []int{3}, ps[1:2], 50
	}
	for _, kind := range device.AllKinds() {
		for _, d := range distances {
			for _, p := range ps {
				t.Run(fmt.Sprintf("%v/d=%d/p=%g", kind, d, p), func(t *testing.T) {
					model, _, _ := synthesizedNoisyMemory(t, kind, d, p)
					checkRows(t, model)
				})
			}
		}
	}
	t.Run("merged-zz/d=3", func(t *testing.T) {
		model, err := dem.FromCircuit(mergedCircuit(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, model)
	})
	t.Run("tied", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < graphs; i++ {
			checkRows(t, tiedModel(rng, 60))
		}
	})
}

// TestRowHeapZeroAlloc gates the row computation: with a scratch warmed on
// the same graph, a new row allocates only what it publishes — its distance
// and mask slices and the row itself — however large the graph.
func TestRowHeapZeroAlloc(t *testing.T) {
	model, _, _ := synthesizedNoisyMemory(t, device.KindHeavyHexagon, 5, 0.002)
	d, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewScratch()
	for src := range d.rows {
		d.row(src, s)
	}
	d.rows = make([]atomic.Pointer[pathRow], len(d.rows))
	src := 0
	allocs := testing.AllocsPerRun(len(d.rows)-1, func() {
		d.row(src, s)
		src++
	})
	if allocs > 3 {
		t.Fatalf("a new row allocates %.1f times on a warm scratch; want at most 3 (dist, mask, row)", allocs)
	}
}
