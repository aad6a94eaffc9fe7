package decoder

import (
	"fmt"
	"math/rand"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
)

// checkRows asserts that every node lists its neighbours in strictly
// ascending order, the order the matcher floods them in, and holds the
// oracle's two searches to each other on every source of a freshly
// compiled decoder: each shortest-path row entry, which the Galil
// reference matches on, equals the least state-row distance over all
// observable masks, and the row's path mask is realizable at it.
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
	g := newGalil(d)
	sh := uint(d.numObs)
	for src := 0; src < n; src++ {
		r, st := g.row(src), g.stateRow(src)
		for v := 0; v < n; v++ {
			least := int64(-1)
			for mask := 0; mask < 1<<sh; mask++ {
				if w := st[v<<sh|mask]; w >= 0 && (least < 0 || w < least) {
					least = w
				}
			}
			if r.dist[v] != least {
				t.Fatalf("row %d, node %d: distance %d, least state distance %d", src, v, r.dist[v], least)
			}
			if least >= 0 && st[v<<sh|int(r.mask[v])] != least {
				t.Fatalf("row %d, node %d: mask %b is not realizable at distance %d", src, v, r.mask[v], least)
			}
		}
	}
}

// tiedModel is a random graphlike model whose edge probabilities come from
// three values, so that equal-weight paths, and with them ties between
// path masks, are common. Each detector pair carries at most one
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

// TestRowsMatchBoxedHeapReference holds the oracle's boxed-heap
// shortest-path rows to its boxed-heap state-space search (checkRows) on
// the synthesized memories of all five tilings, a merged two-patch graph
// and random graphs full of exact ties: the weight and realizability
// checks of the matcher's oracle rest on the two agreeing.
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
