package distance

import (
	"testing"

	"surfstitch/internal/dem"
)

// gridModel is a planar repetition lattice of rows×cols detectors: nearest
// neighbours are joined, both end columns are joined to the boundary, and
// the left boundary edges flip the observable. Its shortest logical runs
// along one row, cols+1 edges.
func gridModel(rows, cols int) *dem.Model {
	m := &dem.Model{NumDetectors: rows * cols, NumObservables: 1}
	add := func(obs uint64, dets ...int) {
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{Detectors: dets, Obs: obs, Prob: 0.01})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				add(0, v, v+1)
			}
			if r+1 < rows {
				add(0, v, v+cols)
			}
		}
		add(1, r*cols)
		add(0, r*cols+cols-1)
	}
	return m
}

// TestSearchRadius holds each source's search under a bound L to radius
// ⌊L/2⌋: a search that cannot beat L reaches no deeper state, which is all
// the meet-in-the-middle search saves over a plain one. Stopping a depth
// late still certifies exactly, so only the radius can tell.
func TestSearchRadius(t *testing.T) {
	const rows, cols = 12, 7
	g, _, err := FromDEM(gridModel(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	d, _, _ := g.MinLogical()
	if d != cols+1 {
		t.Fatalf("grid distance %d, want %d", d, cols+1)
	}
	c := g.compile()
	if !c.observe(g, 0) {
		t.Fatal("no odd edge")
	}
	for _, limit := range []int32{int32(d), int32(d) + 1} {
		deepest, found := int32(0), 0
		for s, src := range c.src {
			if !src {
				continue
			}
			got := c.oddReturn(int32(s), limit)
			if got != 0 && got != int32(d) {
				t.Fatalf("source %d under bound %d: walk of %d, want 0 or %d", s, limit, got, d)
			}
			if got != 0 {
				found++
			}
			for st, seen := range c.seen {
				if seen == c.epoch {
					deepest = max(deepest, c.dist[st])
				}
			}
		}
		if deepest != limit/2 {
			t.Errorf("bound %d: deepest state reached at depth %d, want %d", limit, deepest, limit/2)
		}
		if wantFound := limit > int32(d); (found > 0) != wantFound {
			t.Errorf("bound %d: %d sources found a walk of %d", limit, found, d)
		}
	}
}
