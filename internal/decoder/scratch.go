package decoder

import (
	"surfstitch/internal/matching"
	"surfstitch/internal/uf"
)

// Scratch is a per-goroutine arena for the decode hot loop: the defect
// list, the blossom's rows, boundary weights and matching edges, the
// syndrome-cache key buffer, the Dijkstra queue of new shortest-path rows,
// the blossom matcher's internal state and (when union-find is enabled)
// the uf arena, all reused across shots so that steady-state decoding does
// not allocate.
// DecodeBatch creates one per call; callers that decode many ranges (the
// Monte-Carlo chunk loop) should hold one per worker and use
// DecodeRangeScratch. A Scratch must never be shared between concurrent
// calls.
type Scratch struct {
	defects []int
	rows    []*pathRow
	bnd     []int64
	edges   []matching.Edge
	key     []byte
	heap    rowHeap
	match   matching.Scratch
	ufs     *uf.Scratch // lazily sized to the uf graph on first k>=3 decode
}

// NewScratch returns a scratch arena pre-sized for the sparse syndromes
// that dominate sub-threshold decoding.
func (d *Decoder) NewScratch() *Scratch {
	return &Scratch{
		defects: make([]int, 0, 16),
		edges:   make([]matching.Edge, 0, 64),
		key:     make([]byte, 0, 64),
	}
}

// DecodeWithScratch is Decode with a caller-owned scratch: identical
// results, but cache hits and the k<=2 closed forms run allocation-free.
func (d *Decoder) DecodeWithScratch(defects []int, s *Scratch) (uint64, error) {
	obs, _, _, err := d.decode(defects, s)
	return obs, err
}
