package decoder

import "surfstitch/internal/uf"

// Scratch is a per-goroutine arena for the decode hot loop: the defect
// lists of one 64-shot word, the matcher's flooding state and (when
// union-find is enabled) the uf arena, all reused across shots so that
// steady-state decoding does not allocate. It is the only decode state
// that changes as a decoder decodes.
// DecodeBatch creates one per call; callers that decode many ranges (the
// Monte-Carlo chunk loop) should hold one per worker and use
// DecodeRangeScratch. A Scratch must never be shared between concurrent
// calls.
type Scratch struct {
	// off and dets hold one word's defect lists in CSR form, as
	// frame.Batch.WordDetectors fills them: shot i of the word flipped
	// detectors dets[off[i]:off[i+1]].
	off  [65]int
	dets []int
	m    matcher
	ufs  *uf.Scratch // lazily sized to the uf graph on first k>=3 decode
}

// NewScratch returns an empty scratch arena; the defect lists and the
// matcher size themselves on first use.
func (d *Decoder) NewScratch() *Scratch {
	return &Scratch{}
}

// DecodeWithScratch is Decode with a caller-owned scratch: identical
// results, with the matcher's state reused across calls.
func (d *Decoder) DecodeWithScratch(defects []int, s *Scratch) (uint64, error) {
	obs, _, err := d.decode(defects, s)
	return obs, err
}
