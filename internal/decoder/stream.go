package decoder

import (
	"fmt"

	"surfstitch/internal/uf"
)

// StreamConfig shapes the sliding window of a streaming decode.
type StreamConfig struct {
	// Window is the number of syndrome rounds decoded together. Larger
	// windows see more context (fewer artifacts at the trailing edge) at
	// the cost of latency; a window covering every round reproduces the
	// whole-shot decode exactly.
	Window int

	// Commit is how many trailing rounds each window decode finalizes
	// (1 <= Commit <= Window). Committed corrections are irrevocable:
	// their observable flips accumulate into the stream's prediction, and
	// correction edges crossing the commit horizon leave parity artifacts
	// on the uncommitted side that the next window must absorb.
	Commit int
}

// Stream decodes a memory experiment's syndrome incrementally, round by
// round, the way a real-time decoder receives it from hardware — instead
// of waiting for the complete shot. Rounds buffer until Window of them are
// pending; the union-find decoder then runs over the windowed defects on
// the full detector graph, the trailing Commit rounds' correction edges
// are committed, and the window slides forward carrying boundary artifacts
// (parity toggles where committed edges crossed into uncommitted rounds).
//
// A Stream is bound to one decoder and reusable across shots via Reset;
// like a Scratch it must not be shared between concurrent decodes, and its
// steady-state per-shot loop is allocation-free.
type Stream struct {
	dec *Decoder
	g   *uf.Graph
	ufs *uf.Scratch
	cfg StreamConfig

	detRound   []int // detector index -> round (nondecreasing)
	roundStart []int // round r's detectors are [roundStart[r], roundStart[r+1])
	numRounds  int

	pending  []bool // per-detector unresolved defect parity
	defects  []int  // window defect scratch
	buffered int    // rounds received so far this shot
	lo       int    // first uncommitted round
	obsAcc   uint64 // accumulated committed observable flips
	finished bool

	stats Stats // WindowCommits/UFShots across shots until TakeStats
}

// NewStream builds a streaming decoder over d's detector graph. detRound
// maps every detector to its syndrome round and must be nondecreasing (the
// layout experiment.Memory.DetectorRound guarantees: detectors are emitted
// round by round).
func (d *Decoder) NewStream(detRound []int, cfg StreamConfig) (*Stream, error) {
	if len(detRound) != d.numDet {
		return nil, fmt.Errorf("decoder: stream round map covers %d detectors, decoder has %d", len(detRound), d.numDet)
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("decoder: stream window must be >= 1, got %d", cfg.Window)
	}
	if cfg.Commit < 1 || cfg.Commit > cfg.Window {
		return nil, fmt.Errorf("decoder: stream commit must be in [1, window=%d], got %d", cfg.Window, cfg.Commit)
	}
	for i := 1; i < len(detRound); i++ {
		if detRound[i] < detRound[i-1] {
			return nil, fmt.Errorf("decoder: stream round map not nondecreasing at detector %d (%d after %d)", i, detRound[i], detRound[i-1])
		}
	}
	if len(detRound) > 0 && detRound[0] < 0 {
		return nil, fmt.Errorf("decoder: stream round map starts at negative round %d", detRound[0])
	}
	g, err := d.ufGraph()
	if err != nil {
		return nil, err
	}
	numRounds := 0
	if len(detRound) > 0 {
		numRounds = detRound[len(detRound)-1] + 1
	}
	roundStart := make([]int, numRounds+1)
	r := 0
	for i, dr := range detRound {
		for r < dr {
			r++
			roundStart[r] = i
		}
	}
	for r < numRounds {
		r++
		roundStart[r] = len(detRound)
	}
	roundStart[numRounds] = len(detRound)
	return &Stream{
		dec:        d,
		g:          g,
		ufs:        g.NewScratch(),
		cfg:        cfg,
		detRound:   append([]int(nil), detRound...),
		roundStart: roundStart,
		numRounds:  numRounds,
		pending:    make([]bool, d.numDet),
		defects:    make([]int, 0, 64),
	}, nil
}

// NumRounds returns the number of syndrome rounds the stream expects per
// shot.
func (st *Stream) NumRounds() int { return st.numRounds }

// RoundRange returns the detector index range [lo, hi) belonging to round
// r — what callers slice out of a sampled batch to feed PushRound.
func (st *Stream) RoundRange(r int) (lo, hi int) {
	return st.roundStart[r], st.roundStart[r+1]
}

// Reset clears per-shot state so the stream can decode the next shot.
// Accumulated stats survive (see TakeStats).
func (st *Stream) Reset() {
	for i := range st.pending {
		st.pending[i] = false
	}
	st.buffered = 0
	st.lo = 0
	st.obsAcc = 0
	st.finished = false
}

// TakeStats returns the counters accumulated since the last call and
// zeroes them — the once-per-chunk promotion point for the Monte-Carlo
// loop (no atomics on the per-round path).
func (st *Stream) TakeStats() Stats {
	s := st.stats
	st.stats = Stats{}
	return s
}

// PushRound feeds the next round's flipped detectors (global detector
// indices, all belonging to that round). When a full window has buffered,
// it is decoded and its trailing rounds committed.
func (st *Stream) PushRound(defects []int) error {
	if st.finished {
		return fmt.Errorf("decoder: PushRound after Finish (call Reset between shots)")
	}
	if st.buffered >= st.numRounds {
		return fmt.Errorf("decoder: round %d pushed, stream expects only %d rounds", st.buffered, st.numRounds)
	}
	r := st.buffered
	lo, hi := st.roundStart[r], st.roundStart[r+1]
	for _, d := range defects {
		if d < lo || d >= hi {
			return fmt.Errorf("decoder: detector %d does not belong to round %d (detectors [%d,%d))", d, r, lo, hi)
		}
		// XOR, not set: a committed edge from an earlier window may have
		// left an artifact toggle here that this round's defect cancels.
		st.pending[d] = !st.pending[d]
	}
	st.buffered++
	if st.buffered-st.lo >= st.cfg.Window {
		return st.decodeWindow(st.buffered, st.lo+st.cfg.Commit)
	}
	return nil
}

// Finish drains the remaining buffered rounds — the final window commits
// everything — and returns the shot's accumulated observable prediction.
func (st *Stream) Finish() (uint64, error) {
	if st.finished {
		return 0, fmt.Errorf("decoder: Finish called twice (call Reset between shots)")
	}
	if st.buffered != st.numRounds {
		return 0, fmt.Errorf("decoder: Finish after %d of %d rounds", st.buffered, st.numRounds)
	}
	if st.buffered > st.lo {
		if err := st.decodeWindow(st.buffered, st.buffered); err != nil {
			return 0, err
		}
	}
	st.finished = true
	return st.obsAcc, nil
}

// decodeWindow decodes the pending defects of rounds [st.lo, hi) and
// commits rounds [st.lo, commitHi): correction edges with at least one
// endpoint in a committed round (or on the boundary node) apply their
// observable masks; where such an edge crosses into an uncommitted round
// it toggles that endpoint's pending parity — the artifact the next window
// absorbs. Edges entirely beyond the commit horizon are discarded and
// re-derived later with more context.
func (st *Stream) decodeWindow(hi, commitHi int) error {
	st.stats.WindowCommits++
	detLo, detHi := st.roundStart[st.lo], st.roundStart[hi]
	st.defects = st.defects[:0]
	for d := detLo; d < detHi; d++ {
		if st.pending[d] {
			st.defects = append(st.defects, d)
		}
	}
	if len(st.defects) > 0 {
		st.stats.UFShots++
		if _, err := st.g.Decode(st.defects, st.ufs); err != nil {
			// No matcher escape hatch mid-stream: a stuck cluster means
			// the defect set is unmatchable on this graph, which whole-
			// shot decoding would also reject.
			return fmt.Errorf("decoder: stream window [%d,%d): %w", st.lo, hi, err)
		}
		commitDet := st.roundStart[commitHi]
		edges := st.g.Edges()
		for _, ei := range st.ufs.Correction() {
			e := &edges[ei]
			uCommitted := e.U == st.g.Boundary() || e.U < commitDet
			vCommitted := e.V == st.g.Boundary() || e.V < commitDet
			if !uCommitted && !vCommitted {
				continue // entirely ahead of the horizon: defer
			}
			st.obsAcc ^= e.Obs
			if !uCommitted {
				st.pending[e.U] = !st.pending[e.U]
			}
			if !vCommitted {
				st.pending[e.V] = !st.pending[e.V]
			}
		}
	}
	// Committed rounds are finalized: any parity left there was resolved
	// by committed edges.
	for d := detLo; d < st.roundStart[commitHi]; d++ {
		st.pending[d] = false
	}
	st.lo = commitHi
	return nil
}
