// Package decoder implements minimum-weight perfect matching decoding over a
// detector error model: the PyMatching role in the paper's evaluation
// pipeline.
//
// The detector error model's mechanisms become the weighted edges of a
// matching graph over detectors plus a single boundary node; mechanisms
// flipping more than two detectors are decomposed into chains of pairwise
// edges, and every edge carries one integer weight. Decoding a shot pairs
// its flipped detectors (defects) with each other, or with the boundary,
// along paths of minimum total weight, found by a sparse-blossom matcher
// that grows regions on the graph itself (matcher.go), and predicts the
// logical observable flips as the XOR of the observable masks along the
// matched paths.
package decoder

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"surfstitch/internal/dem"
	"surfstitch/internal/frame"
	"surfstitch/internal/uf"
)

// weightScale converts log-likelihood edge weights to the integer domain of
// the matcher and the union-find decoder.
const weightScale = 1024.0

// Decoder is a compiled MWPM decoder for a fixed detector error model.
//
// Every non-empty defect set goes to the sparse-blossom matcher, which
// finds a minimum-weight pairing of the whole defect set on the detector
// graph. Corrections of equal weight are equally valid, and the matcher's
// choice between them is a pure function of the decoder and the defect
// set. Apart from the union-find graph it publishes once, a Decoder holds
// no state that changes as it decodes: each caller's Scratch is the only
// mutable decode state, so any number of goroutines decode concurrently
// on one Decoder without sharing a lock.
type Decoder struct {
	numDet int
	numObs int

	// boundary is the virtual node index (== numDet).
	boundary int

	// The matching graph in CSR form: node u's half-edges are entries
	// off[u] to off[u+1]-1 of to (the far node), w (the integer weight, the
	// edge's log-likelihood weight scaled by weightScale and rounded) and
	// obs (the observable mask). Each node lists its neighbours in
	// ascending order, so every decoder compiled from the same model
	// floods, and breaks ties, identically.
	off []int32
	to  []int32
	w   []int64
	obs []uint64

	opts Options

	// ufg is the lazily compiled union-find decoding graph: a pure function
	// of the immutable CSR graph, CAS-published so that every caller
	// observes the same instance.
	ufg atomic.Pointer[uf.Graph]

	// UndetectableObs is the bitmask of observables flipped by at least one
	// mechanism that trips no detector: an irreducible logical error floor.
	UndetectableObs uint64
}

// Options tunes decoder compilation.
type Options struct {
	// NaiveDecomposition disables the elementary-edge peeling of
	// hyperedges, falling back to consecutive-pair chaining everywhere
	// (the decoder ablation in the benchmark harness).
	NaiveDecomposition bool

	// UnionFind routes k>=3 defect sets through the almost-linear
	// union-find decoder (internal/uf) instead of the exact matcher, which
	// still answers one- and two-defect sets. UF corrections are valid but
	// only approximately minimum-weight; undecodable clusters (odd parity
	// on a boundaryless component) escalate back to the matcher.
	UnionFind bool
}

// New compiles the detector error model into a decoder.
func New(model *dem.Model) (*Decoder, error) {
	return NewWithOptions(model, Options{})
}

// NewWithOptions compiles the detector error model with explicit options.
func NewWithOptions(model *dem.Model, opts Options) (*Decoder, error) {
	d := &Decoder{
		numDet:   model.NumDetectors,
		numObs:   model.NumObservables,
		boundary: model.NumDetectors,
	}
	n := d.numDet + 1
	type key struct{ u, v int }
	probs := map[key]float64{}
	masks := map[key]uint64{}
	addEdge := func(u, v int, p float64, obs uint64) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		k := key{u, v}
		old := probs[k]
		if p > old {
			masks[k] = obs
		}
		probs[k] = old + p - 2*old*p
	}
	// First pass: elementary mechanisms (at most two detectors) become graph
	// edges directly.
	for _, mech := range model.Mechanisms {
		switch len(mech.Detectors) {
		case 0:
			if mech.Obs != 0 {
				d.UndetectableObs |= mech.Obs
			}
		case 1:
			addEdge(mech.Detectors[0], d.boundary, mech.Prob, mech.Obs)
		case 2:
			addEdge(mech.Detectors[0], mech.Detectors[1], mech.Prob, mech.Obs)
		}
	}
	// Second pass: hyperedges decompose into elementary edges when possible
	// (stim's strategy): a composite mechanism is a simultaneous firing of
	// simpler mechanisms already present, so peel detector pairs that exist
	// as elementary edges. The peeled decomposition is accepted only when
	// the component observable masks XOR to the mechanism's mask; otherwise
	// fall back to a consecutive chain with explicit mask attribution.
	edgeExists := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		_, ok := probs[key{u, v}]
		return ok
	}
	edgeMask := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return masks[key{u, v}]
	}
	for _, mech := range model.Mechanisms {
		if len(mech.Detectors) <= 2 {
			continue
		}
		if opts.NaiveDecomposition {
			chainDecompose(mech, d.boundary, addEdge)
			continue
		}
		comps, leftover := peelDecompose(mech.Detectors, d.boundary, edgeExists)
		if len(leftover) <= 2 {
			// The peeled pairs are existing elementary edges; the leftover
			// (if any) becomes a new edge carrying the residual observable
			// mask so that the decomposition's total effect matches the
			// mechanism exactly. This is how hook-error edges (flag +
			// correlated data pair) enter the graph.
			var xor uint64
			for _, cp := range comps {
				xor ^= edgeMask(cp[0], cp[1])
			}
			residual := mech.Obs ^ xor
			switch len(leftover) {
			case 0:
				if residual != 0 {
					// Decomposition would corrupt the observable; fall back.
					break
				}
				for _, cp := range comps {
					addEdge(cp[0], cp[1], mech.Prob, edgeMask(cp[0], cp[1]))
				}
				continue
			case 1:
				for _, cp := range comps {
					addEdge(cp[0], cp[1], mech.Prob, edgeMask(cp[0], cp[1]))
				}
				addEdge(leftover[0], d.boundary, mech.Prob, residual)
				continue
			case 2:
				for _, cp := range comps {
					addEdge(cp[0], cp[1], mech.Prob, edgeMask(cp[0], cp[1]))
				}
				addEdge(leftover[0], leftover[1], mech.Prob, residual)
				continue
			}
		}
		// Fallback: chain consecutive detectors (ids are round/stabilizer
		// ordered, so consecutive ids are usually close), observable mask on
		// the first component.
		chainDecompose(mech, d.boundary, addEdge)
	}
	// Lay the graph out in sorted edge order: map iteration order would
	// otherwise vary between decoder instances, and equal-weight
	// corrections would tie-break differently between separately compiled
	// decoders. Filling each node's half-edges in (u, v) key order lists
	// its neighbours in ascending order.
	keys := make([]key, 0, len(probs))
	for k, p := range probs {
		if p > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	d.off = make([]int32, n+1)
	for _, k := range keys {
		d.off[k.u+1]++
		d.off[k.v+1]++
	}
	for u := 0; u < n; u++ {
		d.off[u+1] += d.off[u]
	}
	d.to = make([]int32, 2*len(keys))
	d.w = make([]int64, 2*len(keys))
	d.obs = make([]uint64, 2*len(keys))
	next := append([]int32(nil), d.off[:n]...)
	for _, k := range keys {
		p := probs[k]
		if p > 0.5 {
			p = 0.5 // a more-likely-than-not error saturates at weight 0
		}
		w := int64(math.Round(math.Log((1-p)/p) * weightScale))
		eu, ev := next[k.u], next[k.v]
		next[k.u]++
		next[k.v]++
		d.to[eu], d.w[eu], d.obs[eu] = int32(k.v), w, masks[k]
		d.to[ev], d.w[ev], d.obs[ev] = int32(k.u), w, masks[k]
	}
	d.opts = opts
	return d, nil
}

// chainDecompose pairs consecutive detectors of a hyperedge, attributing
// the observable mask to the first component.
func chainDecompose(mech dem.Mechanism, boundary int, addEdge func(u, v int, p float64, obs uint64)) {
	ds := mech.Detectors
	for i := 0; i+1 < len(ds); i += 2 {
		obs := uint64(0)
		if i == 0 {
			obs = mech.Obs
		}
		addEdge(ds[i], ds[i+1], mech.Prob, obs)
	}
	if len(ds)%2 == 1 {
		addEdge(ds[len(ds)-1], boundary, mech.Prob, 0)
	}
}

// peelDecompose greedily splits a detector set into pairs that exist as
// elementary edges (boundary-matching unpeelable detectors when possible)
// and returns the leftover detectors that could not be peeled.
func peelDecompose(dets []int, boundary int, edgeExists func(u, v int) bool) (comps [][2]int, leftover []int) {
	remaining := append([]int(nil), dets...)
	for len(remaining) > 0 {
		a := remaining[0]
		matched := -1
		for i := 1; i < len(remaining); i++ {
			if edgeExists(a, remaining[i]) {
				matched = i
				break
			}
		}
		if matched >= 0 {
			comps = append(comps, [2]int{a, remaining[matched]})
			rest := append([]int(nil), remaining[1:matched]...)
			rest = append(rest, remaining[matched+1:]...)
			remaining = rest
			continue
		}
		leftover = append(leftover, a)
		remaining = remaining[1:]
	}
	// Boundary-connected singletons peel off when more than two are left.
	if len(leftover) > 2 {
		var still []int
		for _, a := range leftover {
			if edgeExists(a, boundary) {
				comps = append(comps, [2]int{a, boundary})
			} else {
				still = append(still, a)
			}
		}
		leftover = still
	}
	return comps, leftover
}

// NumDetectors returns the number of detectors the decoder expects.
func (d *Decoder) NumDetectors() int { return d.numDet }

// Decode predicts the observable flips for one shot's defect set (the
// ascending list of flipped detector indices, each once, as
// frame.Batch.ShotDetectors and the DEM's mechanisms give them). It returns
// an error when a defect cannot be matched (disconnected matching graph). It decodes on a fresh scratch;
// hot loops should prefer DecodeWithScratch or DecodeRangeScratch, which
// reuse one across shots.
func (d *Decoder) Decode(defects []int) (uint64, error) {
	return d.DecodeWithScratch(defects, d.NewScratch())
}

// decodePath labels which decode route answered a defect set, for the
// Stats breakdown.
type decodePath uint8

const (
	pathNone    decodePath = iota // an empty defect set: nothing to decode
	pathK1                        // the matcher, on one defect
	pathK2                        // the matcher, on two defects
	pathBlossom                   // the matcher, on three or more defects
	pathUF
	pathUFFallback // union-find escalated to the matcher
)

// decode is the one decode path: union-find first for three or more
// defects when enabled, the matcher otherwise. It reports which route
// answered.
func (d *Decoder) decode(defects []int, s *Scratch) (uint64, decodePath, error) {
	path := pathBlossom
	switch len(defects) {
	case 0:
		return 0, pathNone, nil
	case 1:
		path = pathK1
	case 2:
		path = pathK2
	default:
		if d.opts.UnionFind {
			if obs, ok := d.decodeUF(defects, s); ok {
				return obs, pathUF, nil
			}
			// Escalation: the union-find decoder could not resolve the
			// cluster (odd parity trapped on a boundaryless component, or
			// an internal invariant tripped); the matcher handles it — or
			// reports the canonical unmatchable error.
			path = pathUFFallback
		}
	}
	pairs, err := d.matchPairs(defects, &s.m)
	if err != nil {
		return 0, path, err
	}
	var obs uint64
	for _, p := range pairs {
		obs ^= p.obs
	}
	return obs, path, nil
}

// ufGraph returns the union-find decoding graph, compiling it on first use
// from the same CSR graph and integer weights the matcher uses and
// publishing it through an atomic pointer: the graph is a pure function of
// the immutable CSR graph, so a CAS loser's result is identical.
func (d *Decoder) ufGraph() (*uf.Graph, error) {
	if g := d.ufg.Load(); g != nil {
		return g, nil
	}
	edges := make([]uf.Edge, 0, len(d.to)/2)
	for u := 0; u <= d.numDet; u++ {
		for e := d.off[u]; e < d.off[u+1]; e++ {
			if v := int(d.to[e]); v > u { // both half-edges are stored; take each once
				edges = append(edges, uf.Edge{U: u, V: v, W: d.w[e], Obs: d.obs[e]})
			}
		}
	}
	g, err := uf.NewGraph(d.numDet+1, d.boundary, edges)
	if err != nil {
		return nil, fmt.Errorf("decoder: compiling union-find graph: %w", err)
	}
	if !d.ufg.CompareAndSwap(nil, g) {
		return d.ufg.Load(), nil
	}
	return g, nil
}

// decodeUF attempts the union-find decode of a k>=3 defect set. ok=false
// asks the caller to escalate to the matcher.
func (d *Decoder) decodeUF(defects []int, s *Scratch) (uint64, bool) {
	g, err := d.ufGraph()
	if err != nil {
		return 0, false
	}
	if s.ufs == nil {
		s.ufs = g.NewScratch()
	}
	obs, err := g.Decode(defects, s.ufs)
	if err != nil {
		return 0, false
	}
	return obs, true
}

// KHistBuckets sizes the per-batch syndrome-weight histogram: buckets for
// k = 0..KHistBuckets-2 defects plus a final overflow bucket. Sub-threshold
// syndromes are overwhelmingly sparse, so eight exact buckets cover
// essentially all mass.
const KHistBuckets = 9

// Stats summarizes a decoded batch. Every counter is a pure function of
// the decoded shots, so per-range tallies merge to the same totals at any
// worker count.
type Stats struct {
	Shots         int
	LogicalErrors int // shots where prediction != actual observable flips

	// CacheMisses counts the non-empty defect sets decoded, which is every
	// one of them. CacheHits is never set: it stays only because
	// cmd/bench reads it.
	CacheHits   int
	CacheMisses int

	// Decode-path breakdown over the defect sets the matcher answered:
	// sets of one defect, of two, and of three or more.
	FastK1  int
	FastK2  int
	Blossom int

	// UFShots counts defect sets the union-find decoder answered;
	// UFFallbacks counts sets where union-find escalated to the matcher
	// (those shots are also counted in Blossom). Both zero unless
	// Options.UnionFind is set.
	UFShots     int
	UFFallbacks int

	// WindowCommits counts sliding-window commit steps performed by
	// streaming decode (zero for whole-shot decoding): a pure function of
	// the shot count and the window geometry.
	WindowCommits int

	// KHist is the syndrome-weight histogram: KHist[k] counts shots whose
	// defect set had exactly k flipped detectors, with the last bucket
	// absorbing k >= KHistBuckets-1.
	KHist [KHistBuckets]int
}

// LogicalErrorRate returns the per-shot logical error probability.
func (s Stats) LogicalErrorRate() float64 {
	if s.Shots == 0 {
		return 0
	}
	return float64(s.LogicalErrors) / float64(s.Shots)
}

// Merge returns the combined stats of s and o; per-range tallies combine in
// any grouping, which is what lets the Monte-Carlo engine shard decoding.
func (s Stats) Merge(o Stats) Stats {
	out := Stats{
		Shots:         s.Shots + o.Shots,
		LogicalErrors: s.LogicalErrors + o.LogicalErrors,
		CacheHits:     s.CacheHits + o.CacheHits,
		CacheMisses:   s.CacheMisses + o.CacheMisses,
		FastK1:        s.FastK1 + o.FastK1,
		FastK2:        s.FastK2 + o.FastK2,
		Blossom:       s.Blossom + o.Blossom,
		UFShots:       s.UFShots + o.UFShots,
		UFFallbacks:   s.UFFallbacks + o.UFFallbacks,
		WindowCommits: s.WindowCommits + o.WindowCommits,
	}
	for i := range out.KHist {
		out.KHist[i] = s.KHist[i] + o.KHist[i]
	}
	return out
}

// DecodeRangeScratch decodes shots [lo, hi) of a batch serially on the
// calling goroutine and compares predictions against the actual observable
// flips. Defects are extracted one 64-shot word at a time, and the word's
// defect lists and matcher state live in the caller-owned scratch s, so
// the steady-state hot loop allocates nothing; s must not be shared
// between concurrent calls. Shots decode in ascending order. The decoder's
// tables are immutable (or published atomically) after construction, so
// disjoint ranges decode concurrently with one scratch each, and callers
// that shard a batch merge the per-range Stats.
func (d *Decoder) DecodeRangeScratch(batch *frame.Batch, lo, hi int, s *Scratch) (Stats, error) {
	var stats Stats
	for w := lo / 64; w*64 < hi; w++ {
		first, end := max(lo-w*64, 0), min(hi-w*64, 64)
		mask := (^uint64(0) >> uint(64-end)) &^ (1<<uint(first) - 1) // bits [first, end)
		s.dets = batch.WordDetectors(w, mask, &s.off, s.dets)
		for i := first; i < end; i++ {
			shot := w*64 + i
			defects := s.dets[s.off[i]:s.off[i+1]]
			pred, path, err := d.decode(defects, s)
			if err != nil {
				return stats, err
			}
			stats.count(len(defects), path)
			if pred != batch.ObservableMask(shot) {
				stats.LogicalErrors++
			}
		}
	}
	return stats, nil
}

// count tallies one decoded shot of k defects: its histogram bucket and
// the decode path that answered it.
func (s *Stats) count(k int, path decodePath) {
	s.Shots++
	s.KHist[min(k, KHistBuckets-1)]++
	if k > 0 {
		s.CacheMisses++
	}
	switch path {
	case pathK1:
		s.FastK1++
	case pathK2:
		s.FastK2++
	case pathBlossom:
		s.Blossom++
	case pathUF:
		s.UFShots++
	case pathUFFallback:
		s.UFFallbacks++
		s.Blossom++
	}
}

// DecodeBatch decodes every shot of a sampled batch serially with a fresh
// scratch: the convenient entry point for one-off batches. Parallel decoding
// belongs to the Monte-Carlo engine (internal/mc), whose workers each call
// DecodeRangeScratch on their own chunk.
func (d *Decoder) DecodeBatch(batch *frame.Batch) (Stats, error) {
	return d.DecodeRangeScratch(batch, 0, batch.Shots, d.NewScratch())
}
