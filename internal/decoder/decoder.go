// Package decoder implements minimum-weight perfect matching decoding over a
// detector error model: the PyMatching role in the paper's evaluation
// pipeline.
//
// The detector error model's mechanisms become the weighted edges of a
// matching graph over detectors plus a single boundary node; mechanisms
// flipping more than two detectors are decomposed into chains of pairwise
// edges. Decoding a shot matches its flipped detectors (defects) pairwise —
// or to the boundary — along minimum-weight paths, and predicts the logical
// observable flips as the XOR of the observable masks along the matched
// paths.
package decoder

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"surfstitch/internal/dem"
	"surfstitch/internal/frame"
	"surfstitch/internal/matching"
	"surfstitch/internal/uf"
)

// weightScale converts log-likelihood edge weights to the integer domain of
// the blossom matcher.
const weightScale = 1024.0

// Decoder is a compiled MWPM decoder for a fixed detector error model.
//
// Decoding runs on a sparse-syndrome fast path by default: shortest-path
// rows are computed lazily per source on first use, one- and two-defect
// syndromes decode in closed form without the blossom matcher, and a
// bounded syndrome→observable cache short-circuits repeated sparse
// syndromes. Every prediction is bit-identical to decodeBlossom's, the
// package's exact reference: minimum-weight perfect matching over the
// whole defect set, on one node per defect.
type Decoder struct {
	numDet int
	numObs int

	// boundary is the virtual node index (== numDet).
	boundary int

	// The matching graph in CSR form: node u's half-edges are entries
	// off[u] to off[u+1]-1 of to (the far node), w (the log-likelihood
	// weight) and obs (the observable mask). Each node lists its neighbours
	// in ascending order, so every decoder compiled from the same model
	// makes identical shortest-path tie-breaks.
	off []int32
	to  []int32
	w   []float64
	obs []uint64

	opts Options

	// rows holds the lazily computed per-source shortest-path rows. A slot
	// is nil until the source is first used in a decode.
	rows []atomic.Pointer[pathRow]

	// cache memoizes syndrome→observable-mask results.
	cache *synCache

	// ufg is the lazily compiled union-find decoding graph: a pure function
	// of the immutable CSR graph, CAS-published exactly like rows, so every
	// caller observes the same instance.
	ufg atomic.Pointer[uf.Graph]

	// UndetectableObs is the bitmask of observables flipped by at least one
	// mechanism that trips no detector: an irreducible logical error floor.
	UndetectableObs uint64
}

// pathRow is one source's shortest-path distances and path observable-mask
// XORs to every node of the matching graph. Rows are immutable once
// published.
type pathRow struct {
	dist []float64
	mask []uint64
}

// Options tunes decoder compilation.
type Options struct {
	// NaiveDecomposition disables the elementary-edge peeling of
	// hyperedges, falling back to consecutive-pair chaining everywhere
	// (the decoder ablation in the benchmark harness).
	NaiveDecomposition bool

	// UnionFind routes k>=3 defect sets through the almost-linear
	// union-find decoder (internal/uf) instead of exact blossom matching.
	// The k<=2 closed forms still apply. UF corrections are valid but only
	// approximately minimum-weight; undecodable clusters (odd parity on a
	// boundaryless component) escalate back to blossom.
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
	// otherwise vary between decoder instances, and equal-weight shortest
	// paths would tie-break differently — breaking the bit-identity
	// contract between separately compiled decoders. Filling each node's
	// half-edges in (u, v) key order lists its neighbours in ascending
	// order.
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
	d.w = make([]float64, 2*len(keys))
	d.obs = make([]uint64, 2*len(keys))
	next := append([]int32(nil), d.off[:n]...)
	for _, k := range keys {
		p := probs[k]
		if p > 0.5 {
			p = 0.5 // a more-likely-than-not error saturates at weight 0
		}
		w := math.Log((1 - p) / p)
		eu, ev := next[k.u], next[k.v]
		next[k.u]++
		next[k.v]++
		d.to[eu], d.w[eu], d.obs[eu] = int32(k.v), w, masks[k]
		d.to[ev], d.w[ev], d.obs[ev] = int32(k.u), w, masks[k]
	}
	d.opts = opts
	d.rows = make([]atomic.Pointer[pathRow], n)
	d.cache = newSynCache(cacheSize)
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

// row returns the shortest-path row from src, computing it on first use and
// publishing it through an atomic pointer. Reads are lock-free; concurrent
// first uses may both run Dijkstra, but the row is a pure function of the
// immutable graph, so the CAS loser's result is identical to the winner's
// and results stay bit-identical at any worker count. The Dijkstra queue
// reuses the scratch's buffer, so a new row allocates only itself.
func (d *Decoder) row(src int, s *Scratch) *pathRow {
	if r := d.rows[src].Load(); r != nil {
		return r
	}
	r := d.dijkstra(src, &s.heap)
	if !d.rows[src].CompareAndSwap(nil, r) {
		return d.rows[src].Load()
	}
	return r
}

// heapItem is one Dijkstra queue entry: a node and the distance it was
// pushed with.
type heapItem struct {
	node int32
	dist float64
}

// rowHeap is a binary min-heap on distance with lazy deletion. push and
// pop are container/heap's Push and Pop with up and down copied verbatim,
// so equal-distance entries pop in exactly the order they did on
// container/heap. That order is part of the tie-break contract: the first
// strict relaxation of a node fixes its path mask, so a heap that pops
// ties in another order (an indexed decrease-key heap, say) can change
// masks and with them seeded outputs.
type rowHeap []heapItem

func (h *rowHeap) push(it heapItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *rowHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// dijkstra computes src's shortest-path row on the queue buffer q. A node
// is pushed only on a strict improvement and every weight is >= 0, so an
// entry whose distance exceeds its node's is stale and the first entry
// popped for a node settles it.
func (d *Decoder) dijkstra(src int, q *rowHeap) *pathRow {
	n := d.numDet + 1
	r := &pathRow{dist: make([]float64, n), mask: make([]uint64, n)}
	dist, mask := r.dist, r.mask
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	*q = append((*q)[:0], heapItem{node: int32(src)})
	for len(*q) > 0 {
		it := q.pop()
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		for e := d.off[u]; e < d.off[u+1]; e++ {
			v := d.to[e]
			if nd := dist[u] + d.w[e]; nd < dist[v] {
				dist[v] = nd
				mask[v] = mask[u] ^ d.obs[e]
				q.push(heapItem{node: v, dist: nd})
			}
		}
	}
	return r
}

// NumDetectors returns the number of detectors the decoder expects.
func (d *Decoder) NumDetectors() int { return d.numDet }

// quantWeight converts a log-likelihood path weight to the blossom
// matcher's integer domain; -1 marks an unreachable (infinite) path.
func quantWeight(w float64) int64 {
	if math.IsInf(w, 1) {
		return -1
	}
	return int64(math.Round(w * weightScale))
}

// Decode predicts the observable flips for one shot's defect set (the list
// of flipped detector indices). It returns an error when a defect cannot be
// matched (disconnected matching graph). It decodes on a fresh scratch;
// hot loops should prefer DecodeWithScratch or DecodeRangeScratch, which
// reuse one across shots.
func (d *Decoder) Decode(defects []int) (uint64, error) {
	return d.DecodeWithScratch(defects, d.NewScratch())
}

// decodePath labels which decode route answered a miss, for the Stats
// breakdown.
type decodePath uint8

const (
	pathNone decodePath = iota
	pathK1
	pathK2
	pathBlossom
	pathUF
	pathUFFallback // union-find escalated to blossom
)

// decode is the shared decode entry: cache lookup, then closed forms, then
// blossom. It reports whether the syndrome cache answered the query and
// which route computed it on a miss.
func (d *Decoder) decode(defects []int, s *Scratch) (uint64, bool, decodePath, error) {
	if len(defects) == 0 {
		return 0, false, pathNone, nil
	}
	s.key = appendSyndromeKey(s.key[:0], defects)
	if obs, ok := d.cache.get(s.key); ok {
		return obs, true, pathNone, nil
	}
	obs, path, err := d.decodeMiss(defects, s)
	if err != nil {
		return 0, false, path, err
	}
	d.cache.put(s.key, obs)
	return obs, false, path, nil
}

// decodeMiss decodes a non-empty, uncached defect set: closed forms for
// one- and two-defect syndromes, union-find (when enabled) or full blossom
// otherwise.
func (d *Decoder) decodeMiss(defects []int, s *Scratch) (uint64, decodePath, error) {
	switch len(defects) {
	case 1:
		r := d.row(defects[0], s)
		if quantWeight(r.dist[d.boundary]) < 0 {
			return 0, pathK1, fmt.Errorf("decoder: defects unmatchable: no path joins defect %d to the boundary", defects[0])
		}
		return r.mask[d.boundary], pathK1, nil
	case 2:
		obs, err := d.decodePair(defects, s)
		return obs, pathK2, err
	}
	if d.opts.UnionFind {
		if obs, ok := d.decodeUF(defects, s); ok {
			return obs, pathUF, nil
		}
		// Escalation: the union-find decoder could not resolve the cluster
		// (odd parity trapped on a boundaryless component, or an internal
		// invariant tripped); the blossom handles it — or reports the
		// canonical unmatchable error.
		obs, _, err := d.decodeBlossom(defects, s)
		return obs, pathUFFallback, err
	}
	obs, _, err := d.decodeBlossom(defects, s)
	return obs, pathBlossom, err
}

// ufGraph returns the union-find decoding graph, compiling it on first use
// from the same CSR graph the matching paths use and publishing it through
// an atomic pointer (same discipline as row: the graph is a pure function
// of the immutable CSR graph, so a CAS loser's result is identical).
func (d *Decoder) ufGraph() (*uf.Graph, error) {
	if g := d.ufg.Load(); g != nil {
		return g, nil
	}
	edges := make([]uf.Edge, 0, len(d.to)/2)
	for u := 0; u <= d.numDet; u++ {
		for e := d.off[u]; e < d.off[u+1]; e++ {
			if v := int(d.to[e]); v > u { // both half-edges are stored; take each once
				edges = append(edges, uf.Edge{U: u, V: v, W: quantWeight(d.w[e]), Obs: d.obs[e]})
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
// asks the caller to escalate to the blossom.
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

// pairCost prices matching defect i with defect j, given i's row ri, j's
// detector index and both quantized boundary weights bi and bj (-1 when
// unreachable): along their shortest path, or by sending both to the
// boundary, whichever is cheaper, taking the path on a tie. A negative
// cost means neither route exists.
func pairCost(ri *pathRow, j int, bi, bj int64) (w int64, viaPath bool) {
	wp := quantWeight(ri.dist[j])
	wb := int64(-1)
	if bi >= 0 && bj >= 0 {
		wb = bi + bj
	}
	if wp >= 0 && (wb < 0 || wp <= wb) {
		return wp, true
	}
	return wb, false
}

// decodePair decodes a two-defect syndrome in closed form: the only
// perfect matching of decodeBlossom's two-node graph is its one edge.
func (d *Decoder) decodePair(defects []int, s *Scratch) (uint64, error) {
	a, b := defects[0], defects[1]
	ra, rb := d.row(a, s), d.row(b, s)
	wa, wb := quantWeight(ra.dist[d.boundary]), quantWeight(rb.dist[d.boundary])
	switch w, viaPath := pairCost(ra, b, wa, wb); {
	case w < 0:
		return 0, fmt.Errorf("decoder: defects unmatchable: no path pairs defects %d,%d or joins both to the boundary", a, b)
	case viaPath:
		return ra.mask[b], nil
	default:
		return ra.mask[d.boundary] ^ rb.mask[d.boundary], nil
	}
}

// decodeBlossom runs the full minimum-weight perfect matching over the
// whole defect set, with no closed forms and no cache: the exact reference
// the fast path reproduces bit for bit, which the differential tests call
// directly. It also returns the matching's weight.
//
// Nodes 0..k-1 are the defects, plus node k, the boundary, when k is odd.
// Edge (i, j) costs pairCost and edge (i, k) i's boundary weight. The
// defects a matching with a boundary image per defect sends to the
// boundary pair off here, one left for node k when k is odd, each pair at
// no more than its two boundary paths; so the two graphs have the same
// minimum weight and the same unmatchable sets (see DESIGN.md, "The
// blossom graph"). The rows, boundary weights, edge buffer and matcher
// state are the scratch's, reused across calls.
func (d *Decoder) decodeBlossom(defects []int, s *Scratch) (uint64, int64, error) {
	k := len(defects)
	s.rows, s.bnd = s.rows[:0], s.bnd[:0]
	for _, det := range defects {
		r := d.row(det, s)
		s.rows = append(s.rows, r)
		s.bnd = append(s.bnd, quantWeight(r.dist[d.boundary]))
	}
	rows, bnd := s.rows, s.bnd
	// At most k(k-1)/2 pair edges and k boundary edges, so the append loop
	// below never reallocates.
	if ne := k * (k + 1) / 2; cap(s.edges) < ne {
		s.edges = make([]matching.Edge, 0, ne)
	}
	edges := s.edges[:0]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if w, _ := pairCost(rows[i], defects[j], bnd[i], bnd[j]); w >= 0 {
				edges = append(edges, matching.Edge{U: i, V: j, W: w})
			}
		}
		if k%2 == 1 && bnd[i] >= 0 {
			edges = append(edges, matching.Edge{U: i, V: k, W: bnd[i]})
		}
	}
	s.edges = edges
	mate, err := s.match.MinWeightPerfectMatching(k+k%2, edges)
	if err != nil {
		return 0, 0, fmt.Errorf("decoder: defects unmatchable: %w", err)
	}
	var obs uint64
	var weight int64
	for i, m := range mate[:k] {
		switch {
		case m == k: // matched to the boundary
			obs ^= rows[i].mask[d.boundary]
			weight += bnd[i]
		case m > i: // defect-defect pair, counted once
			w, viaPath := pairCost(rows[i], defects[m], bnd[i], bnd[m])
			if viaPath {
				obs ^= rows[i].mask[defects[m]]
			} else {
				obs ^= rows[i].mask[d.boundary] ^ rows[m].mask[d.boundary]
			}
			weight += w
		}
	}
	return obs, weight, nil
}

// KHistBuckets sizes the per-batch syndrome-weight histogram: buckets for
// k = 0..KHistBuckets-2 defects plus a final overflow bucket. Sub-threshold
// syndromes are overwhelmingly sparse, so eight exact buckets cover
// essentially all mass.
const KHistBuckets = 9

// Stats summarizes a decoded batch.
type Stats struct {
	Shots         int
	LogicalErrors int // shots where prediction != actual observable flips

	// CacheHits and CacheMisses count syndrome-cache outcomes over the
	// non-empty defect sets decoded. They are observability counters: which
	// range first sees a syndrome depends on goroutine scheduling, so
	// unlike Shots and LogicalErrors they are not bit-identical across
	// worker counts.
	CacheHits   int
	CacheMisses int

	// Decode-path breakdown over cache misses: closed-form single-defect,
	// closed-form pair, and full blossom matchings. Like the cache
	// counters these depend on which range first warmed the cache, so
	// they are observability counters, not bit-identical quantities.
	FastK1  int
	FastK2  int
	Blossom int

	// UFShots counts cache misses the union-find decoder answered;
	// UFFallbacks counts misses where union-find escalated to blossom
	// (those shots are also counted in Blossom). Both zero unless
	// Options.UnionFind is set. Same caveat as the other path counters.
	UFShots     int
	UFFallbacks int

	// WindowCommits counts sliding-window commit steps performed by
	// streaming decode (zero for whole-shot decoding). Deterministic: a
	// pure function of the shot count and the window geometry.
	WindowCommits int

	// KHist is the syndrome-weight histogram: KHist[k] counts shots whose
	// defect set had exactly k flipped detectors, with the last bucket
	// absorbing k >= KHistBuckets-1. Deterministic (a pure function of the
	// sampled batch), unlike the path counters above.
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
// defect lists, matching edges, cache keys and blossom state all live in
// the caller-owned scratch s, so the steady-state hot loop does not
// allocate; s must not be shared between concurrent calls. Shots decode in
// ascending order. The decoder's tables are immutable (or published
// atomically) after construction, so disjoint ranges decode concurrently
// with one scratch each, and callers that shard a batch merge the
// per-range Stats.
func (d *Decoder) DecodeRangeScratch(batch *frame.Batch, lo, hi int, s *Scratch) (Stats, error) {
	var stats Stats
	for w := lo / 64; w*64 < hi; w++ {
		first, end := max(lo-w*64, 0), min(hi-w*64, 64)
		mask := (^uint64(0) >> uint(64-end)) &^ (1<<uint(first) - 1) // bits [first, end)
		s.dets = batch.WordDetectors(w, mask, &s.off, s.dets)
		for i := first; i < end; i++ {
			shot := w*64 + i
			defects := s.dets[s.off[i]:s.off[i+1]]
			pred, hit, path, err := d.decode(defects, s)
			if err != nil {
				return stats, err
			}
			stats.count(len(defects), hit, path)
			if pred != batch.ObservableMask(shot) {
				stats.LogicalErrors++
			}
		}
	}
	return stats, nil
}

// count tallies one decoded shot of k defects: its histogram bucket, its
// cache outcome and the decode path that answered a miss.
func (s *Stats) count(k int, hit bool, path decodePath) {
	s.Shots++
	s.KHist[min(k, KHistBuckets-1)]++
	if k > 0 {
		if hit {
			s.CacheHits++
		} else {
			s.CacheMisses++
		}
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
