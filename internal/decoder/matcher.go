package decoder

import (
	"fmt"
	"math"
)

// This file is the decoder's exact matcher: sparse blossom, after Higgott
// and Gidney, "Sparse Blossom: correcting a million errors per core second
// with minimum-weight matching" (2023). Instead of matching defects on a
// complete graph of all-pairs shortest paths, it grows a region around
// every defect on the detector graph itself and runs Edmonds' blossom
// algorithm on the regions as they collide. Only the nodes the regions
// reach are touched, which near threshold is about one edge around each
// defect.
//
// Weights are the decoder's integer edge weights, doubled so that two
// regions growing towards each other meet at an integer time. Every region
// in an alternating tree has a radius of the same parity as the time (they
// all start at zero and move at unit speed, and a region joins a tree only
// across a tight edge, whose weight is even), so every event time is an
// exact integer.

const (
	none     = -1            // no region, no tree parent, no match
	boundary = -2            // the match of a region matched to the boundary
	noTime   = math.MaxInt64 // a node with no event ahead
)

// cedge is a compressed edge: a path from source defect a to source defect
// b, or to the boundary node, with its doubled weight and observable mask.
type cedge struct {
	a, b int32
	w    int64
	obs  uint64
}

func (e cedge) rev() cedge { return cedge{a: e.b, b: e.a, w: e.w, obs: e.obs} }

// pair is one matched pair of the result: defect a with defect b, or with
// the boundary node, along a path of weight w flipping observables obs.
type pair struct {
	a, b int32
	w    int64
	obs  uint64
}

// fnode is one detector's flooding state. It is valid only while epoch is
// the matcher's; an older stamp reads as a node no region has reached.
type fnode struct {
	epoch uint32
	ver   uint32 // stamp of the node's queued event; stale events mismatch
	// region is the region whose growth reached the node, and top its
	// outermost enclosing blossom (the region itself when top-level).
	region, top int32
	src         int32  // source defect of the path that reached the node
	dist        int64  // doubled weight of that path
	obs         uint64 // observable mask of that path
	// wrapped is the node's local radius minus top's radius: how far the
	// regions covering the node extend past it, less top's own share.
	wrapped int64
	evT     int64 // time of the node's queued event, or noTime
}

// region is a growing, shrinking or frozen region: one defect's, or a
// blossom of an odd cycle of regions. Its radius at time t is y+slope*t.
type region struct {
	y, slope int64
	ver      uint32 // stamp of the region's queued shrink event
	mark     uint32 // walk stamp for common-ancestor searches
	source   int32  // the defect of a one-defect region, none for a blossom
	bparent  int32  // enclosing blossom, none while top-level
	cycIdx   int32  // index in the enclosing blossom's cycle
	dead     bool   // a shattered blossom

	// Alternating-tree links, valid while the region is in a tree: the
	// tree parent, the edge from this region to it, and the children. An
	// inner (shrinking) region has exactly one child, its match.
	tparent  int32
	tedge    cedge
	children []int32

	// The match of a top-level region in no tree: a region or boundary,
	// with the edge from this region to it.
	match int32
	medge cedge

	cycle []cycleEntry // a blossom's children, each with its edge to the next
	shell []int32      // nodes this region reached itself, in arrival order
}

type cycleEntry struct {
	r int32
	e cedge
}

// event is a queued flooding event: node id's next edge event, or, for a
// negative id, the shrink event of region ^id. Events pop by time, then by
// push order, and carry the version they were queued under.
type event struct {
	t   int64
	seq uint64
	id  int32
	ver uint32
}

// flip is one pair an augmentation rematches once the tree is dissolved.
type flip struct {
	a, b int32
	e    cedge
}

// matcher is the sparse-blossom state of one goroutine. Every slice keeps
// its backing array across shots, so a warm matcher does not allocate.
type matcher struct {
	nodes   []fnode
	epoch   uint32
	regions []region
	nreg    int
	heap    []event
	seq     uint64
	t       int64
	trees   int // alternating trees left, one per unmatched root
	mark    uint32
	stack   []int32
	flips   []flip
	pairs   []pair
	expand  []cycleEntry // pending (region, source) expansions
}

// matchPairs pairs every defect of a sorted, duplicate-free defect set
// with another defect or with the boundary at minimum total weight, and
// returns the pairs, which the next call overwrites. It fails when no such
// pairing exists: an odd number of defects on a component without a
// boundary edge.
func (d *Decoder) matchPairs(defects []int, m *matcher) ([]pair, error) {
	m.reset(d.numDet)
	for _, det := range defects {
		r := m.newRegion()
		rg := &m.regions[r]
		rg.source = int32(det)
		rg.slope = 1
		n := m.node(int32(det))
		n.region, n.top, n.src = r, r, int32(det)
		rg.shell = append(rg.shell, int32(det))
	}
	m.trees = len(defects)
	for _, det := range defects {
		m.reschedule(d, int32(det))
	}
	for m.trees > 0 {
		if len(m.heap) == 0 {
			return nil, m.unmatchable()
		}
		ev := m.pop()
		m.t = ev.t
		if ev.id >= 0 {
			m.nodeEvent(d, ev)
		} else {
			m.shrinkEvent(d, ev)
		}
	}
	m.extract()
	return m.pairs, nil
}

func (m *matcher) reset(numDet int) {
	if len(m.nodes) < numDet {
		m.nodes = make([]fnode, numDet)
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: no stale stamp may read as current
		clear(m.nodes)
		m.epoch = 1
	}
	m.nreg, m.heap, m.seq, m.t, m.trees = 0, m.heap[:0], 0, 0, 0
}

// node returns u's flooding state, resetting a stale one.
func (m *matcher) node(u int32) *fnode {
	n := &m.nodes[u]
	if n.epoch != m.epoch {
		*n = fnode{epoch: m.epoch, region: none, top: none, src: none, evT: noTime}
	}
	return n
}

// topOf returns the top-level region covering node u, or none, without
// resetting a stale node.
func (m *matcher) topOf(u int32) int32 {
	if n := &m.nodes[u]; n.epoch == m.epoch {
		return n.top
	}
	return none
}

// newRegion returns a fresh top-level, frozen, unmatched region, reusing
// a slot and its slices' backing arrays from an earlier shot.
func (m *matcher) newRegion() int32 {
	if m.nreg == len(m.regions) {
		m.regions = append(m.regions, region{})
	}
	r := int32(m.nreg)
	m.nreg++
	rg := &m.regions[r]
	*rg = region{
		source:   none,
		bparent:  none,
		tparent:  none,
		match:    none,
		children: rg.children[:0],
		cycle:    rg.cycle[:0],
		shell:    rg.shell[:0],
	}
	return r
}

func (m *matcher) radius(r int32) int64 {
	rg := &m.regions[r]
	return rg.y + rg.slope*m.t
}

// push and pop are a binary min-heap on (t, seq).
func (m *matcher) push(ev event) {
	ev.seq = m.seq
	m.seq++
	h := append(m.heap, ev)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !evLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	m.heap = h
}

func (m *matcher) pop() event {
	h := m.heap
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && evLess(h[j2], h[j]) {
			j = j2
		}
		if !evLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	m.heap = h
	return top
}

func evLess(a, b event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// nextEvent returns the time of u's earliest edge event and the CSR index
// of the first edge that has it: a growing region reaching an empty node
// or the boundary across the edge, or two regions touching along it.
func (m *matcher) nextEvent(d *Decoder, u int32) (int64, int32) {
	n := m.node(u)
	var iu, su int64
	top := n.top
	if top != none {
		rg := &m.regions[top]
		iu, su = rg.y+n.wrapped, rg.slope
	}
	best, bestE := int64(noTime), int32(none)
	for e := d.off[u]; e < d.off[u+1]; e++ {
		v, w := d.to[e], 2*d.w[e]
		var t int64
		if int(v) == d.boundary {
			if su <= 0 {
				continue
			}
			t = w - iu
		} else {
			vt := m.topOf(v)
			if top != none && vt == top {
				continue
			}
			var iv, sv int64
			if vt != none {
				rv := &m.regions[vt]
				iv, sv = rv.y+m.nodes[v].wrapped, rv.slope
			}
			switch su + sv {
			case 1:
				t = w - iu - iv
			case 2:
				t = (w - iu - iv) >> 1
			default:
				continue
			}
		}
		if t < best {
			best, bestE = t, e
		}
	}
	return best, bestE
}

// reschedule queues u's next event.
func (m *matcher) reschedule(d *Decoder, u int32) {
	t, _ := m.nextEvent(d, u)
	m.queue(u, t)
}

// queue queues an event for node u at time t unless one is already queued
// for that time; a superseded event stays in the heap and is skipped when
// popped.
func (m *matcher) queue(u int32, t int64) {
	n := &m.nodes[u]
	if t == n.evT {
		return
	}
	n.ver++
	n.evT = t
	if t != noTime {
		m.push(event{t: t, id: u, ver: n.ver})
	}
}

// nodeEvent handles a popped node event: it recomputes the node's next
// event and, if that is now, acts on its edge.
func (m *matcher) nodeEvent(d *Decoder, ev event) {
	u := ev.id
	n := m.node(u)
	if ev.ver != n.ver {
		return
	}
	n.evT = noTime
	t, e := m.nextEvent(d, u)
	if t > m.t {
		m.queue(u, t)
		return
	}
	v := d.to[e]
	switch {
	case int(v) == d.boundary:
		m.augment(d, n.top, boundary, cedge{a: n.src, b: v, w: n.dist + 2*d.w[e], obs: n.obs ^ d.obs[e]})
	case n.top == none:
		m.claim(d, u, v, e)
	case m.topOf(v) == none:
		m.claim(d, v, u, e)
	default:
		nv := m.node(v)
		m.collide(d, n.top, nv.top, cedge{a: n.src, b: nv.src, w: n.dist + 2*d.w[e] + nv.dist, obs: n.obs ^ d.obs[e] ^ nv.obs})
	}
	m.reschedule(d, u)
}

// claim hands the empty node x to the growing region that reached it from
// node from across edge e.
func (m *matcher) claim(d *Decoder, x, from int32, e int32) {
	nf, nx := m.node(from), m.node(x)
	r := nf.top
	nx.region, nx.top, nx.src = r, r, nf.src
	nx.dist = nf.dist + 2*d.w[e]
	nx.obs = nf.obs ^ d.obs[e]
	nx.wrapped = -m.radius(r)
	m.regions[r].shell = append(m.regions[r].shell, x)
	m.reschedule(d, x)
}

// shrinkEvent handles a popped shrink event: the shrinking region gives up
// the node it reached last, or, at radius zero, a blossom shatters and a
// one-defect region lets its tree parent and child touch.
func (m *matcher) shrinkEvent(d *Decoder, ev event) {
	r := ^ev.id
	rg := &m.regions[r]
	if ev.ver != rg.ver || rg.slope >= 0 {
		return
	}
	switch {
	case len(rg.shell) == 0:
		m.shatter(d, r)
	case rg.source != none && len(rg.shell) == 1:
		// The parent and child both touch this region's defect, so the
		// path through it joins them: a blossom of the three.
		p, c := rg.tparent, rg.children[0]
		in, out := rg.tedge.rev(), m.regions[c].tedge.rev()
		m.collide(d, p, c, cedge{a: in.a, b: out.b, w: in.w + out.w, obs: in.obs ^ out.obs})
	default:
		u := rg.shell[len(rg.shell)-1]
		rg.shell = rg.shell[:len(rg.shell)-1]
		n := m.node(u)
		n.region, n.top, n.src, n.dist, n.obs, n.wrapped = none, none, none, 0, 0, 0
		m.reschedule(d, u)
		m.scheduleShrink(r)
	}
}

// scheduleShrink queues the time the shrinking region r next changes: its
// last node's local radius, or its own radius, reaching zero.
func (m *matcher) scheduleShrink(r int32) {
	rg := &m.regions[r]
	t := rg.y
	if k := len(rg.shell); k > 0 {
		t += m.nodes[rg.shell[k-1]].wrapped
	}
	m.push(event{t: t, id: ^r, ver: rg.ver})
}

// setSlope freezes (0), grows (+1) or shrinks (-1) region r from now on,
// keeping its current radius, and requeues the events of its nodes. A
// shrinking region's nodes have no edge events (nothing grows fast enough
// to meet them), so their queued ones are left to recompute when they pop.
func (m *matcher) setSlope(d *Decoder, r int32, s int64) {
	rg := &m.regions[r]
	rg.y += (rg.slope - s) * m.t
	rg.slope = s
	rg.ver++
	if s < 0 {
		m.scheduleShrink(r)
		return
	}
	m.rescheduleArea(d, r)
}

// appendArea appends region r and every region nested in it, its blossom
// children at any depth, to m.stack; their shells together are r's area.
func (m *matcher) appendArea(r int32) {
	base := len(m.stack)
	m.stack = append(m.stack, r)
	for i := base; i < len(m.stack); i++ {
		for _, c := range m.regions[m.stack[i]].cycle {
			m.stack = append(m.stack, c.r)
		}
	}
}

// rescheduleArea requeues the events of every node in region r's area.
func (m *matcher) rescheduleArea(d *Decoder, r int32) {
	base := len(m.stack)
	m.appendArea(r)
	for _, x := range m.stack[base:] {
		for _, u := range m.regions[x].shell {
			m.reschedule(d, u)
		}
	}
	m.stack = m.stack[:base]
}

// retop points every node under region r at the new top-level region top,
// shifting its wrapped radius by shift so that its local radius is kept.
func (m *matcher) retop(r, top int32, shift int64) {
	base := len(m.stack)
	m.appendArea(r)
	for _, x := range m.stack[base:] {
		for _, u := range m.regions[x].shell {
			n := &m.nodes[u]
			n.top = top
			n.wrapped += shift
		}
	}
	m.stack = m.stack[:base]
}

// collide handles top-level regions r and s touching along edge e (from
// r's side to s's), at least one of them growing.
func (m *matcher) collide(d *Decoder, r, s int32, e cedge) {
	if m.regions[r].slope <= 0 {
		r, s, e = s, r, e.rev()
	}
	rs := &m.regions[s]
	switch {
	case rs.slope > 0 && m.root(r) == m.root(s):
		m.blossom(d, r, s, e)
	case rs.slope > 0 || rs.match == boundary:
		m.augment(d, r, s, e)
	default:
		// s and its partner join r's tree, s shrinking and the partner
		// growing.
		p := rs.match
		pe := rs.medge.rev() // from the partner to s
		rs.tparent, rs.tedge, rs.match = r, e.rev(), none
		rs.children = append(rs.children[:0], p)
		m.regions[r].children = append(m.regions[r].children, s)
		rp := &m.regions[p]
		rp.tparent, rp.tedge, rp.match = s, pe, none
		m.setSlope(d, s, -1)
		m.setSlope(d, p, 1)
	}
}

func (m *matcher) root(r int32) int32 {
	for m.regions[r].tparent != none {
		r = m.regions[r].tparent
	}
	return r
}

func (m *matcher) setMatch(r, s int32, e cedge) {
	rg := &m.regions[r]
	rg.match, rg.medge = s, e
}

// augment matches growing region r with partner along e. The partner is
// the boundary, a region matched to the boundary, which gives it up, or a
// growing region of another tree. The path from each growing end to its
// tree's root flips, and the rest of each tree dissolves into the pairs it
// already holds.
func (m *matcher) augment(d *Decoder, r, partner int32, e cedge) {
	m.flips = m.flips[:0]
	for _, x := range [2]int32{r, partner} {
		if x != boundary && m.regions[x].slope > 0 {
			m.dissolve(d, m.flipPath(x))
			m.trees--
		}
	}
	for _, f := range m.flips {
		m.setMatch(f.a, f.b, f.e)
		m.setMatch(f.b, f.a, f.e.rev())
	}
	m.setMatch(r, partner, e)
	if partner != boundary {
		m.setMatch(partner, r, e.rev())
	}
}

// flipPath records the pairs the augmenting path from outer region r to
// its root will hold, each inner region with its tree parent, and returns
// the root.
func (m *matcher) flipPath(r int32) int32 {
	for m.regions[r].tparent != none {
		in := m.regions[r].tparent
		out := m.regions[in].tparent
		m.flips = append(m.flips, flip{a: in, b: out, e: m.regions[in].tedge})
		r = out
	}
	return r
}

// dissolve freezes every region of the tree rooted at root, matching each
// inner region with its child. Freezing a growing region only delays or
// cancels its nodes' events, so their queued events stay and recompute when
// they pop. They must not be dropped: a growing neighbour may still hold a
// time computed before this region grew, later than the true one. A
// shrinking region never meets a growing one but a frozen one can, so the
// nodes of the inner regions are requeued.
func (m *matcher) dissolve(d *Decoder, root int32) {
	base := len(m.stack)
	m.stack = append(m.stack, root)
	for len(m.stack) > base {
		x := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		rg := &m.regions[x]
		m.stack = append(m.stack, rg.children...)
		thawed := rg.slope < 0
		if thawed {
			c := rg.children[0]
			e := m.regions[c].tedge
			m.setMatch(x, c, e.rev())
			m.setMatch(c, x, e)
		}
		rg.tparent = none
		rg.children = rg.children[:0]
		rg.y += rg.slope * m.t
		rg.slope = 0
		rg.ver++
		if thawed {
			m.rescheduleArea(d, x)
		}
	}
}

// blossom handles growing regions r and s of one tree touching along e:
// the odd cycle through their common ancestor becomes a growing blossom
// in the ancestor's place.
func (m *matcher) blossom(d *Decoder, r, s int32, e cedge) {
	m.mark++
	for x := r; x != none; x = m.regions[x].tparent {
		m.regions[x].mark = m.mark
	}
	lca := s
	for m.regions[lca].mark != m.mark {
		lca = m.regions[lca].tparent
	}
	b := m.newRegion()
	// The cycle runs from the ancestor down to r, across e to s and back
	// up to the ancestor.
	cyc := append(m.regions[b].cycle, cycleEntry{r: lca})
	base := len(m.stack)
	for x := r; x != lca; x = m.regions[x].tparent {
		m.stack = append(m.stack, x)
	}
	for i := len(m.stack) - 1; i >= base; i-- {
		x := m.stack[i]
		cyc[len(cyc)-1].e = m.regions[x].tedge.rev()
		cyc = append(cyc, cycleEntry{r: x})
	}
	m.stack = m.stack[:base]
	cyc[len(cyc)-1].e = e
	for x := s; x != lca; x = m.regions[x].tparent {
		cyc = append(cyc, cycleEntry{r: x, e: m.regions[x].tedge})
	}
	rl := &m.regions[lca]
	bg := &m.regions[b]
	bg.cycle = cyc
	bg.slope = 1
	bg.y = -m.t
	bg.tparent, bg.tedge = rl.tparent, rl.tedge
	if p := rl.tparent; p != none {
		ch := m.regions[p].children
		for i := range ch {
			if ch[i] == lca {
				ch[i] = b
			}
		}
	}
	m.mark++
	for _, c := range cyc {
		m.regions[c.r].mark = m.mark
	}
	kids := bg.children
	for i, c := range cyc {
		rc := &m.regions[c.r]
		for _, k := range rc.children {
			if m.regions[k].mark != m.mark {
				kids = append(kids, k)
				m.regions[k].tparent = b
			}
		}
		rc.children = rc.children[:0]
		rc.tparent = none
		rc.bparent, rc.cycIdx = b, int32(i)
		rc.y += rc.slope * m.t
		rc.slope = 0
		rc.ver++
		m.retop(c.r, b, m.radius(c.r))
	}
	m.regions[b].children = kids
	m.rescheduleArea(d, b)
}

// shatter handles a shrinking blossom b reaching radius zero: its children
// become top-level again. The even path around the cycle from the child
// its tree parent edge enters to the child its tree child edge leaves
// takes b's place in the tree, alternately shrinking and growing; the
// other children pair off along the cycle.
func (m *matcher) shatter(d *Decoder, b int32) {
	bg := &m.regions[b]
	bg.dead = true
	bg.ver++
	p, c := bg.tparent, bg.children[0]
	cyc := bg.cycle
	k := len(cyc)
	in, out := m.childOf(b, bg.tedge.a), m.childOf(b, m.regions[c].tedge.b)
	step := 1
	if (out-in+k)%k%2 == 1 {
		step = k - 1
	}
	// edge returns the cycle edge from child i to its neighbour j=i±1.
	edge := func(i, j int) cedge {
		if j == (i+1)%k {
			return cyc[i].e
		}
		return cyc[j].e.rev()
	}
	for _, ce := range cyc {
		rc := &m.regions[ce.r]
		rc.bparent = none
		m.retop(ce.r, ce.r, -m.radius(ce.r))
	}
	x0 := cyc[in].r
	m.regions[x0].tparent, m.regions[x0].tedge = p, bg.tedge
	ch := m.regions[p].children
	for i := range ch {
		if ch[i] == b {
			ch[i] = x0
		}
	}
	slope := int64(-1)
	for i := in; ; i = (i + step) % k {
		x := cyc[i].r
		if i == out {
			m.regions[x].children = append(m.regions[x].children[:0], c)
			m.regions[c].tparent = x
			m.setSlope(d, x, slope)
			break
		}
		j := (i + step) % k
		y := cyc[j].r
		m.regions[x].children = append(m.regions[x].children[:0], y)
		m.regions[y].tparent, m.regions[y].tedge = x, edge(j, i)
		m.setSlope(d, x, slope)
		slope = -slope
	}
	for i := (out + step) % k; i != in; i = (i + 2*step) % k {
		j := (i + step) % k
		e := edge(i, j)
		m.setMatch(cyc[i].r, cyc[j].r, e)
		m.setMatch(cyc[j].r, cyc[i].r, e.rev())
		m.rescheduleArea(d, cyc[i].r)
		m.rescheduleArea(d, cyc[j].r)
	}
}

// childOf returns the index in blossom b's cycle of the child containing
// source defect a.
func (m *matcher) childOf(b, a int32) int {
	r := m.nodes[a].region
	for m.regions[r].bparent != b {
		r = m.regions[r].bparent
	}
	return int(m.regions[r].cycIdx)
}

// extract expands every matched top-level region into defect pairs: a
// blossom matched through child c pairs its other children off along the
// cycle, recursively.
func (m *matcher) extract() {
	m.pairs, m.expand = m.pairs[:0], m.expand[:0]
	for r := int32(0); int(r) < m.nreg; r++ {
		rg := &m.regions[r]
		if rg.dead || rg.bparent != none || (rg.match != boundary && rg.match < r) {
			continue
		}
		m.emit(rg.medge)
		m.expand = append(m.expand, cycleEntry{r: r, e: rg.medge})
		if rg.match != boundary {
			m.expand = append(m.expand, cycleEntry{r: rg.match, e: rg.medge.rev()})
		}
	}
	for len(m.expand) > 0 {
		x := m.expand[len(m.expand)-1]
		m.expand = m.expand[:len(m.expand)-1]
		cyc := m.regions[x.r].cycle
		if len(cyc) == 0 {
			continue
		}
		k := len(cyc)
		i := m.childOf(x.r, x.e.a)
		m.expand = append(m.expand, cycleEntry{r: cyc[i].r, e: x.e})
		for j := 1; j < k; j += 2 {
			a, b := (i+j)%k, (i+j+1)%k
			e := cyc[a].e
			m.emit(e)
			m.expand = append(m.expand, cycleEntry{r: cyc[a].r, e: e}, cycleEntry{r: cyc[b].r, e: e.rev()})
		}
	}
}

func (m *matcher) emit(e cedge) {
	m.pairs = append(m.pairs, pair{a: e.a, b: e.b, w: e.w / 2, obs: e.obs})
}

// unmatchable reports a defect of the first tree left without a partner.
func (m *matcher) unmatchable() error {
	for r := int32(0); int(r) < m.nreg; r++ {
		rg := &m.regions[r]
		if rg.dead || rg.bparent != none || rg.tparent != none || rg.slope <= 0 {
			continue
		}
		for len(rg.cycle) > 0 {
			rg = &m.regions[rg.cycle[0].r]
		}
		return fmt.Errorf("decoder: defects unmatchable: no path pairs defect %d with another defect or the boundary", rg.source)
	}
	return fmt.Errorf("decoder: defects unmatchable")
}
