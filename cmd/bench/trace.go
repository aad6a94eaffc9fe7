package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. The benchmark records spans around
// its own calls into the program; the program itself is not instrumented.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for the op's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory. Spans may begin and
// end on several goroutines at once (the Monte-Carlo workers).
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its id. A nil recorder
// records nothing, so untraced code paths can share the traced ones.
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// add records a span whose bounds were measured elsewhere, such as the
// phases of a server job read from its record.
func (r *recorder) add(op, parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Op: op, ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
}

// around runs fn inside a span.
func (r *recorder) around(op, parent int, name string, fn func() error) error {
	id := r.begin(op, parent, name)
	defer r.end(id)
	return fn()
}

// opTimes is the attribution of one op's wall time to its spans.
type opTimes struct {
	wall float64            // root span duration, ns
	self map[string]float64 // span name -> self time, ns
}

// attribute splits every op's wall time among its spans. At each instant
// the time belongs to the deepest spans active then, split evenly among
// concurrent siblings (the Monte-Carlo workers), so a span's self time is
// its duration minus the part its children cover, and the self times of
// one op sum to the duration of its root span. Children are clipped to
// their parent's interval.
func attribute(spans []span) []opTimes {
	byOp := map[int][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]opTimes, 0, len(ops))
	for _, op := range ops {
		out = append(out, attributeOp(byOp[op]))
	}
	return out
}

func attributeOp(spans []span) opTimes {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	parent := make([]int, len(spans))
	depth := make([]int, len(spans))
	root := -1
	// Parents always begin before their children, so ids ascend down the tree.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].ID < spans[order[b]].ID })
	for _, i := range order {
		p, ok := idx[spans[i].Parent]
		if spans[i].Parent == 0 || !ok {
			parent[i] = -1
			if root < 0 {
				root = i
			}
			continue
		}
		parent[i] = p
		depth[i] = depth[p] + 1
		spans[i].Start = max(spans[i].Start, spans[p].Start)
		spans[i].End = max(min(spans[i].End, spans[p].End), spans[i].Start)
	}
	t := opTimes{self: map[string]float64{}}
	if root < 0 {
		return t
	}
	t.wall = float64(spans[root].End - spans[root].Start)

	type event struct {
		at   int64
		i    int
		open bool
	}
	var events []event
	for i, s := range spans {
		if s.End > s.Start && (i == root || parent[i] >= 0) {
			events = append(events, event{s.Start, i, true}, event{s.End, i, false})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].at < events[b].at })

	active := map[int]bool{}
	kids := make([]int, len(spans))
	weight := make([]float64, len(spans))
	var live []int
	for k := 0; k < len(events); {
		at := events[k].at
		for ; k < len(events) && events[k].at == at; k++ {
			if events[k].open {
				active[events[k].i] = true
			} else {
				delete(active, events[k].i)
			}
		}
		if k == len(events) || len(active) == 0 {
			continue
		}
		dt := float64(events[k].at - at)
		live = live[:0]
		for i := range active {
			live = append(live, i)
			kids[i] = 0
		}
		sort.Slice(live, func(a, b int) bool { return depth[live[a]] < depth[live[b]] })
		for _, i := range live {
			if p := parent[i]; p >= 0 {
				kids[p]++
			}
		}
		for _, i := range live {
			weight[i] = 1
			if p := parent[i]; p >= 0 {
				weight[i] = weight[p] / float64(kids[p])
			}
			if kids[i] == 0 {
				t.self[spans[i].Name] += weight[i] * dt
			}
		}
	}
	return t
}
