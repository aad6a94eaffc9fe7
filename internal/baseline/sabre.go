package baseline

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"surfstitch/internal/circuit"
	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/synth"
	"surfstitch/internal/tableau"
)

// SabreRouted models the revised-SABRE routing baseline of Figure 11(a):
// each stabilizer is measured with a single syndrome ancilla that is routed
// to every data qubit with SWAP gates (3 CNOTs each) instead of a bridge
// tree. Data qubits never move (the paper's revision of SABRE), and the
// CNOT ordering respects the zig-zag constraint by measuring the X- and
// Z-sets sequentially.
type SabreRouted struct {
	Synth *synth.Synthesis
	// CNOTCount is the total two-qubit gate count of one error-detection
	// cycle (the Figure 11(a) metric).
	CNOTCount int
	// circuitFn rebuilds the memory circuit for a round count.
	rounds map[int]*circuit.Circuit
}

// NewSabreRouted builds the routing baseline on top of a Surf-Stitch layout
// (data allocation and scheduling held fixed, per §5.4: "keeping other
// optimization steps fixed").
func NewSabreRouted(dev *device.Device, distance int) (*SabreRouted, error) {
	s, err := synth.Synthesize(context.Background(), dev, distance, synth.Options{})
	if err != nil {
		return nil, err
	}
	sr := &SabreRouted{Synth: s, rounds: map[int]*circuit.Circuit{}}
	for si := range s.Plans {
		sr.CNOTCount += sr.stabilizerCNOTs(si)
	}
	return sr, nil
}

// walkOrder returns the ancilla's walk for stabilizer si: starting at the
// bridge-tree root, the ancilla SWAP-walks along tree edges, performing its
// data CNOT whenever it reaches the tree node adjacent to a data qubit
// (depth-first traversal, so the walk length is at most twice the tree's
// bridge edges).
func (sr *SabreRouted) walkOrder(si int) (start int, steps [][2]int, dataAt map[int][]int) {
	layout := sr.Synth.Layout
	tree := sr.Synth.Trees[si]
	isData := func(n int) bool { return layout.IsData[n] }
	// dataAt[bridge] = data qubits coupled at that bridge node.
	dataAt = map[int][]int{}
	for _, n := range tree.Nodes() {
		if isData(n) {
			parent := tree.Parent(n)
			dataAt[parent] = append(dataAt[parent], n)
		}
	}
	for _, l := range dataAt {
		sort.Ints(l)
	}
	// Depth-first walk over bridge nodes.
	var walk func(u, parent int)
	start = tree.Root
	prev := tree.Root
	walk = func(u, parent int) {
		if u != prev {
			steps = append(steps, [2]int{prev, u})
			prev = u
		}
		for _, v := range tree.Children(u) {
			if isData(v) {
				continue
			}
			walk(v, u)
			steps = append(steps, [2]int{prev, u})
			prev = u
		}
	}
	walk(tree.Root, -1)
	return start, steps, dataAt
}

// stabilizerCNOTs counts the two-qubit gates of one routed measurement:
// 4 data CNOTs (or 2 for weight-2) plus 3 per SWAP step of the walk.
func (sr *SabreRouted) stabilizerCNOTs(si int) int {
	_, steps, dataAt := sr.walkOrder(si)
	n := 0
	for _, l := range dataAt {
		n += len(l)
	}
	return n + 3*len(steps)
}

// MemoryCircuit assembles a Z-basis memory experiment with routed
// stabilizer measurements, one stabilizer type at a time, each stabilizer
// measured sequentially within its set (SWAP walks on shared qubits cannot
// overlap).
func (sr *SabreRouted) MemoryCircuit(roundCount int) (*circuit.Circuit, error) {
	if c, ok := sr.rounds[roundCount]; ok {
		return c, nil
	}
	if roundCount < 1 {
		return nil, fmt.Errorf("baseline: need at least one round")
	}
	layout := sr.Synth.Layout
	b := circuit.NewBuilder(layout.Dev.Len())
	data := append([]int(nil), layout.DataQubit...)
	b.Begin().R(data...)

	stabs := layout.Code.Stabilizers()
	var order []int // Z stabilizers then X stabilizers
	for si, st := range stabs {
		if st.Type == code.StabZ {
			order = append(order, si)
		}
	}
	for si, st := range stabs {
		if st.Type == code.StabX {
			order = append(order, si)
		}
		_ = st
	}

	syndrome := make([][]int, len(stabs))
	for r := 0; r < roundCount; r++ {
		for _, si := range order {
			rec := sr.appendRouted(b, si)
			syndrome[si] = append(syndrome[si], rec)
		}
		for _, si := range order {
			if stabs[si].Type != code.StabZ {
				continue
			}
			recs := syndrome[si]
			if r == 0 {
				b.Detector(recs[0])
			} else {
				b.Detector(recs[r-1], recs[r])
			}
		}
	}
	b.Begin()
	finalRecs := b.M(data...)
	recOf := map[int]int{}
	for i := range data {
		recOf[i] = finalRecs[i]
	}
	for _, si := range order {
		if stabs[si].Type != code.StabZ {
			continue
		}
		set := []int{syndrome[si][roundCount-1]}
		for _, dq := range stabs[si].Data {
			set = append(set, recOf[dq])
		}
		b.Detector(set...)
	}
	var obs []int
	for _, dq := range layout.Code.LogicalZ().Support() {
		obs = append(obs, recOf[dq])
	}
	b.Observable(obs...)
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	if _, _, err := tableau.Reference(c, 3); err != nil {
		return nil, fmt.Errorf("baseline: routed memory not deterministic: %w", err)
	}
	sr.rounds[roundCount] = c
	return c, nil
}

// appendRouted emits one routed stabilizer measurement and returns the
// syndrome record index.
func (sr *SabreRouted) appendRouted(b *circuit.Builder, si int) int {
	layout := sr.Synth.Layout
	st := layout.Code.Stabilizers()[si]
	start, steps, dataAt := sr.walkOrder(si)
	isX := st.Type == code.StabX

	b.Begin().R(start)
	if isX {
		b.Begin().H(start)
	}
	pos := start
	couple := func(at int) {
		for _, dq := range dataAt[at] {
			if isX {
				b.Begin().CX(pos, dq)
			} else {
				b.Begin().CX(dq, pos)
			}
		}
	}
	couple(start)
	for _, step := range steps {
		// SWAP the ancilla from step[0] to step[1]: three CNOTs.
		b.Begin().CX(step[0], step[1])
		b.Begin().CX(step[1], step[0])
		b.Begin().CX(step[0], step[1])
		pos = step[1]
		couple(pos)
	}
	if isX {
		b.Begin().H(pos)
	}
	b.Begin()
	return b.M(pos)[0]
}

// IdleQubits returns the qubits the routed circuits touch.
func (sr *SabreRouted) IdleQubits() []int { return sr.Synth.AllQubits() }

// AllocationResult summarizes one allocator's §5.4 validity study.
type AllocationResult struct {
	Name   string
	Trials int
	Valid  int
}

// RandomAllocator samples data layouts uniformly (the paper's random
// sampling baseline) and counts how many admit a full set of bridge trees.
func RandomAllocator(dev *device.Device, distance, trials int, seed int64) (AllocationResult, error) {
	c, err := code.NewRotated(distance)
	if err != nil {
		return AllocationResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := AllocationResult{Name: "random-sampling", Trials: trials}
	for t := 0; t < trials; t++ {
		perm := rng.Perm(dev.Len())
		mapping := perm[:c.NumData()]
		if layoutValid(dev, c, mapping) {
			res.Valid++
		}
	}
	return res, nil
}

// SabreLayoutAllocator mimics SABRE-style layouts: a BFS front from a random
// seed qubit assigns data qubits to a connected region (densest packing,
// ignoring the surface code's bridge requirements).
func SabreLayoutAllocator(dev *device.Device, distance, trials int, seed int64) (AllocationResult, error) {
	c, err := code.NewRotated(distance)
	if err != nil {
		return AllocationResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := AllocationResult{Name: "sabre-layout", Trials: trials}
	for t := 0; t < trials; t++ {
		start := rng.Intn(dev.Len())
		dist := dev.Graph().BFSDistances(start, nil)
		order := make([]int, dev.Len())
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, bq int) bool {
			da, db := dist[order[a]], dist[order[bq]]
			if da == -1 {
				da = 1 << 20
			}
			if db == -1 {
				db = 1 << 20
			}
			return da < db
		})
		if layoutValid(dev, c, order[:c.NumData()]) {
			res.Valid++
		}
	}
	return res, nil
}

// NoiseAdaptiveAllocator mimics noise-adaptive layouts: data qubits go to
// the highest-degree (best-connected) qubits first, randomly tie-broken.
func NoiseAdaptiveAllocator(dev *device.Device, distance, trials int, seed int64) (AllocationResult, error) {
	c, err := code.NewRotated(distance)
	if err != nil {
		return AllocationResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := AllocationResult{Name: "noise-adaptive", Trials: trials}
	for t := 0; t < trials; t++ {
		order := rng.Perm(dev.Len())
		sort.SliceStable(order, func(a, bq int) bool {
			return dev.Degree(order[a]) > dev.Degree(order[bq])
		})
		if layoutValid(dev, c, order[:c.NumData()]) {
			res.Valid++
		}
	}
	return res, nil
}

// SurfStitchAllocator runs the paper's allocator once per trial (it is
// deterministic, so validity is all-or-nothing). Allocate returns only
// layouts in which every stabilizer admits a bridge tree.
func SurfStitchAllocator(dev *device.Device, distance, trials int) AllocationResult {
	res := AllocationResult{Name: "surf-stitch", Trials: trials}
	if _, err := synth.Allocate(context.Background(), dev, distance, synth.ModeDefault); err == nil {
		res.Valid = trials
	}
	return res
}

// layoutValid reports whether the mapping admits bridge trees for every
// stabilizer. A cheap diameter pre-check rejects hopeless layouts before
// the tree search runs.
func layoutValid(dev *device.Device, c *code.Code, mapping []int) bool {
	for _, s := range c.Stabilizers() {
		for i := 0; i < len(s.Data); i++ {
			for j := i + 1; j < len(s.Data); j++ {
				a, bq := dev.Coord(mapping[s.Data[i]]), dev.Coord(mapping[s.Data[j]])
				if a.Manhattan(bq) > 6 {
					return false
				}
			}
		}
	}
	layout, err := synth.LayoutFromMapping(dev, c, mapping)
	if err != nil {
		return false
	}
	_, err = synth.FindAllTrees(layout)
	return err == nil
}
