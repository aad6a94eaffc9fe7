// Package dem extracts a detector error model from a noisy Clifford circuit,
// playing the role of stim's analyze_errors pass in the paper's toolchain.
//
// Every noise channel in the circuit is decomposed into its elementary Pauli
// mechanisms (e.g. a two-qubit depolarizing channel contributes 15 equally
// likely mechanisms), one lane each. A lane's signature is the set of
// detectors and logical observables it flips. Mechanisms with identical
// signatures are merged by XOR-combining their probabilities, yielding the
// weighted error model the MWPM decoder is built from.
//
// Signatures come from one backward walk over the circuit, the method of
// stim's error analyzer (Gidney, "Stim: a fast stabilizer circuit
// simulator", Quantum 5, 497, 2021). Each qubit carries an X row and a Z
// row: the detectors and observables that an X (or Z) component on that
// qubit flips from the current time point on. Walking the moments from last
// to first, a moment's lanes read the rows first, because noise acts after
// the moment's gates: a lane's signature is the XOR of its components'
// rows. Then the gates are undone. Each backward rule is the transpose of a
// forward frame rule in internal/frame, where out(r) is the detectors and
// observables that list measurement record r:
//
//	op       forward (frame)          backward (dem)
//	R q      x=z=0                    sx=sz=0
//	M q → r  rec r = x; z=0           sx ^= out(r); sz=0
//	H        swap x, z                swap sx, sz
//	S        z ^= x                   sx ^= sz
//	CX c,t   x_t ^= x_c; z_c ^= z_t   sx_c ^= sx_t; sz_t ^= sz_c
//	CZ a,b   z_a ^= x_b; z_b ^= x_a   sx_b ^= sz_a; sx_a ^= sz_b
//	X Y Z    none                     none
//
// The two rule sets must change together; a differential test against the
// frame sampler on random circuits that use every gate keeps them in step.
// A row is zero outside a window of detector words, which each XOR trims,
// so a lane reads only the words its rows can hold.
//
// The same walk decides determinism (CheckDeterminism): a Z-basis reset or
// measurement, and the |0…0⟩ start, randomize every output still in the Z
// row of the qubit it acts on. The tableau simulator checks the same thing
// by randomized runs and stays as the independent cross-check.
package dem

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"surfstitch/internal/circuit"
)

// Mechanism is a group of physical errors with identical consequences: the
// set of detectors it flips, the logical observables it flips, and the
// probability that an odd number of its members occur.
type Mechanism struct {
	Detectors []int  // sorted detector indices
	Obs       uint64 // observable bitmask
	Prob      float64
}

// Model is the extracted detector error model.
type Model struct {
	NumDetectors   int
	NumObservables int
	Mechanisms     []Mechanism
}

// FromCircuit enumerates the circuit's noise mechanisms and groups them by
// signature. Mechanisms that flip nothing are dropped.
func FromCircuit(c *circuit.Circuit) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("dem: %w", err)
	}
	if len(c.Observables) > 64 {
		return nil, fmt.Errorf("dem: at most 64 observables supported, got %d", len(c.Observables))
	}
	lanes := 0
	for _, m := range c.Moments {
		for _, nz := range m.Noise {
			n, _, ok := lanesOf(nz)
			if !ok {
				return nil, fmt.Errorf("dem: unsupported noise op %v", nz.Op)
			}
			lanes += n
		}
	}
	model := &Model{NumDetectors: len(c.Detectors), NumObservables: len(c.Observables)}
	if lanes == 0 {
		return model, nil
	}

	// Walk the moments backward. Lane l is the l-th elementary Pauli in
	// circuit order. A moment's lanes read the rows before its gates are
	// undone, and each is grouped by signature at once.
	w := newWalker(c, c.Detectors, c.Observables)
	g := newGrouper(lanes)
	end := lanes
	for mi := len(c.Moments) - 1; mi >= 0; mi-- {
		noise := c.Moments[mi].Noise
		l := end
		for _, nz := range noise {
			n, _, _ := lanesOf(nz)
			l -= n
		}
		end = l
		for _, nz := range noise {
			n, p, _ := lanesOf(nz)
			if p == 0 {
				for i := l; i < l+n; i++ {
					g.group[i] = -1
				}
				l += n
				continue
			}
			switch nz.Op {
			case circuit.OpXError:
				for _, q := range nz.Qubits {
					g.add(l, &w.rows[2*q], &w.zero, &w.zero, &w.zero)
					l++
				}
			case circuit.OpZError:
				for _, q := range nz.Qubits {
					g.add(l, &w.rows[2*q+1], &w.zero, &w.zero, &w.zero)
					l++
				}
			case circuit.OpDepolarize1:
				for _, q := range nz.Qubits {
					x, z := &w.rows[2*q], &w.rows[2*q+1]
					g.add(l, x, &w.zero, &w.zero, &w.zero)   // X
					g.add(l+1, z, &w.zero, &w.zero, &w.zero) // Z
					g.add(l+2, x, z, &w.zero, &w.zero)       // Y
					l += 3
				}
			case circuit.OpDepolarize2:
				for i := 0; i < len(nz.Qubits); i += 2 {
					a, b := nz.Qubits[i], nz.Qubits[i+1]
					// Mask bits 0 and 1 put X and Z on a, bits 2 and 3 on b.
					on := [4]*row{&w.rows[2*a], &w.rows[2*a+1], &w.rows[2*b], &w.rows[2*b+1]}
					for mask := 1; mask < 16; mask++ {
						r := [4]*row{&w.zero, &w.zero, &w.zero, &w.zero}
						for k := range on {
							if mask&(1<<k) != 0 {
								r[k] = on[k]
							}
						}
						g.add(l, r[0], r[1], r[2], r[3])
						l++
					}
				}
			}
		}
		if err := w.undo(c.Moments[mi].Gates); err != nil {
			return nil, err
		}
	}

	// XOR-combine each group's probabilities in forward lane order: the
	// merged mechanism fires when an odd number of its members fire. Lane
	// order fixes the order of every float64 merge, and merging the first
	// member into 0 leaves its probability exact.
	prob := make([]float64, len(g.obs))
	l := 0
	for _, m := range c.Moments {
		for _, nz := range m.Noise {
			n, q, _ := lanesOf(nz)
			for _, i := range g.group[l : l+n] {
				if i >= 0 {
					p := prob[i]
					prob[i] = p + q - 2*p*q
				}
			}
			l += n
		}
	}
	model.Mechanisms = make([]Mechanism, len(g.obs))
	for i := range model.Mechanisms {
		model.Mechanisms[i] = Mechanism{Detectors: g.dets[g.detAt[i]:g.detAt[i+1]], Obs: g.obs[i], Prob: prob[i]}
	}
	model.Mechanisms = sortMechanisms(model.Mechanisms)
	return model, nil
}

// lanesOf returns how many lanes a noise instruction contributes, one per
// elementary Pauli mechanism, and the probability of each; ok is false for
// an op that is not a supported noise channel.
func lanesOf(nz circuit.Instruction) (n int, p float64, ok bool) {
	switch nz.Op {
	case circuit.OpXError, circuit.OpZError:
		return len(nz.Qubits), nz.Arg, true
	case circuit.OpDepolarize1:
		return 3 * len(nz.Qubits), nz.Arg / 3, true
	case circuit.OpDepolarize2:
		return 15 * len(nz.Qubits) / 2, nz.Arg / 15, true
	}
	return 0, 0, false
}

// grouper groups lanes by signature. group[l] is lane l's group, or -1 when
// the lane flips nothing or has probability 0. Group i's detectors are
// dets[detAt[i]:detAt[i+1]], stored once, its observables obs[i] and its
// signature's hash sum[i]. table is an open-addressed hash table of group
// ids, sized to a power of two at least twice the number of groups: a slot
// holds one plus a group id, or 0 when empty. A hash match is confirmed
// against the group's stored signature, so distinct signatures never merge.
type grouper struct {
	table []int32
	shift uint // 64 - log2(len(table))
	buf   []int
	group []int32
	dets  []int
	detAt []int
	obs   []uint64
	sum   []uint64
}

// newGrouper returns a grouper for lanes lanes with its table presized for
// one group per 32 lanes, about the ratio of a memory experiment.
func newGrouper(lanes int) grouper {
	g := grouper{group: make([]int32, lanes), detAt: []int{0}}
	g.resize(max(64, 1<<bits.Len(uint(lanes/16))))
	return g
}

// add groups lane l, whose signature XORs the rows r0..r3, reading them
// only over the union of their windows. The hash mixes each non-zero word
// of the signature with its index, then the observable mask, so it does not
// depend on the rows' windows.
func (g *grouper) add(l int, r0, r1, r2, r3 *row) {
	lo := min(r0.lo, r1.lo, r2.lo, r3.lo)
	hi := max(r0.hi, r1.hi, r2.hi, r3.hi)
	buf := g.buf[:0]
	var h uint64
	for w := lo; w < hi; w++ {
		word := r0.det[w] ^ r1.det[w] ^ r2.det[w] ^ r3.det[w]
		if word == 0 {
			continue
		}
		h = mix(h ^ uint64(w) ^ mix(word))
		for ; word != 0; word &= word - 1 {
			buf = append(buf, w*64+bits.TrailingZeros64(word))
		}
	}
	g.buf = buf
	obs := r0.obs ^ r1.obs ^ r2.obs ^ r3.obs
	if len(buf) == 0 && obs == 0 {
		g.group[l] = -1 // harmless error
		return
	}
	h = mix(h ^ obs)
	mask := len(g.table) - 1
	i := int(h >> g.shift)
	for ; g.table[i] != 0; i = (i + 1) & mask {
		id := g.table[i] - 1
		if g.sum[id] == h && g.obs[id] == obs && slices.Equal(g.dets[g.detAt[id]:g.detAt[id+1]], buf) {
			g.group[l] = id
			return
		}
	}
	id := int32(len(g.obs))
	g.table[i] = id + 1
	g.dets = append(g.dets, buf...)
	g.detAt = append(g.detAt, len(g.dets))
	g.obs = append(g.obs, obs)
	g.sum = append(g.sum, h)
	g.group[l] = id
	if 2*len(g.obs) > len(g.table) {
		g.resize(2 * len(g.table))
	}
}

// resize rehashes every group into a table of n slots, a power of two.
func (g *grouper) resize(n int) {
	g.table = make([]int32, n)
	g.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for id, h := range g.sum {
		i := int(h >> g.shift)
		for g.table[i] != 0 {
			i = (i + 1) & mask
		}
		g.table[i] = int32(id) + 1
	}
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sortMechanisms returns the mechanisms ordered by their
// fmt.Sprint(detectors, mask) text — "[3 17] 1" — the order models have
// always had. The order is load bearing: the decoder XOR-merges parallel
// edges in mechanism order, so any other order changes its float64
// weights. Each key is built once, with strconv. The sorted mechanisms'
// detector lists move into one array sized to the model.
func sortMechanisms(mechs []Mechanism) []Mechanism {
	var text []byte
	keyAt := make([]int, len(mechs)+1)
	total := 0
	for i, m := range mechs {
		text = append(text, '[')
		for j, d := range m.Detectors {
			if j > 0 {
				text = append(text, ' ')
			}
			text = strconv.AppendInt(text, int64(d), 10)
		}
		text = append(text, "] "...)
		text = strconv.AppendUint(text, m.Obs, 10)
		keyAt[i+1] = len(text)
		total += len(m.Detectors)
	}
	order := make([]int, len(mechs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return bytes.Compare(text[keyAt[i]:keyAt[i+1]], text[keyAt[j]:keyAt[j+1]]) < 0
	})
	sorted := make([]Mechanism, len(mechs))
	dets := make([]int, 0, total)
	for i, o := range order {
		m := mechs[o]
		lo := len(dets)
		dets = append(dets, m.Detectors...)
		m.Detectors = dets[lo:len(dets):len(dets)]
		sorted[i] = m
	}
	return sorted
}

// MaxDegree returns the largest number of detectors any mechanism flips —
// a diagnostic for how much hyperedge decomposition the decoder must do.
func (m *Model) MaxDegree() int {
	maxDeg := 0
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) > maxDeg {
			maxDeg = len(mech.Detectors)
		}
	}
	return maxDeg
}

// TotalErrorProbability returns the probability that at least one mechanism
// fires (assuming independence) — an upper-bound sanity statistic.
func (m *Model) TotalErrorProbability() float64 {
	pNone := 1.0
	for _, mech := range m.Mechanisms {
		pNone *= 1 - mech.Prob
	}
	return 1 - pNone
}
