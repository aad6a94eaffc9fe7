// Package dem extracts a detector error model from a noisy Clifford circuit,
// playing the role of stim's analyze_errors pass in the paper's toolchain.
//
// Every noise channel in the circuit is decomposed into its elementary Pauli
// mechanisms (e.g. a two-qubit depolarizing channel contributes 15 equally
// likely mechanisms). Each mechanism is injected into its own lane of a
// deterministic Pauli frame propagation; the flipped detectors and logical
// observables of each lane form the mechanism's signature. Mechanisms with
// identical signatures are merged by XOR-combining their probabilities,
// yielding the weighted error model the MWPM decoder is built from.
package dem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"surfstitch/internal/circuit"
	"surfstitch/internal/frame"
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

	// First pass: one lane per elementary Pauli mechanism, in circuit
	// order, so lane l is injs[l] and moment mi's lanes end at ends[mi].
	var injs []injection
	ends := make([]int, len(c.Moments))
	for mi, m := range c.Moments {
		for _, nz := range m.Noise {
			switch nz.Op {
			case circuit.OpXError:
				for _, q := range nz.Qubits {
					injs = append(injs, injection{p: nz.Arg, nx: 1, x: [2]int{q}})
				}
			case circuit.OpZError:
				for _, q := range nz.Qubits {
					injs = append(injs, injection{p: nz.Arg, nz: 1, z: [2]int{q}})
				}
			case circuit.OpDepolarize1:
				for _, q := range nz.Qubits {
					p := nz.Arg / 3
					injs = append(injs,
						injection{p: p, nx: 1, x: [2]int{q}},                      // X
						injection{p: p, nz: 1, z: [2]int{q}},                      // Z
						injection{p: p, nx: 1, x: [2]int{q}, nz: 1, z: [2]int{q}}, // Y
					)
				}
			case circuit.OpDepolarize2:
				for i := 0; i < len(nz.Qubits); i += 2 {
					a, b := nz.Qubits[i], nz.Qubits[i+1]
					p := nz.Arg / 15
					for mask := 1; mask < 16; mask++ {
						inj := injection{p: p}
						inj.on(a, mask&1 != 0, mask&2 != 0)
						inj.on(b, mask&4 != 0, mask&8 != 0)
						injs = append(injs, inj)
					}
				}
			default:
				return nil, fmt.Errorf("dem: unsupported noise op %v", nz.Op)
			}
		}
		ends[mi] = len(injs)
	}

	model := &Model{NumDetectors: len(c.Detectors), NumObservables: len(c.Observables)}
	lanes := len(injs)
	if lanes == 0 {
		return model, nil
	}

	// Second pass: propagate all mechanisms in parallel.
	words := (lanes + 63) / 64
	prop := frame.NewPropagator(c.NumQubits, words)
	lane := 0
	for mi, m := range c.Moments {
		for _, g := range m.Gates {
			prop.ApplyGate(g)
		}
		for ; lane < ends[mi]; lane++ {
			inj := &injs[lane]
			for _, q := range inj.x[:inj.nx] {
				prop.InjectX(q, lane)
			}
			for _, q := range inj.z[:inj.nz] {
				prop.InjectZ(q, lane)
			}
		}
	}
	records := prop.Records()
	detPlanes := frame.Combine(c.Detectors, records, words)
	obsPlanes := frame.Combine(c.Observables, records, words)

	// Collect per-lane signatures. Every lane's detectors sit in one flat
	// array, lane l's at dets[start[l]:start[l+1]] in index order, laid out
	// after a counting pass.
	start := make([]int, lanes+1)
	for _, plane := range detPlanes {
		forEachLane(plane, lanes, func(l int) { start[l+1]++ })
	}
	for l := 0; l < lanes; l++ {
		start[l+1] += start[l]
	}
	dets := make([]int, start[lanes])
	next := append([]int(nil), start[:lanes]...)
	for d, plane := range detPlanes {
		forEachLane(plane, lanes, func(l int) {
			dets[next[l]] = d
			next[l]++
		})
	}
	obs := make([]uint64, lanes)
	for o, plane := range obsPlanes {
		forEachLane(plane, lanes, func(l int) { obs[l] |= 1 << uint(o) })
	}

	// Group by signature, XOR-combining probabilities: the merged mechanism
	// fires when an odd number of its members fire. The map key is the
	// signature's fixed-width encoding — 4 bytes per detector, then the
	// 8-byte observable mask — so distinct signatures never collide and a
	// lookup does not allocate.
	index := map[string]int{}
	var key []byte
	for l := 0; l < lanes; l++ {
		ds := dets[start[l]:start[l+1]:start[l+1]]
		if len(ds) == 0 && obs[l] == 0 {
			continue // harmless error
		}
		if injs[l].p == 0 {
			continue
		}
		key = key[:0]
		for _, d := range ds {
			key = binary.LittleEndian.AppendUint32(key, uint32(d))
		}
		key = binary.LittleEndian.AppendUint64(key, obs[l])
		if i, ok := index[string(key)]; ok {
			p, q := model.Mechanisms[i].Prob, injs[l].p
			model.Mechanisms[i].Prob = p + q - 2*p*q
			continue
		}
		index[string(key)] = len(model.Mechanisms)
		model.Mechanisms = append(model.Mechanisms, Mechanism{Detectors: ds, Obs: obs[l], Prob: injs[l].p})
	}
	model.Mechanisms = sortMechanisms(model.Mechanisms)
	return model, nil
}

// injection is one lane's Pauli: X components on x[:nx] and Z components
// on z[:nz], at most two qubits each.
type injection struct {
	p      float64
	nx, nz int
	x, z   [2]int
}

// on adds X and/or Z components on qubit q.
func (inj *injection) on(q int, x, z bool) {
	if x {
		inj.x[inj.nx] = q
		inj.nx++
	}
	if z {
		inj.z[inj.nz] = q
		inj.nz++
	}
}

// forEachLane calls f with every lane below lanes whose bit is set in the
// plane, in increasing order.
func forEachLane(plane []uint64, lanes int, f func(lane int)) {
	for w, word := range plane {
		for word != 0 {
			lane := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if lane < lanes {
				f(lane)
			}
		}
	}
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
