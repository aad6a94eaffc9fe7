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
package dem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
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

	// First pass: one lane per elementary Pauli mechanism, in circuit
	// order, so lane l is injs[l] and moment mi's lanes end at ends[mi].
	// A counting pass sizes injs.
	lanes := 0
	for _, m := range c.Moments {
		for _, nz := range m.Noise {
			switch nz.Op {
			case circuit.OpXError, circuit.OpZError:
				lanes += len(nz.Qubits)
			case circuit.OpDepolarize1:
				lanes += 3 * len(nz.Qubits)
			case circuit.OpDepolarize2:
				lanes += 15 * len(nz.Qubits) / 2
			default:
				return nil, fmt.Errorf("dem: unsupported noise op %v", nz.Op)
			}
		}
	}
	injs := make([]injection, 0, lanes)
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
			}
		}
		ends[mi] = len(injs)
	}

	model := &Model{NumDetectors: len(c.Detectors), NumObservables: len(c.Observables)}
	if lanes == 0 {
		return model, nil
	}

	// Record index: out(r), the outputs that list record r, is the
	// detectors recDets[recAt[r]:recAt[r+1]] and the observable mask
	// recObs[r]. A record a set lists twice is XORed in twice, so it
	// cancels as it does in the frame sampler's detector planes.
	records := c.NumMeasurements()
	recAt := make([]int, records+1)
	for _, set := range c.Detectors {
		for _, r := range set {
			recAt[r+1]++
		}
	}
	for r := 0; r < records; r++ {
		recAt[r+1] += recAt[r]
	}
	recDets := make([]int, recAt[records])
	next := append([]int(nil), recAt[:records]...)
	for d, set := range c.Detectors {
		for _, r := range set {
			recDets[next[r]] = d
			next[r]++
		}
	}
	recObs := make([]uint64, records)
	for o, set := range c.Observables {
		for _, r := range set {
			recObs[r] ^= 1 << uint(o)
		}
	}

	// Sensitivity rows, an X and a Z row per qubit: words-1 words of
	// detector bits, then one word of observable bits.
	words := (model.NumDetectors+63)/64 + 1
	obsWord := words - 1
	state := make([]uint64, 2*c.NumQubits*words)
	sx := make([][]uint64, c.NumQubits)
	sz := make([][]uint64, c.NumQubits)
	for q := range sx {
		lo := 2 * q * words
		sx[q] = state[lo : lo+words : lo+words]
		sz[q] = state[lo+words : lo+2*words : lo+2*words]
	}

	// Second pass: walk the moments backward. Lanes are visited in
	// reverse, so lane l's detectors land at dets[bound[l+1]:bound[l]].
	// dets holds two detectors a lane, the most a graphlike model flips,
	// before it must grow.
	dets := make([]int, 0, 2*lanes)
	bound := make([]int, lanes+1)
	obs := make([]uint64, lanes)
	zero := make([]uint64, words)
	rec := records
	for mi := len(c.Moments) - 1; mi >= 0; mi-- {
		first := 0
		if mi > 0 {
			first = ends[mi-1]
		}
		for l := ends[mi] - 1; l >= first; l-- {
			// The signature XORs at most four component rows; absent
			// components read the zero row.
			inj := &injs[l]
			rows := [4][]uint64{zero, zero, zero, zero}
			n := 0
			for _, q := range inj.x[:inj.nx] {
				rows[n] = sx[q]
				n++
			}
			for _, q := range inj.z[:inj.nz] {
				rows[n] = sz[q]
				n++
			}
			r0, r1, r2, r3 := rows[0][:words], rows[1][:words], rows[2][:words], rows[3][:words]
			for w := 0; w < obsWord; w++ {
				for word := r0[w] ^ r1[w] ^ r2[w] ^ r3[w]; word != 0; word &= word - 1 {
					dets = append(dets, w*64+bits.TrailingZeros64(word))
				}
			}
			obs[l] = r0[obsWord] ^ r1[obsWord] ^ r2[obsWord] ^ r3[obsWord]
			bound[l] = len(dets)
		}
		// The moment's gates act on disjoint qubits, so they are undone in
		// any order; reverse order numbers the measurement records.
		gates := c.Moments[mi].Gates
		for gi := len(gates) - 1; gi >= 0; gi-- {
			g := gates[gi]
			switch g.Op {
			case circuit.OpR:
				for _, q := range g.Qubits {
					clear(sx[q])
					clear(sz[q])
				}
			case circuit.OpM:
				for i := len(g.Qubits) - 1; i >= 0; i-- {
					q := g.Qubits[i]
					rec--
					for _, d := range recDets[recAt[rec]:recAt[rec+1]] {
						sx[q][d/64] ^= 1 << uint(d%64)
					}
					sx[q][obsWord] ^= recObs[rec]
					clear(sz[q])
				}
			case circuit.OpH:
				for _, q := range g.Qubits {
					sx[q], sz[q] = sz[q], sx[q]
				}
			case circuit.OpS:
				for _, q := range g.Qubits {
					xorInto(sx[q], sz[q])
				}
			case circuit.OpCX:
				for i := 0; i < len(g.Qubits); i += 2 {
					ctl, tgt := g.Qubits[i], g.Qubits[i+1]
					xorInto(sx[ctl], sx[tgt])
					xorInto(sz[tgt], sz[ctl])
				}
			case circuit.OpCZ:
				for i := 0; i < len(g.Qubits); i += 2 {
					a, b := g.Qubits[i], g.Qubits[i+1]
					xorInto(sx[b], sz[a])
					xorInto(sx[a], sz[b])
				}
			case circuit.OpX, circuit.OpY, circuit.OpZ:
				// Paulis commute with the frame up to signs.
			default:
				return nil, fmt.Errorf("dem: unsupported gate op %v", g.Op)
			}
		}
	}

	// Group by signature in forward lane order, XOR-combining
	// probabilities: the merged mechanism fires when an odd number of its
	// members fire. Lane order fixes the order of every float64 merge. The
	// map key is the signature's fixed-width encoding — 4 bytes per
	// detector, then the 8-byte observable mask — so distinct signatures
	// never collide and a lookup does not allocate.
	index := map[string]int{}
	var key []byte
	for l := 0; l < lanes; l++ {
		ds := dets[bound[l+1]:bound[l]:bound[l]]
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

func xorInto(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
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
