// Package frame implements a bit-parallel Pauli frame simulator: the fast
// Monte-Carlo sampling backend of the reproduction (stim's frame simulator
// role in the paper). Instead of simulating quantum states, it propagates
// random Pauli error frames through the Clifford circuit, 64 shots per
// machine word, and reports which detectors and logical observables flipped
// in each shot relative to the noiseless reference execution.
//
// The frame semantics are standard: deterministic gates conjugate the frame,
// resets clear it, measurements record the X component of the frame on the
// measured qubit (which is exactly the set of shots whose outcome differs
// from the reference). applyGate holds the forward rules:
//
//	op       forward
//	R q      x=z=0
//	M q → r  rec r = x; z=0
//	H        swap x, z
//	S        z ^= x
//	CX c,t   x_t ^= x_c; z_c ^= z_t
//	CZ a,b   z_a ^= x_b; z_b ^= x_a
//	X Y Z    none
//
// internal/dem extracts detector error models by walking the circuit
// backward with the transposes of these rules, so a change to one rule set
// must be mirrored in the other; a differential test in internal/dem
// checks the two against each other on random circuits.
package frame

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"surfstitch/internal/circuit"
)

// Batch holds the sampled detector and observable flips for a number of
// shots. Bit s of word w of a plane refers to shot w*64+s.
//
// Every plane of a batch, and the Pauli frame it was sampled through, is
// carved from one slab. Sampling into a batch that already holds a chunk
// (ChunkedSampler.SampleInto) reuses the slab when it is large enough and
// overwrites every plane, so a caller that keeps one batch per worker must
// be done with the previous chunk first. The zero Batch is ready to sample
// into.
type Batch struct {
	Shots       int
	Words       int
	DetFlips    [][]uint64 // [detector][word]
	ObsFlips    [][]uint64 // [observable][word]
	RecordFlips [][]uint64 // [measurement record][word]

	slab   []uint64   // the words of every plane
	planes [][]uint64 // frame x, frame z, records, detectors, observables
}

// ShotDetectors returns the indices of flipped detectors in one shot.
func (b *Batch) ShotDetectors(shot int) []int {
	return b.AppendShotDetectors(nil, shot)
}

// AppendShotDetectors appends the indices of flipped detectors in one shot
// to dst and returns the extended slice: the buffer-reusing variant of
// ShotDetectors for single-shot callers. Loops over many shots should use
// WordDetectors, which extracts 64 shots per pass.
func (b *Batch) AppendShotDetectors(dst []int, shot int) []int {
	return appendPlaneBitsAt(dst, b.DetFlips, shot)
}

// WordDetectors extracts the flipped detectors of the shots of word w that
// mask selects into a CSR: the detectors of shot w*64+i, in ascending
// order, are dets[off[i]:off[i+1]], and an unselected shot's list is
// empty. dets is reused when its capacity suffices and otherwise replaced
// by one with room to spare; the filled slice is returned. A count pass
// and a fill pass visit only the set bits of each detector's masked word,
// so a word with no flipped detector costs one load per detector.
func (b *Batch) WordDetectors(w int, mask uint64, off *[65]int, dets []int) []int {
	*off = [65]int{}
	var flipped uint64
	for _, plane := range b.DetFlips {
		x := plane[w] & mask
		flipped |= x
		for ; x != 0; x &= x - 1 {
			off[bits.TrailingZeros64(x)+1]++
		}
	}
	if flipped == 0 {
		return dets[:0]
	}
	var next [64]int
	for i := 0; i < 64; i++ {
		next[i] = off[i]
		off[i+1] += off[i]
	}
	// Twice the word's need leaves room for the words after it, so a
	// reused backing slice stops growing after a worker's first words.
	if n := off[64]; cap(dets) < n {
		dets = make([]int, n, 2*n)
	} else {
		dets = dets[:n]
	}
	for det, plane := range b.DetFlips {
		for x := plane[w] & mask; x != 0; x &= x - 1 {
			i := bits.TrailingZeros64(x)
			dets[next[i]] = det
			next[i]++
		}
	}
	return dets
}

// ShotObservables returns the indices of flipped observables in one shot.
func (b *Batch) ShotObservables(shot int) []int {
	return appendPlaneBitsAt(nil, b.ObsFlips, shot)
}

// ObservableMask returns one shot's flipped observables as a bitmask
// (observable i sets bit i) without allocating — the representation decoder
// predictions are compared against. Observables past index 63 are not
// representable; the detector-error-model pipeline caps observables at 64.
func (b *Batch) ObservableMask(shot int) uint64 {
	w, bit := shot/64, uint(shot%64)
	var mask uint64
	for i, plane := range b.ObsFlips {
		if plane[w]&(1<<bit) != 0 {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

func appendPlaneBitsAt(dst []int, planes [][]uint64, shot int) []int {
	w, bit := shot/64, uint(shot%64)
	for i, plane := range planes {
		if plane[w]&(1<<bit) != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// CountFlips returns, for each plane in planes, the number of shots flipped.
func CountFlips(planes [][]uint64, shots int) []int {
	out := make([]int, len(planes))
	for i, plane := range planes {
		out[i] = popCountPlane(plane, shots)
	}
	return out
}

func popCountPlane(plane []uint64, shots int) int {
	total := 0
	full := shots / 64
	for w := 0; w < full; w++ {
		total += bits.OnesCount64(plane[w])
	}
	if rem := shots % 64; rem > 0 {
		total += bits.OnesCount64(plane[full] & (1<<uint(rem) - 1))
	}
	return total
}

// Sampler samples batches from a fixed noisy circuit.
type Sampler struct {
	c       *circuit.Circuit
	records int
	rng     *rand.Rand
}

// NewSampler prepares a sampler for the circuit. The circuit should contain
// noise channels; a noiseless circuit samples all-zero flips. The RNG must
// be non-nil: silently substituting a fixed seed (the old behavior) made
// "forgot to seed" indistinguishable from a deliberate fixed-seed run.
func NewSampler(c *circuit.Circuit, rng *rand.Rand) (*Sampler, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	if rng == nil {
		return nil, fmt.Errorf("frame: NewSampler requires a non-nil RNG (use rand.New(rand.NewSource(seed)))")
	}
	return &Sampler{c: c, records: c.NumMeasurements(), rng: rng}, nil
}

// Sample runs the requested number of shots and returns the flip planes in
// a fresh batch.
func (s *Sampler) Sample(shots int) *Batch {
	b := &Batch{}
	sample(s.c, s.records, s.rng, shots, b)
	return b
}

// ChunkedSampler is the sharded sampling entry point used by the Monte-Carlo
// engine: the circuit is validated once, then each chunk samples with its
// own caller-provided RNG stream. The circuit is only read during sampling,
// so one ChunkedSampler serves any number of workers concurrently as long
// as each call gets a private RNG and batch.
type ChunkedSampler struct {
	c       *circuit.Circuit
	records int
}

// NewChunkedSampler validates the circuit and prepares it for concurrent
// chunked sampling.
func NewChunkedSampler(c *circuit.Circuit) (*ChunkedSampler, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	return &ChunkedSampler{c: c, records: c.NumMeasurements()}, nil
}

// SampleChunk runs one chunk of shots drawing from the given RNG stream
// and returns it in a fresh batch.
func (cs *ChunkedSampler) SampleChunk(rng *rand.Rand, shots int) *Batch {
	b := &Batch{}
	cs.SampleInto(b, rng, shots)
	return b
}

// SampleInto runs one chunk of shots drawing from the given RNG stream
// into b, overwriting whatever b held. Once b has held a chunk at least
// this large, sampling into it allocates nothing. The result is
// bit-identical to SampleChunk's for the same stream.
func (cs *ChunkedSampler) SampleInto(b *Batch, rng *rand.Rand, shots int) {
	if rng == nil {
		//surflint:ignore paniccheck the mc hot loop calls this per chunk; RNG validity is established once by NewSampler/ChunkedSampler, so this is an invariant assertion, not input validation
		panic("frame: SampleChunk requires a non-nil RNG")
	}
	sample(cs.c, cs.records, rng, shots, b)
}

// sample runs shots of c, whose measurements write records bits, into b.
func sample(c *circuit.Circuit, records int, rng *rand.Rand, shots int, b *Batch) {
	if shots <= 0 {
		panic("frame: shots must be positive")
	}
	x, z := b.carve(c.NumQubits, records, len(c.Detectors), len(c.Observables), shots)
	st := state{x: x, z: z, records: b.RecordFlips, shots: shots, rng: rng}
	for _, m := range c.Moments {
		for _, g := range m.Gates {
			st.applyGate(g)
		}
		for _, nz := range m.Noise {
			st.applyNoise(nz)
		}
	}
	combine(b.DetFlips, c.Detectors, b.RecordFlips)
	combine(b.ObsFlips, c.Observables, b.RecordFlips)
}

// carve lays out zeroed planes for shots of a circuit on b's slab, growing
// the slab and the plane headers only when they are too small, and returns
// the Pauli frame's planes.
func (b *Batch) carve(qubits, records, dets, obs, shots int) (x, z [][]uint64) {
	words := (shots + 63) / 64
	n := 2*qubits + records + dets + obs
	if cap(b.slab) < n*words {
		b.slab = make([]uint64, n*words)
	} else {
		b.slab = b.slab[:n*words]
		clear(b.slab)
	}
	if cap(b.planes) < n {
		b.planes = make([][]uint64, n)
	}
	b.planes = b.planes[:n]
	for i := range b.planes {
		b.planes[i] = b.slab[i*words : (i+1)*words : (i+1)*words]
	}
	q, r, d := qubits, 2*qubits+records, 2*qubits+records+dets
	b.RecordFlips, b.DetFlips, b.ObsFlips = b.planes[2*q:r:r], b.planes[r:d:d], b.planes[d:n:n]
	b.Shots, b.Words = shots, words
	return b.planes[:q:q], b.planes[q : 2*q : 2*q]
}

// combine XORs record flip planes into zeroed parity planes, one per set
// of record indices (a detector or observable definition).
func combine(out [][]uint64, sets [][]int, records [][]uint64) {
	for i, set := range sets {
		for _, r := range set {
			xorInto(out[i], records[r])
		}
	}
}

// state is one chunk's sampling pass over planes carved from the batch
// being sampled: the Pauli frame, and the record planes, of which the
// first measured are filled.
type state struct {
	x, z     [][]uint64
	shots    int
	rng      *rand.Rand
	records  [][]uint64
	measured int
}

func (st *state) applyGate(g circuit.Instruction) {
	switch g.Op {
	case circuit.OpH:
		for _, q := range g.Qubits {
			st.x[q], st.z[q] = st.z[q], st.x[q]
		}
	case circuit.OpS:
		for _, q := range g.Qubits {
			xorInto(st.z[q], st.x[q])
		}
	case circuit.OpCX:
		for i := 0; i < len(g.Qubits); i += 2 {
			c, t := g.Qubits[i], g.Qubits[i+1]
			xorInto(st.x[t], st.x[c])
			xorInto(st.z[c], st.z[t])
		}
	case circuit.OpCZ:
		for i := 0; i < len(g.Qubits); i += 2 {
			a, b := g.Qubits[i], g.Qubits[i+1]
			xorInto(st.z[a], st.x[b])
			xorInto(st.z[b], st.x[a])
		}
	case circuit.OpX, circuit.OpY, circuit.OpZ:
		// Deterministic Paulis are part of the reference; frames commute
		// through them up to irrelevant signs.
	case circuit.OpR:
		for _, q := range g.Qubits {
			zero(st.x[q])
			zero(st.z[q])
		}
	case circuit.OpM:
		for _, q := range g.Qubits {
			copy(st.records[st.measured], st.x[q])
			st.measured++
			// The Z component on a measured qubit is unphysical afterwards;
			// clearing it keeps later H/CX propagation from resurrecting it.
			zero(st.z[q])
		}
	default:
		panic(fmt.Sprintf("frame: cannot execute op %v", g.Op))
	}
}

func (st *state) applyNoise(nz circuit.Instruction) {
	// One instruction's targets share p, so log(1-p) is taken once for all
	// of them.
	p, logq := nz.Arg, math.Log1p(-nz.Arg)
	switch nz.Op {
	case circuit.OpXError:
		for _, q := range nz.Qubits {
			st.forEachEventBit(p, logq, func(w int, mask uint64) {
				st.x[q][w] ^= mask
			})
		}
	case circuit.OpZError:
		for _, q := range nz.Qubits {
			st.forEachEventBit(p, logq, func(w int, mask uint64) {
				st.z[q][w] ^= mask
			})
		}
	case circuit.OpDepolarize1:
		for _, q := range nz.Qubits {
			st.forEachEventBit(p, logq, func(w int, mask uint64) {
				switch st.rng.Intn(3) {
				case 0:
					st.x[q][w] ^= mask
				case 1:
					st.z[q][w] ^= mask
				default:
					st.x[q][w] ^= mask
					st.z[q][w] ^= mask
				}
			})
		}
	case circuit.OpDepolarize2:
		for i := 0; i < len(nz.Qubits); i += 2 {
			a, b := nz.Qubits[i], nz.Qubits[i+1]
			st.forEachEventBit(p, logq, func(w int, mask uint64) {
				pauli := st.rng.Intn(15) + 1 // 1..15: (xa, za, xb, zb) bits
				if pauli&1 != 0 {
					st.x[a][w] ^= mask
				}
				if pauli&2 != 0 {
					st.z[a][w] ^= mask
				}
				if pauli&4 != 0 {
					st.x[b][w] ^= mask
				}
				if pauli&8 != 0 {
					st.z[b][w] ^= mask
				}
			})
		}
	default:
		panic(fmt.Sprintf("frame: unknown noise op %v", nz.Op))
	}
}

// forEachEventBit visits each shot selected by an independent Bernoulli(p)
// draw, using geometric skipping so the cost is proportional to the number
// of error events rather than the number of shots. logq is log(1-p).
func (st *state) forEachEventBit(p, logq float64, f func(w int, mask uint64)) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		for s := 0; s < st.shots; s++ {
			f(s/64, 1<<uint(s%64))
		}
		return
	}
	s := 0
	for {
		u := st.rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		s += int(math.Log(u) / logq)
		if s >= st.shots {
			return
		}
		f(s/64, 1<<uint(s%64))
		s++
	}
}

func xorInto(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
	}
}

func zero(plane []uint64) {
	for w := range plane {
		plane[w] = 0
	}
}
