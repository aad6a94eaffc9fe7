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
type Batch struct {
	Shots       int
	Words       int
	DetFlips    [][]uint64 // [detector][word]
	ObsFlips    [][]uint64 // [observable][word]
	RecordFlips [][]uint64 // [measurement record][word]
}

// ShotDetectors returns the indices of flipped detectors in one shot.
func (b *Batch) ShotDetectors(shot int) []int {
	return b.AppendShotDetectors(nil, shot)
}

// AppendShotDetectors appends the indices of flipped detectors in one shot
// to dst and returns the extended slice: the buffer-reusing variant of
// ShotDetectors for decode hot loops (pass a retained buffer as dst[:0] to
// avoid the per-shot allocation).
func (b *Batch) AppendShotDetectors(dst []int, shot int) []int {
	return appendPlaneBitsAt(dst, b.DetFlips, shot)
}

// AppendShotDetectorsRange appends the flipped detectors of one shot whose
// indices fall in [lo, hi): the round-slicing variant for streaming decode,
// where a memory experiment's detectors are contiguous per round. Returned
// indices stay global (they are not rebased to lo).
func (b *Batch) AppendShotDetectorsRange(dst []int, shot, lo, hi int) []int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(b.DetFlips) {
		hi = len(b.DetFlips)
	}
	w, bit := shot/64, uint(shot%64)
	for i := lo; i < hi; i++ {
		if b.DetFlips[i][w]&(1<<bit) != 0 {
			dst = append(dst, i)
		}
	}
	return dst
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
	c   *circuit.Circuit
	rng *rand.Rand
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
	return &Sampler{c: c, rng: rng}, nil
}

// Sample runs the requested number of shots and returns the flip planes.
func (s *Sampler) Sample(shots int) *Batch {
	return sample(s.c, s.rng, shots)
}

// ChunkedSampler is the sharded sampling entry point used by the Monte-Carlo
// engine: the circuit is validated once, then each chunk samples with its
// own caller-provided RNG stream. The circuit is only read during sampling,
// so one ChunkedSampler serves any number of workers concurrently as long
// as each call gets a private RNG.
type ChunkedSampler struct {
	c *circuit.Circuit
}

// NewChunkedSampler validates the circuit and prepares it for concurrent
// chunked sampling.
func NewChunkedSampler(c *circuit.Circuit) (*ChunkedSampler, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	return &ChunkedSampler{c: c}, nil
}

// SampleChunk runs one chunk of shots drawing from the given RNG stream.
func (cs *ChunkedSampler) SampleChunk(rng *rand.Rand, shots int) *Batch {
	if rng == nil {
		//surflint:ignore paniccheck the mc hot loop calls this per chunk; RNG validity is established once by NewSampler/ChunkedSampler, so this is an invariant assertion, not input validation
		panic("frame: SampleChunk requires a non-nil RNG")
	}
	return sample(cs.c, rng, shots)
}

func sample(c *circuit.Circuit, rng *rand.Rand, shots int) *Batch {
	if shots <= 0 {
		panic("frame: shots must be positive")
	}
	words := (shots + 63) / 64
	st := newState(c.NumQubits, words, shots, rng)
	for _, m := range c.Moments {
		for _, g := range m.Gates {
			st.applyGate(g)
		}
		for _, nz := range m.Noise {
			st.applyNoise(nz)
		}
	}
	batch := &Batch{Shots: shots, Words: words, RecordFlips: st.records}
	batch.DetFlips = Combine(c.Detectors, st.records, words)
	batch.ObsFlips = Combine(c.Observables, st.records, words)
	return batch
}

// Combine XORs record flip planes into per-set parity planes; each set lists
// record indices (a detector or observable definition).
func Combine(sets [][]int, records [][]uint64, words int) [][]uint64 {
	out := make([][]uint64, len(sets))
	for i, set := range sets {
		plane := make([]uint64, words)
		for _, r := range set {
			for w := 0; w < words; w++ {
				plane[w] ^= records[r][w]
			}
		}
		out[i] = plane
	}
	return out
}

type state struct {
	x, z    [][]uint64
	words   int
	shots   int
	rng     *rand.Rand
	records [][]uint64
}

func newState(numQubits, words, shots int, rng *rand.Rand) *state {
	x := make([][]uint64, numQubits)
	z := make([][]uint64, numQubits)
	for q := range x {
		x[q] = make([]uint64, words)
		z[q] = make([]uint64, words)
	}
	return &state{x: x, z: z, words: words, shots: shots, rng: rng}
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
			rec := make([]uint64, st.words)
			copy(rec, st.x[q])
			st.records = append(st.records, rec)
			// The Z component on a measured qubit is unphysical afterwards;
			// clearing it keeps later H/CX propagation from resurrecting it.
			zero(st.z[q])
		}
	default:
		panic(fmt.Sprintf("frame: cannot execute op %v", g.Op))
	}
}

func (st *state) applyNoise(nz circuit.Instruction) {
	switch nz.Op {
	case circuit.OpXError:
		for _, q := range nz.Qubits {
			st.forEachEventBit(nz.Arg, func(w int, mask uint64) {
				st.x[q][w] ^= mask
			})
		}
	case circuit.OpZError:
		for _, q := range nz.Qubits {
			st.forEachEventBit(nz.Arg, func(w int, mask uint64) {
				st.z[q][w] ^= mask
			})
		}
	case circuit.OpDepolarize1:
		for _, q := range nz.Qubits {
			st.forEachEventBit(nz.Arg, func(w int, mask uint64) {
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
			st.forEachEventBit(nz.Arg, func(w int, mask uint64) {
				p := st.rng.Intn(15) + 1 // 1..15: (xa, za, xb, zb) bits
				if p&1 != 0 {
					st.x[a][w] ^= mask
				}
				if p&2 != 0 {
					st.z[a][w] ^= mask
				}
				if p&4 != 0 {
					st.x[b][w] ^= mask
				}
				if p&8 != 0 {
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
// of error events rather than the number of shots.
func (st *state) forEachEventBit(p float64, f func(w int, mask uint64)) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		for s := 0; s < st.shots; s++ {
			f(s/64, 1<<uint(s%64))
		}
		return
	}
	logq := math.Log1p(-p)
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
