// Package tableau is the exact stabilizer simulator of the reproduction (the
// role stim plays in the paper): verification's independent check that
// detector and observable parities are deterministic, and the test oracle
// for reference outcomes and the Pauli frame sampler. Like stim's tableau
// simulator (Gidney, "Stim: a fast stabilizer circuit simulator", Quantum 5,
// 497, 2021) it keeps the inverse of the Clifford that prepared the state,
// so a gate or a deterministic measurement touches O(n/64) words instead of
// all 2n rows.
package tableau

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Simulator tracks the stabilizer state U|0...0> of n qubits through the
// inverse tableau T = U⁻¹, the map P -> U†PU. Row k holds T(X_k) and row n+k
// holds T(Z_k), as X and Z bit planes stored row-major in one flat slice
// each, with a sign bit per row. Z_q is deterministic iff T(Z_q) has no X
// bit, and its outcome is then T(Z_q)'s sign. Which measurements are random
// and every deterministic outcome are properties of the state, not of how it
// is stored, and a random outcome is one draw of the RNG, so the records
// equal those of an Aaronson–Gottesman (CHP) simulator bit for bit.
type Simulator struct {
	n     int
	words int      // words per row
	x, z  []uint64 // row i is x[i*words : (i+1)*words]
	r     []uint8  // sign bit per row (0 => +1, 1 => -1)
	rng   *rand.Rand
	k     []uint64 // a collapse's fan-out targets, reused
}

// New returns a simulator over n qubits in the |0...0> state. The RNG drives
// intrinsically random measurement outcomes; a nil RNG defaults to a fixed
// seed so noiseless runs are reproducible.
func New(n int, rng *rand.Rand) *Simulator {
	if n <= 0 {
		//surflint:ignore paniccheck qubit counts come from circuit.NumQubits, validated at circuit build time; this is an invariant assertion
		panic("tableau: need at least one qubit")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	words := (n + 63) / 64
	s := &Simulator{
		n: n, words: words,
		x: make([]uint64, 2*n*words), z: make([]uint64, 2*n*words),
		r:   make([]uint8, 2*n),
		rng: rng,
		k:   make([]uint64, words),
	}
	for q := 0; q < n; q++ {
		s.x[q*words+q/64] |= 1 << (q % 64)     // T(X_q) = X_q
		s.z[(n+q)*words+q/64] |= 1 << (q % 64) // T(Z_q) = Z_q
	}
	return s
}

// N returns the number of qubits.
func (s *Simulator) N() int { return s.n }

func (s *Simulator) check(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("tableau: qubit %d out of range [0,%d)", q, s.n))
	}
}

// pair checks the qubits of a two-qubit gate. Degenerate pairs are rejected
// by circuit.Validate before any simulation, so this guards the raw gate API
// against programmer error.
func (s *Simulator) pair(a, b int) {
	s.check(a)
	s.check(b)
	if a == b {
		panic(fmt.Sprintf("tableau: two-qubit gate on qubit %d twice", a))
	}
}

// H applies a Hadamard to qubit q: T(X_q) and T(Z_q) swap.
func (s *Simulator) H(q int) {
	s.check(q)
	a, b := q*s.words, (s.n+q)*s.words
	for w := 0; w < s.words; w++ {
		s.x[a+w], s.x[b+w] = s.x[b+w], s.x[a+w]
		s.z[a+w], s.z[b+w] = s.z[b+w], s.z[a+w]
	}
	s.r[q], s.r[s.n+q] = s.r[s.n+q], s.r[q]
}

// S applies the phase gate S to qubit q: T(X_q) <- -i·T(X_q)·T(Z_q).
func (s *Simulator) S(q int) {
	s.check(q)
	s.mul(q, s.n+q, -1)
}

// CX applies a CNOT with control a and target b: T(X_a) <- T(X_a)·T(X_b)
// and T(Z_b) <- T(Z_a)·T(Z_b).
func (s *Simulator) CX(a, b int) {
	s.pair(a, b)
	s.mul(a, b, 0)
	s.mul(s.n+b, s.n+a, 0)
}

// CZ applies a controlled-Z between a and b: T(X_a) <- T(X_a)·T(Z_b) and
// T(X_b) <- T(X_b)·T(Z_a).
func (s *Simulator) CZ(a, b int) {
	s.pair(a, b)
	s.mul(a, s.n+b, 0)
	s.mul(b, s.n+a, 0)
}

// X applies a Pauli X to qubit q, negating T(Z_q).
func (s *Simulator) X(q int) {
	s.check(q)
	s.r[s.n+q] ^= 1
}

// Z applies a Pauli Z to qubit q, negating T(X_q).
func (s *Simulator) Z(q int) {
	s.check(q)
	s.r[q] ^= 1
}

// Y applies a Pauli Y to qubit q, negating T(X_q) and T(Z_q).
func (s *Simulator) Y(q int) {
	s.check(q)
	s.r[q] ^= 1
	s.r[s.n+q] ^= 1
}

// phaseContribution returns the exponent of i (summed over the 64 qubits of
// a word, not reduced) picked up when the Pauli string (ax, az) is
// multiplied on the right by (bx, bz), Hermitian Paulis on both sides.
func phaseContribution(ax, az, bx, bz uint64) int {
	// Per-qubit g(x1,z1,x2,z2) from Aaronson-Gottesman, vectorized:
	// Case (1,0) X: g = +1 if (x2,z2)=(1,1) (Y), -1 if (0,1) (Z)
	// Case (1,1) Y: g = +1 if (0,1) (Z),  -1 if (1,0) (X)
	// Case (0,1) Z: g = +1 if (1,0) (X),  -1 if (1,1) (Y)
	xOnly1 := ax &^ az
	y1 := ax & az
	zOnly1 := az &^ ax
	xOnly2 := bx &^ bz
	y2 := bx & bz
	zOnly2 := bz &^ bx
	plus := bits.OnesCount64(xOnly1&y2) + bits.OnesCount64(y1&zOnly2) + bits.OnesCount64(zOnly1&xOnly2)
	minus := bits.OnesCount64(xOnly1&zOnly2) + bits.OnesCount64(y1&xOnly2) + bits.OnesCount64(zOnly1&y2)
	return plus - minus
}

// mul sets row dst to i^e·dst·src. The product is Hermitian for every
// product a gate takes, so its phase exponent is even.
func (s *Simulator) mul(dst, src, e int) {
	d, o := dst*s.words, src*s.words
	dx, dz := s.x[d:d+s.words], s.z[d:d+s.words]
	sx, sz := s.x[o:o+len(dx)], s.z[o:o+len(dx)]
	e += 2 * int(s.r[dst]^s.r[src])
	for w := range dx {
		e += phaseContribution(dx[w], dz[w], sx[w], sz[w])
		dx[w] ^= sx[w]
		dz[w] ^= sz[w]
	}
	if e&1 != 0 {
		panic("tableau: odd phase exponent in a row product; tableau corrupted")
	}
	s.r[dst] = uint8(e>>1) & 1
}

// Measure performs a Z-basis measurement on qubit q. It returns the outcome
// bit and whether the outcome was intrinsically random (a coin flip) rather
// than determined by the state.
//
// A random measurement rewrites U as U·V for a V that fixes |0...0>, which
// leaves the state alone: the CNOTs from T(Z_q)'s lowest X bit p to its
// other X bits, then S on p if T(Z_q) holds Y there. T(Z_q) then
// anticommutes with Z_p alone of |0...0>'s stabilizers, so appending H on p
// projects the state onto T(Z_q)'s sign, and X on p sets that sign to the
// drawn outcome.
func (s *Simulator) Measure(q int) (outcome int, random bool) {
	s.check(q)
	zq := s.n + q
	p := s.pivot(zq)
	if p < 0 {
		return int(s.r[zq]), false
	}
	s.fanCX(zq, p)
	y := s.z[zq*s.words+p/64]&(1<<(p%64)) != 0
	b := uint8(s.rng.Intn(2))
	// S's Y -> -X negates T(Z_q) once; H keeps its sign.
	s.project(p, y, (s.r[zq] != b) != y)
	return int(b), true
}

// pivot returns the lowest qubit on which row i has an X bit, or -1.
func (s *Simulator) pivot(i int) int {
	for w, v := range s.x[i*s.words : (i+1)*s.words] {
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// fanCX conjugates every row by the CNOTs from p to each other qubit of K,
// the X bits of row zq, in one pass: the CNOTs share their control, so they
// commute. With m = |z_K|, a row with x_p set gets x_K ^= K and its sign
// flips by |z_K & ¬(x_K ⊕ z_p)| + ⌊m/2⌋ mod 2; every row gets z_p ^= m mod 2.
func (s *Simulator) fanCX(zq, p int) {
	wp, mp := p/64, uint64(1)<<(p%64)
	copy(s.k, s.x[zq*s.words:(zq+1)*s.words])
	s.k[wp] &^= mp
	hi := s.words // bits of K lie in words [wp, hi)
	for hi > wp && s.k[hi-1] == 0 {
		hi--
	}
	if hi == wp {
		return
	}
	k := s.k[wp:hi]
	for i, base := 0, 0; i < len(s.r); i, base = i+1, base+s.words {
		x, z := s.x[base+wp:base+hi], s.z[base+wp:base+hi]
		m, flips := 0, 0
		if s.x[base+wp]&mp == 0 {
			for w := range k {
				m += bits.OnesCount64(z[w] & k[w])
			}
		} else {
			var zp uint64
			if s.z[base+wp]&mp != 0 {
				zp = ^uint64(0)
			}
			for w := range k {
				zk := z[w] & k[w]
				m += bits.OnesCount64(zk)
				flips += bits.OnesCount64(zk &^ (x[w] ^ zp))
				x[w] ^= k[w]
			}
			s.r[i] ^= uint8(flips+m>>1) & 1
		}
		if m&1 != 0 {
			s.z[base+wp] ^= mp
		}
	}
}

// project conjugates every row by S on p when y, then by H on p, then by X
// on p when flip: the rules of CHP's S, H and X gate loops, in one pass.
func (s *Simulator) project(p int, y, flip bool) {
	m := uint64(1) << (p % 64)
	for i, w := 0, p/64; i < len(s.r); i, w = i+1, w+s.words {
		xb, zb := s.x[w]&m, s.z[w]&m
		if y && xb != 0 { // S: X -> Y, Y -> -X
			s.r[i] ^= uint8(zb >> (p % 64))
			zb ^= xb
		}
		if xb&zb != 0 { // H: X <-> Z, Y -> -Y
			s.r[i] ^= 1
		}
		xb, zb = zb, xb
		if flip && zb != 0 { // X: Z -> -Z, Y -> -Y
			s.r[i] ^= 1
		}
		s.x[w] ^= (s.x[w] & m) ^ xb
		s.z[w] ^= (s.z[w] & m) ^ zb
	}
}

// MeasureReset measures qubit q in the Z basis and resets it to |0>.
func (s *Simulator) MeasureReset(q int) (outcome int, random bool) {
	outcome, random = s.Measure(q)
	if outcome == 1 {
		s.X(q)
	}
	return outcome, random
}

// Reset forces qubit q to |0>, discarding its state.
func (s *Simulator) Reset(q int) {
	if out, _ := s.Measure(q); out == 1 {
		s.X(q)
	}
}

// ExpectationZ returns +1, -1 or 0 for the expectation of Z on qubit q
// (0 means the outcome would be random). The state is not modified.
func (s *Simulator) ExpectationZ(q int) int {
	s.check(q)
	if s.pivot(s.n+q) >= 0 {
		return 0
	}
	return 1 - 2*int(s.r[s.n+q])
}
