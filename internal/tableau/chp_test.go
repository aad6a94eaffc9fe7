package tableau

import (
	"fmt"
	"math/rand"
)

// chp is the Aaronson–Gottesman (CHP) stabilizer simulator with
// destabilizers, kept as the reference the inverse-tableau Simulator is held
// to. Rows 0..n-1 are destabilizers, rows n..2n-1 are stabilizers, stored as
// X/Z bit planes with a sign bit per row. The initial state is |0...0>.
// Every gate loops over all 2n rows, and a deterministic measurement
// multiplies stabilizer rows together.
type chp struct {
	n     int
	words int
	x     [][]uint64 // x[row][word]
	z     [][]uint64
	r     []uint8 // sign bit per row (0 => +1, 1 => -1)
	rng   *rand.Rand

	scratchX, scratchZ []uint64
}

// newCHP returns a reference simulator over n qubits in the |0...0> state;
// a nil RNG defaults to the same fixed seed as New.
func newCHP(n int, rng *rand.Rand) *chp {
	if n <= 0 {
		panic("chp: need at least one qubit")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	words := (n + 63) / 64
	s := &chp{
		n: n, words: words,
		x: make([][]uint64, 2*n), z: make([][]uint64, 2*n),
		r:        make([]uint8, 2*n),
		rng:      rng,
		scratchX: make([]uint64, words), scratchZ: make([]uint64, words),
	}
	for i := range s.x {
		s.x[i] = make([]uint64, words)
		s.z[i] = make([]uint64, words)
	}
	for q := 0; q < n; q++ {
		s.setBit(s.x[q], q)   // destabilizer X_q
		s.setBit(s.z[q+n], q) // stabilizer Z_q
	}
	return s
}

func (s *chp) setBit(row []uint64, q int) { row[q/64] |= 1 << (q % 64) }
func (s *chp) getBit(row []uint64, q int) bool {
	return row[q/64]&(1<<(q%64)) != 0
}

func (s *chp) check(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("chp: qubit %d out of range [0,%d)", q, s.n))
	}
}

func (s *chp) H(q int) {
	s.check(q)
	w, m := q/64, uint64(1)<<(q%64)
	for i := 0; i < 2*s.n; i++ {
		xb, zb := s.x[i][w]&m, s.z[i][w]&m
		if xb != 0 && zb != 0 {
			s.r[i] ^= 1
		}
		s.x[i][w] = (s.x[i][w] &^ m) | zb
		s.z[i][w] = (s.z[i][w] &^ m) | xb
	}
}

func (s *chp) S(q int) {
	s.check(q)
	w, m := q/64, uint64(1)<<(q%64)
	for i := 0; i < 2*s.n; i++ {
		xb, zb := s.x[i][w]&m, s.z[i][w]&m
		if xb != 0 && zb != 0 {
			s.r[i] ^= 1
		}
		s.z[i][w] ^= xb
	}
}

func (s *chp) CX(a, b int) {
	s.check(a)
	s.check(b)
	if a == b {
		panic("chp: CX with identical control and target")
	}
	wa, ma := a/64, uint64(1)<<(a%64)
	wb, mb := b/64, uint64(1)<<(b%64)
	for i := 0; i < 2*s.n; i++ {
		xa, za := s.x[i][wa]&ma != 0, s.z[i][wa]&ma != 0
		xb, zb := s.x[i][wb]&mb != 0, s.z[i][wb]&mb != 0
		if xa && zb && (xb == za) {
			s.r[i] ^= 1
		}
		if xa {
			s.x[i][wb] ^= mb
		}
		if zb {
			s.z[i][wa] ^= ma
		}
	}
}

func (s *chp) CZ(a, b int) {
	s.H(b)
	s.CX(a, b)
	s.H(b)
}

func (s *chp) X(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		if s.getBit(s.z[i], q) {
			s.r[i] ^= 1
		}
	}
}

func (s *chp) Z(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		if s.getBit(s.x[i], q) {
			s.r[i] ^= 1
		}
	}
}

func (s *chp) Y(q int) {
	s.check(q)
	for i := 0; i < 2*s.n; i++ {
		if s.getBit(s.x[i], q) != s.getBit(s.z[i], q) {
			s.r[i] ^= 1
		}
	}
}

// rowMulInto multiplies row src into the accumulator (accX, accZ, accR2)
// where accR2 is the phase exponent of i mod 4 (always even for valid
// states). It returns the updated exponent.
func (s *chp) rowMulInto(accX, accZ []uint64, accR2 int, src int) int {
	exp := accR2 + 2*int(s.r[src])
	for w := 0; w < s.words; w++ {
		exp += phaseContribution(accX[w], accZ[w], s.x[src][w], s.z[src][w])
	}
	for w := 0; w < s.words; w++ {
		accX[w] ^= s.x[src][w]
		accZ[w] ^= s.z[src][w]
	}
	return ((exp % 4) + 4) % 4
}

// rowMul multiplies row src into row dst (dst <- dst * src), CHP's rowsum.
func (s *chp) rowMul(dst, src int) {
	exp := 2*int(s.r[dst]) + 2*int(s.r[src])
	for w := 0; w < s.words; w++ {
		exp += phaseContribution(s.x[dst][w], s.z[dst][w], s.x[src][w], s.z[src][w])
	}
	exp = ((exp % 4) + 4) % 4
	// Products of commuting rows always give an even exponent. Destabilizer
	// rows may anticommute with the multiplier; their signs are never read,
	// so the ±i ambiguity is harmless and we only insist on evenness for
	// stabilizer rows.
	if dst >= s.n && exp%2 != 0 {
		panic("chp: odd phase exponent on stabilizer row; tableau corrupted")
	}
	for w := 0; w < s.words; w++ {
		s.x[dst][w] ^= s.x[src][w]
		s.z[dst][w] ^= s.z[src][w]
	}
	s.r[dst] = uint8((exp & 2) >> 1)
}

func (s *chp) Measure(q int) (outcome int, random bool) {
	s.check(q)
	// Look for a stabilizer row with X support on q.
	p := -1
	for i := s.n; i < 2*s.n; i++ {
		if s.getBit(s.x[i], q) {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i < 2*s.n; i++ {
			if i != p && s.getBit(s.x[i], q) {
				s.rowMul(i, p)
			}
		}
		// Destabilizer row p-n becomes the old stabilizer row p.
		copy(s.x[p-s.n], s.x[p])
		copy(s.z[p-s.n], s.z[p])
		s.r[p-s.n] = s.r[p]
		// Stabilizer row p becomes ±Z_q with a random sign.
		for w := 0; w < s.words; w++ {
			s.x[p][w] = 0
			s.z[p][w] = 0
		}
		s.setBit(s.z[p], q)
		b := uint8(s.rng.Intn(2))
		s.r[p] = b
		return int(b), true
	}
	// Deterministic outcome: accumulate stabilizer rows indicated by the
	// destabilizers with X support on q.
	return s.deterministic(q) / 2, false
}

// deterministic returns the phase exponent (0 or 2) of the product of the
// stabilizer rows whose destabilizers have X support on q, which is ±Z_q
// when no stabilizer anticommutes with it.
func (s *chp) deterministic(q int) int {
	for w := 0; w < s.words; w++ {
		s.scratchX[w] = 0
		s.scratchZ[w] = 0
	}
	exp := 0
	for i := 0; i < s.n; i++ {
		if s.getBit(s.x[i], q) {
			exp = s.rowMulInto(s.scratchX, s.scratchZ, exp, i+s.n)
		}
	}
	if exp != 0 && exp != 2 {
		panic("chp: odd phase in deterministic measurement")
	}
	return exp
}

func (s *chp) MeasureReset(q int) (outcome int, random bool) {
	outcome, random = s.Measure(q)
	if outcome == 1 {
		s.X(q)
	}
	return outcome, random
}

func (s *chp) Reset(q int) {
	if out, _ := s.Measure(q); out == 1 {
		s.X(q)
	}
}

func (s *chp) ExpectationZ(q int) int {
	s.check(q)
	for i := s.n; i < 2*s.n; i++ {
		if s.getBit(s.x[i], q) {
			return 0
		}
	}
	if s.deterministic(q) == 0 {
		return 1
	}
	return -1
}
