package dem

import (
	"fmt"
	"math/bits"

	"surfstitch/internal/circuit"
)

// row is one sensitivity row: a bit per output over det, which is zero
// outside the words [lo, hi), and a mask of observables in obs. An empty
// window is stored as [len(det), 0), so the union of windows is one min and
// one max.
type row struct {
	det    []uint64
	lo, hi int
	obs    uint64
}

// flip toggles output bit i, widening the window to its word.
func (r *row) flip(i int) {
	w := i / 64
	r.det[w] ^= 1 << uint(i%64)
	r.lo, r.hi = min(r.lo, w), max(r.hi, w+1)
}

// xor adds s's outputs to r's.
func (r *row) xor(s *row) {
	r.obs ^= s.obs
	if s.lo >= s.hi {
		return
	}
	for w := s.lo; w < s.hi; w++ {
		r.det[w] ^= s.det[w]
	}
	r.lo, r.hi = min(r.lo, s.lo), max(r.hi, s.hi)
	r.trim()
}

// or sets in r every output s has.
func (r *row) or(s *row) {
	r.obs |= s.obs
	for w := s.lo; w < s.hi; w++ {
		r.det[w] |= s.det[w]
	}
	r.lo, r.hi = min(r.lo, s.lo), max(r.hi, s.hi)
}

// trim narrows the window past its zero edge words.
func (r *row) trim() {
	for r.lo < r.hi && r.det[r.lo] == 0 {
		r.lo++
	}
	for r.hi > r.lo && r.det[r.hi-1] == 0 {
		r.hi--
	}
	if r.lo >= r.hi {
		r.lo, r.hi = len(r.det), 0
	}
}

// clear empties the row.
func (r *row) clear() {
	if r.lo < r.hi {
		clear(r.det[r.lo:r.hi])
	}
	r.lo, r.hi = len(r.det), 0
	r.obs = 0
}

// walker walks a circuit's moments from last to first, holding the rows of
// the package doc: rows[2q] is qubit q's X row and rows[2q+1] its Z row.
// Output bit i is the i-th of the sets the walker was built over; the
// observable mask is a second, separate output space.
type walker struct {
	recAt  []int // out(r)'s bits are recBit[recAt[r]:recAt[r+1]]
	recBit []int
	recObs []uint64
	rec    int // records not yet undone
	rows   []row
	zero   row // the row of an absent lane component

	// random, when set, collects every output a Z row holds as a Z-basis
	// reset or measurement clears it.
	random *row
}

// newWalker indexes the records of c by the output bits of sets and the
// observable bits of obs (at most 64 sets), and starts every row empty at
// the end of the circuit.
func newWalker(c *circuit.Circuit, sets, obs [][]int) *walker {
	records := c.NumMeasurements()
	w := &walker{recAt: make([]int, records+1), recObs: make([]uint64, records), rec: records}
	for _, set := range sets {
		for _, r := range set {
			w.recAt[r+1]++
		}
	}
	for r := 0; r < records; r++ {
		w.recAt[r+1] += w.recAt[r]
	}
	// A record a set lists twice is flipped in twice, so it cancels as it
	// does in the frame sampler's detector planes.
	w.recBit = make([]int, w.recAt[records])
	next := append([]int(nil), w.recAt[:records]...)
	for i, set := range sets {
		for _, r := range set {
			w.recBit[next[r]] = i
			next[r]++
		}
	}
	for o, set := range obs {
		for _, r := range set {
			w.recObs[r] ^= 1 << uint(o)
		}
	}

	words := (len(sets) + 63) / 64
	slab := make([]uint64, (2*c.NumQubits+1)*words)
	w.rows = make([]row, 2*c.NumQubits)
	for i := range w.rows {
		w.rows[i] = row{det: slab[i*words : (i+1)*words : (i+1)*words], lo: words}
	}
	w.zero = row{det: slab[len(w.rows)*words:], lo: words}
	return w
}

// undo walks back over one moment's gates by the transposed rules of the
// package doc. The gates act on disjoint qubits, so they are undone in any
// order; reverse order numbers the measurement records.
func (w *walker) undo(gates []circuit.Instruction) error {
	rows := w.rows
	for gi := len(gates) - 1; gi >= 0; gi-- {
		g := gates[gi]
		switch g.Op {
		case circuit.OpR:
			for _, q := range g.Qubits {
				rows[2*q].clear()
				w.collapse(q)
			}
		case circuit.OpM:
			for i := len(g.Qubits) - 1; i >= 0; i-- {
				q := g.Qubits[i]
				w.rec--
				x := &rows[2*q]
				for _, b := range w.recBit[w.recAt[w.rec]:w.recAt[w.rec+1]] {
					x.flip(b)
				}
				x.trim()
				x.obs ^= w.recObs[w.rec]
				w.collapse(q)
			}
		case circuit.OpH:
			for _, q := range g.Qubits {
				rows[2*q], rows[2*q+1] = rows[2*q+1], rows[2*q]
			}
		case circuit.OpS:
			for _, q := range g.Qubits {
				rows[2*q].xor(&rows[2*q+1])
			}
		case circuit.OpCX:
			for i := 0; i < len(g.Qubits); i += 2 {
				ctl, tgt := g.Qubits[i], g.Qubits[i+1]
				rows[2*ctl].xor(&rows[2*tgt])
				rows[2*tgt+1].xor(&rows[2*ctl+1])
			}
		case circuit.OpCZ:
			for i := 0; i < len(g.Qubits); i += 2 {
				a, b := g.Qubits[i], g.Qubits[i+1]
				rows[2*b].xor(&rows[2*a+1])
				rows[2*a].xor(&rows[2*b+1])
			}
		case circuit.OpX, circuit.OpY, circuit.OpZ:
			// Paulis commute with the frame up to signs.
		default:
			return fmt.Errorf("dem: unsupported gate op %v", g.Op)
		}
	}
	return nil
}

// collapse clears qubit q's Z row, as a Z-basis reset or measurement does,
// first collecting its outputs into random when that is set.
func (w *walker) collapse(q int) {
	z := &w.rows[2*q+1]
	if w.random != nil {
		w.random.or(z)
	}
	z.clear()
}

// CheckDeterminism reports whether every detector and observable of c takes
// the same value on every noiseless run, and names the first one that does
// not. Noise channels are ignored.
//
// The check is exact. Walking backward, qubit q's Z row just before a Z-basis
// reset or measurement of q clears it holds the outputs whose back-propagated
// Pauli has an X or Y component on q there: each anticommutes with the Z
// eigenstate the reset or measurement leaves, so its value is a fair coin.
// The circuit starts in |0…0⟩, the same condition on every qubit at once,
// so the Z rows left at the start are checked too. An output no check
// catches back-propagates through every collapse and to the start as a
// product of Zs on Z eigenstates, so its value is fixed.
func CheckDeterminism(c *circuit.Circuit) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("dem: %w", err)
	}
	nd := len(c.Detectors)
	// Observables share the detectors' bit space here, so their number is
	// not capped at 64.
	w := newWalker(c, append(c.Detectors[:nd:nd], c.Observables...), nil)
	words := len(w.zero.det)
	random := row{det: make([]uint64, words), lo: words}
	w.random = &random
	for mi := len(c.Moments) - 1; mi >= 0; mi-- {
		if err := w.undo(c.Moments[mi].Gates); err != nil {
			return err
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		random.or(&w.rows[2*q+1])
	}
	for i := random.lo; i < random.hi; i++ {
		if word := random.det[i]; word != 0 {
			b := i*64 + bits.TrailingZeros64(word)
			if b < nd {
				return fmt.Errorf("dem: detector %d is not deterministic", b)
			}
			return fmt.Errorf("dem: observable %d is not deterministic", b-nd)
		}
	}
	return nil
}
