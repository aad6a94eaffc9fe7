package tableau

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// stabSim is the method set the simulator and its CHP reference share.
type stabSim interface {
	H(q int)
	S(q int)
	X(q int)
	Y(q int)
	Z(q int)
	CX(a, b int)
	CZ(a, b int)
	Measure(q int) (int, bool)
	MeasureReset(q int) (int, bool)
	Reset(q int)
	ExpectationZ(q int) int
}

// The op kinds of a differential run.
const (
	opH = iota
	opS
	opX
	opY
	opZ
	opCX
	opCZ
	opM
	opMR
	opR
	opExpZ
	numOps
)

var opNames = [numOps]string{"H", "S", "X", "Y", "Z", "CX", "CZ", "M", "MR", "R", "EZ"}

// simOp is one step of a differential run; b is used by two-qubit gates.
type simOp struct{ kind, a, b int }

func (o simOp) String() string {
	if o.kind == opCX || o.kind == opCZ {
		return fmt.Sprintf("%s %d %d", opNames[o.kind], o.a, o.b)
	}
	return fmt.Sprintf("%s %d", opNames[o.kind], o.a)
}

// step applies o and returns what it reads: a measurement's outcome and
// whether it was random, ExpectationZ's value, or zeros for a gate.
func step(sim stabSim, o simOp) (int, bool) {
	switch o.kind {
	case opH:
		sim.H(o.a)
	case opS:
		sim.S(o.a)
	case opX:
		sim.X(o.a)
	case opY:
		sim.Y(o.a)
	case opZ:
		sim.Z(o.a)
	case opCX:
		sim.CX(o.a, o.b)
	case opCZ:
		sim.CZ(o.a, o.b)
	case opM:
		return sim.Measure(o.a)
	case opMR:
		return sim.MeasureReset(o.a)
	case opR:
		sim.Reset(o.a)
	case opExpZ:
		return sim.ExpectationZ(o.a), false
	}
	return 0, false
}

// collapseShape reports, for a measurement of q about to run on s, whether
// it is random, whether T(Z_q) holds Y at the pivot once the fan-out CNOTs
// have run, and whether the fan-out targets reach past the pivot's word.
func collapseShape(s *Simulator, q int) (random, yPivot, crossesWord bool) {
	row := (s.n + q) * s.words
	p := s.pivot(s.n + q)
	if p < 0 {
		return false, false, false
	}
	y := s.z[row+p/64]>>(p%64)&1 == 1
	for w := p / 64; w < s.words; w++ {
		k := s.x[row+w]
		if w == p/64 {
			k &^= 1 << (p % 64)
		} else if k != 0 {
			crossesWord = true
		}
		if bits.OnesCount64(s.z[row+w]&k)%2 == 1 {
			y = !y
		}
	}
	return true, y, crossesWord
}

// shapes counts the kinds of measurement a differential run exercised.
type shapes struct{ random, deterministic, yPivot, crossesWord int }

// matchCHP runs ops on the simulator and on the CHP reference, each with an
// RNG of the given seed, and fails on the first step whose reading differs;
// then every qubit's ExpectationZ must agree too.
func matchCHP(t testing.TB, n int, ops []simOp, seed int64, sh *shapes) {
	s := New(n, rand.New(rand.NewSource(seed)))
	ref := newCHP(n, rand.New(rand.NewSource(seed)))
	for i, o := range ops {
		if o.kind == opM || o.kind == opMR || o.kind == opR {
			random, y, crosses := collapseShape(s, o.a)
			if random {
				sh.random++
			} else {
				sh.deterministic++
			}
			if y {
				sh.yPivot++
			}
			if crosses {
				sh.crossesWord++
			}
		}
		got, gotRandom := step(s, o)
		want, wantRandom := step(ref, o)
		if got != want || gotRandom != wantRandom {
			t.Fatalf("n=%d seed %d: op %d (%v) reads (%d, %v), CHP reads (%d, %v); ops %v",
				n, seed, i, o, got, gotRandom, want, wantRandom, ops[:i+1])
		}
	}
	for q := 0; q < n; q++ {
		if got, want := s.ExpectationZ(q), ref.ExpectationZ(q); got != want {
			t.Fatalf("n=%d seed %d: after %d ops <Z_%d> = %d, CHP says %d; ops %v", n, seed, len(ops), q, got, want, ops)
		}
	}
}

// opMix weights the random op draw towards H and the entangling gates, so
// measurements see wide fan-outs.
var opMix = []int{opH, opH, opH, opS, opS, opX, opY, opZ, opCX, opCX, opCX, opCX, opCZ, opCZ, opM, opM, opMR, opR, opExpZ}

// randomOps draws length ops on n qubits, then measures every qubit in a
// random one of the Z, X and Y bases.
func randomOps(rng *rand.Rand, n, length int) []simOp {
	ops := make([]simOp, 0, length+3*n)
	for len(ops) < length {
		o := simOp{kind: opMix[rng.Intn(len(opMix))], a: rng.Intn(n)}
		if o.kind == opCX || o.kind == opCZ {
			if n < 2 {
				continue
			}
			o.b = (o.a + 1 + rng.Intn(n-1)) % n
		}
		ops = append(ops, o)
	}
	for q := 0; q < n; q++ {
		switch rng.Intn(3) {
		case 1:
			ops = append(ops, simOp{kind: opH, a: q})
		case 2:
			ops = append(ops, simOp{kind: opS, a: q}, simOp{kind: opS, a: q}, simOp{kind: opS, a: q}, simOp{kind: opH, a: q})
		}
		ops = append(ops, simOp{kind: opM, a: q})
	}
	return ops
}

// TestSimulatorMatchesCHP holds the inverse tableau to the CHP reference on
// 3000 random op sequences over 1 to 140 qubits (rows of one to three
// words): every measurement's outcome and randomness, and every
// ExpectationZ, must be equal under one RNG seed.
func TestSimulatorMatchesCHP(t *testing.T) {
	sequences := 3000
	if testing.Short() {
		sequences = 500
	}
	var sh shapes
	for i := 0; i < sequences; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 1 + i%140
		matchCHP(t, n, randomOps(rng, n, 3*n+10), int64(i), &sh)
	}
	t.Logf("%d random measurements (%d with a Y pivot, %d fanning out past the pivot's word), %d deterministic",
		sh.random, sh.yPivot, sh.crossesWord, sh.deterministic)
	if sh.deterministic == 0 || sh.yPivot == 0 || sh.crossesWord == 0 || sh.random == sh.yPivot {
		t.Fatalf("measurement shapes %+v: every shape must occur", sh)
	}
}

// decodeOps turns fuzz bytes into a qubit count of 1 to 130 (rows of up to
// three words) and an op sequence: a kind byte, a qubit byte, and a second
// qubit byte for two-qubit gates.
func decodeOps(data []byte) (int, []simOp) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 1 + int(data[0])%130
	var ops []simOp
	for data = data[1:]; len(data) >= 2; data = data[2:] {
		o := simOp{kind: int(data[0]) % numOps, a: int(data[1]) % n}
		if o.kind == opCX || o.kind == opCZ {
			if n < 2 || len(data) < 3 {
				continue
			}
			if o.b = int(data[2]) % n; o.b == o.a {
				o.b = (o.a + 1) % n
			}
			data = data[1:]
		}
		ops = append(ops, o)
	}
	return n, ops
}

// FuzzSimulatorVsCHP holds the inverse tableau to the CHP reference on
// decoded op sequences. The seeds include a pivot that holds Y (S then H
// makes T(Z_0) = -Y) and fan-out targets in two words past the pivot's
// (T(Z_1) = X_0·X_64·X_129·Z_1 on 130 qubits).
func FuzzSimulatorVsCHP(f *testing.F) {
	f.Add([]byte{0, opS, 0, opH, 0, opM, 0, opM, 0})
	f.Add([]byte{129, opH, 0, opH, 64, opH, 129, opCX, 0, 1, opCX, 64, 1, opCX, 129, 1, opM, 1, opExpZ, 1})
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := decodeOps(data)
		if n == 0 {
			return
		}
		matchCHP(t, n, ops, 1, &shapes{})
	})
}

// circuitKinds maps the circuit ops Run executes to differential op kinds.
var circuitKinds = map[circuit.Op]int{
	circuit.OpR: opR, circuit.OpH: opH, circuit.OpS: opS,
	circuit.OpX: opX, circuit.OpY: opY, circuit.OpZ: opZ,
	circuit.OpCX: opCX, circuit.OpCZ: opCZ, circuit.OpM: opM,
}

// runCHP executes c noiselessly on the CHP reference, as Run does.
func runCHP(t *testing.T, c *circuit.Circuit, rng *rand.Rand) *Result {
	sim := newCHP(c.NumQubits, rng)
	res := &Result{}
	for _, m := range c.Moments {
		for _, g := range m.Gates {
			kind, ok := circuitKinds[g.Op]
			if !ok {
				t.Fatalf("no reference for op %v", g.Op)
			}
			width := 1
			if kind == opCX || kind == opCZ {
				width = 2
			}
			for i := 0; i < len(g.Qubits); i += width {
				o := simOp{kind: kind, a: g.Qubits[i]}
				if width == 2 {
					o.b = g.Qubits[i+1]
				}
				out, random := step(sim, o)
				if kind == opM {
					res.Records = append(res.Records, uint8(out))
					res.Random = append(res.Random, random)
				}
			}
		}
	}
	return res
}

// TestRunMatchesCHP runs the synthesized circuits verification checks on
// both simulators under Reference's three seeds: the five tilings' memories
// at d=3 and d=5 in both bases, and 2-patch ZZ and XX layouts at d=3. The
// records and their randomness flags must be identical.
func TestRunMatchesCHP(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes d=5 memories")
	}
	type named struct {
		name string
		c    *circuit.Circuit
	}
	var circuits []named
	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5} {
			s, err := synth.Synthesize(context.Background(), devicetest.ForDistance(t, kind, d), d, synth.Options{})
			if err != nil {
				t.Fatalf("%v d=%d: %v", kind, d, err)
			}
			for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
				mem, err := experiment.NewMemory(s, d, experiment.Options{SkipVerify: true, Basis: basis})
				if err != nil {
					t.Fatal(err)
				}
				circuits = append(circuits, named{fmt.Sprintf("%v d=%d %v", kind, d, basis), mem.Circuit})
			}
		}
	}
	for _, tc := range []struct {
		dev   *device.Device
		joint surgery.Joint
		b     surgery.PatchSpec
	}{
		{device.Square(12, 14), surgery.JointZZ, surgery.PatchSpec{Name: "b", Row: 1, Distance: 3}},
		{device.Square(14, 12), surgery.JointXX, surgery.PatchSpec{Name: "b", Col: 1, Distance: 3}},
	} {
		p, err := surgery.Pack(context.Background(), tc.dev, surgery.Spec{
			Patches: []surgery.PatchSpec{{Name: "a", Distance: 3}, tc.b},
			Ops:     []surgery.Op{{A: 0, B: 1, Joint: tc.joint}},
		}, synth.Options{})
		if err != nil {
			t.Fatalf("%v: pack: %v", tc.joint, err)
		}
		e, err := surgery.NewExperiment(p, surgery.Options{SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, named{fmt.Sprintf("%v layout", tc.joint), e.Circuit})
	}
	for _, nc := range circuits {
		name, c := nc.name, nc.c
		random := 0
		for trial := 0; trial < 3; trial++ {
			seed := int64(1000 + trial*7919) // Reference's seeds
			got := Run(c, rand.New(rand.NewSource(seed)))
			want := runCHP(t, c, rand.New(rand.NewSource(seed)))
			if len(got.Records) != len(want.Records) {
				t.Fatalf("%s seed %d: %d records, CHP gives %d", name, seed, len(got.Records), len(want.Records))
			}
			for i := range want.Records {
				if got.Records[i] != want.Records[i] || got.Random[i] != want.Random[i] {
					t.Fatalf("%s seed %d: record %d is (%d, %v), CHP gives (%d, %v)",
						name, seed, i, got.Records[i], got.Random[i], want.Records[i], want.Random[i])
				}
				if got.Random[i] {
					random++
				}
			}
		}
		if random == 0 {
			t.Errorf("%s: no random measurement, so the seeds were never read", name)
		}
	}
}
