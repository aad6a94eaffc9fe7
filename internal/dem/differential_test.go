package dem_test

import (
	"math/rand"
	"slices"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/frame"
)

// randomCircuit builds a circuit on 3–7 qubits with 6–14 moments of
// qubit-disjoint gates drawn from every op the IR has, so qubits are reset
// mid-circuit and measured more than once without a reset. Detectors and
// observables are random record subsets, a record sometimes listed twice;
// they need not be deterministic, because a signature is a flip relative
// to the noiseless run.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 3 + rng.Intn(5)
	b := circuit.NewBuilder(n)
	single := []circuit.Op{circuit.OpR, circuit.OpH, circuit.OpS, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpM}
	var records []int
	for moments := 6 + rng.Intn(9); moments > 0; moments-- {
		b.Begin()
		free := rng.Perm(n)
		for len(free) > 0 {
			switch k := rng.Intn(len(single) + 3); {
			case k < len(single) && single[k] == circuit.OpM:
				records = append(records, b.M(free[0])...)
				free = free[1:]
			case k < len(single):
				b.Gate(single[k], free[0])
				free = free[1:]
			case k == len(single):
				free = free[1:] // idle
			case len(free) >= 2:
				op := circuit.OpCX
				if k == len(single)+1 {
					op = circuit.OpCZ
				}
				b.Gate(op, free[0], free[1])
				free = free[2:]
			}
		}
	}
	subset := func() []int {
		var set []int
		for _, r := range records {
			if rng.Intn(3) == 0 {
				set = append(set, r)
			}
		}
		if len(set) > 0 && rng.Intn(4) == 0 {
			set = append(set, set[rng.Intn(len(set))])
		}
		return set
	}
	if len(records) > 0 {
		for d := 1 + rng.Intn(6); d > 0; d-- {
			b.Detector(subset()...)
		}
		for o := 1 + rng.Intn(3); o > 0; o-- {
			b.Observable(subset()...)
		}
	}
	return b.MustBuild()
}

// withNoise returns a copy of c with a noise-only moment holding one
// single-qubit channel inserted before moment mi.
func withNoise(c *circuit.Circuit, mi int, op circuit.Op, p float64, q int) *circuit.Circuit {
	out := *c
	out.Moments = slices.Insert(slices.Clone(c.Moments), mi,
		circuit.Moment{Noise: []circuit.Instruction{{Op: op, Qubits: []int{q}, Arg: p}}})
	return &out
}

// TestBackwardMatchesFrameSampler checks the backward extraction against
// the frame sampler, an independent forward implementation: an X or Z
// error at any moment boundary on any qubit of a random circuit must
// extract to exactly the detectors and observables a frame shot with that
// error at probability 1 flips.
func TestBackwardMatchesFrameSampler(t *testing.T) {
	circuits := 200
	if testing.Short() {
		circuits = 40
	}
	const p = 0.1
	for seed := int64(0); seed < int64(circuits); seed++ {
		base := randomCircuit(rand.New(rand.NewSource(seed)))
		for mi := 0; mi <= len(base.Moments); mi++ {
			for q := 0; q < base.NumQubits; q++ {
				for _, op := range []circuit.Op{circuit.OpXError, circuit.OpZError} {
					m, err := dem.FromCircuit(withNoise(base, mi, op, p, q))
					if err != nil {
						t.Fatal(err)
					}
					s, err := frame.NewSampler(withNoise(base, mi, op, 1, q), rand.New(rand.NewSource(1)))
					if err != nil {
						t.Fatal(err)
					}
					shot := s.Sample(1)
					wantDets, wantObs := shot.ShotDetectors(0), shot.ObservableMask(0)
					if len(wantDets) == 0 && wantObs == 0 {
						if len(m.Mechanisms) != 0 {
							t.Fatalf("seed %d, %v on qubit %d before moment %d: harmless error extracted to %+v",
								seed, op, q, mi, m.Mechanisms)
						}
						continue
					}
					if len(m.Mechanisms) != 1 {
						t.Fatalf("seed %d, %v on qubit %d before moment %d: %d mechanisms, want 1",
							seed, op, q, mi, len(m.Mechanisms))
					}
					got := m.Mechanisms[0]
					if !slices.Equal(got.Detectors, wantDets) || got.Obs != wantObs || got.Prob != p {
						t.Fatalf("seed %d, %v on qubit %d before moment %d:\n%v\nextracted %+v, frame flips detectors %v and observables %b",
							seed, op, q, mi, base, got, wantDets, wantObs)
					}
				}
			}
		}
	}
}
