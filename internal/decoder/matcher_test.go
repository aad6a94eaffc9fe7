package decoder

import (
	"math/rand"
	"testing"

	"surfstitch/internal/dem"
)

// fuzzModel builds the detector error model of one FuzzMatcherVsGalil
// input, by shape:
//
//	0: a random model of boundary, pair and hyperedge mechanisms;
//	1: the same with a third of the mechanisms at p=0.5, which saturate at
//	   weight zero;
//	2: a random model whose first five detectors form a path with no
//	   boundary edge, so an odd defect count there is unmatchable;
//	3: a triangle of equal cheap edges with expensive boundary edges, so
//	   three defects on it must form a blossom;
//	4: a chain of alternating cheap and expensive edges, whose blossoms
//	   turn inner and shatter as regions from further along the chain
//	   reach them;
//	5: a chain of equal weights, where ties between corrections abound.
func fuzzModel(rng *rand.Rand, shape, size int) *dem.Model {
	numDet := 5 + size%40
	switch shape {
	case 1:
		m := randomModel(rng, numDet, 2, 3*numDet)
		for i := range m.Mechanisms {
			if i%3 == 0 {
				m.Mechanisms[i].Prob = 0.5
			}
		}
		return m
	case 2:
		m := randomModel(rng, numDet, 2, 3*numDet)
		kept := m.Mechanisms[:0]
		for _, mech := range m.Mechanisms {
			if mech.Detectors[0] >= 5 {
				kept = append(kept, mech)
			}
		}
		m.Mechanisms = kept
		for i := 0; i < 4; i++ {
			m.Mechanisms = append(m.Mechanisms, dem.Mechanism{Detectors: []int{i, i + 1}, Prob: 0.01, Obs: uint64(i % 2)})
		}
		return m
	case 3:
		m := &dem.Model{NumDetectors: 3, NumObservables: 2}
		for i := 0; i < 3; i++ {
			m.Mechanisms = append(m.Mechanisms,
				dem.Mechanism{Detectors: []int{i, (i + 1) % 3}, Prob: 0.1, Obs: uint64(i % 2)},
				dem.Mechanism{Detectors: []int{i}, Prob: 0.0001 * float64(1+rng.Intn(3)), Obs: uint64(1 + i%2)})
		}
		return m
	case 4:
		probs := []float64{0.2, 0.001}
		if rng.Intn(2) == 0 {
			probs = []float64{0.001, 0.2, 0.2}
		}
		return chainModel(numDet, probs)
	case 5:
		return chainModel(numDet, []float64{0.01})
	}
	return randomModel(rng, numDet, 1+rng.Intn(3), 3*numDet)
}

// FuzzMatcherVsGalil runs the full oracle (checkOracle) on fuzzed models
// and defect sets, reusing one matcher scratch across the sets so that no
// state may leak from one shot into the next.
func FuzzMatcherVsGalil(f *testing.F) {
	for shape := uint8(0); shape < 6; shape++ {
		f.Add(int64(shape)+1, shape, uint8(20), uint8(8))
	}
	f.Add(int64(11), uint8(2), uint8(3), uint8(12))  // odd boundaryless component
	f.Add(int64(12), uint8(3), uint8(0), uint8(3))   // triangle blossom
	f.Add(int64(13), uint8(4), uint8(35), uint8(30)) // shattering chain
	f.Fuzz(func(t *testing.T, seed int64, shape, size, maxK uint8) {
		rng := rand.New(rand.NewSource(seed))
		model := fuzzModel(rng, int(shape)%6, int(size))
		dec, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		g, s := newGalil(dec), dec.NewScratch()
		for trial := 0; trial < 20; trial++ {
			defects := randomDefects(rng, dec.numDet, 1+int(maxK)%24)
			checkOracle(t, dec, g, s, defects)
		}
	})
}
