package distance_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"surfstitch/internal/code"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/distance"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// matchReference asserts that Certify and the reference certifier agree on
// every Result field, the witness included, and on the number of distinct
// edges, or fail with the same error.
func matchReference(t *testing.T, name string, m *dem.Model) distance.Result {
	t.Helper()
	got, err := distance.Certify(m)
	want, wantEdges, wantErr := distance.ReferenceCertify(m)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: certificate differs from the reference\n got  %+v\n want %+v", name, got, want)
	}
	if err == nil {
		g, _, _ := distance.FromDEM(m)
		if g.NumEdges() != wantEdges {
			t.Fatalf("%s: %d distinct edges, reference %d", name, g.NumEdges(), wantEdges)
		}
	}
	return got
}

// TestCertifyMatchesReference holds Certify to the reference certifier,
// field for field, on the memories of all five tilings in both bases, on
// merged two-patch surgery circuits, on the code-capacity graphs of
// degraded syntheses and on random models.
func TestCertifyMatchesReference(t *testing.T) {
	t.Run("memories", func(t *testing.T) {
		type point struct{ d, rounds int }
		points := []point{{3, 2}, {5, 2}, {7, 2}, {3, 9}, {5, 15}}
		if testing.Short() {
			points = []point{{3, 2}, {3, 9}}
		}
		for _, kind := range device.AllKinds() {
			for _, pt := range points {
				for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
					name := fmt.Sprintf("%v d=%d rounds=%d basis=%v", kind, pt.d, pt.rounds, basis)
					res := matchReference(t, name, basisDEM(t, kind, pt.d, pt.rounds, basis))
					if res.Distance == 0 {
						t.Errorf("%s: no certificate", name)
					}
				}
			}
		}
	})
	t.Run("layouts", func(t *testing.T) {
		type layout struct {
			j surgery.Joint
			d int
		}
		layouts := []layout{{surgery.JointZZ, 3}, {surgery.JointXX, 3}, {surgery.JointZZ, 5}}
		if testing.Short() {
			layouts = layouts[:2]
		}
		for _, l := range layouts {
			name := fmt.Sprintf("2-patch %v d=%d", l.j, l.d)
			model := layoutDEM(t, l.j, l.d)
			if model.NumObservables < 2 {
				t.Fatalf("%s: %d observables, want the joint parity and one per patch", name, model.NumObservables)
			}
			if res := matchReference(t, name, model); res.Distance == 0 {
				t.Errorf("%s: no certificate", name)
			}
		}
	})
	t.Run("code capacity", func(t *testing.T) {
		graphs := 0
		for _, s := range capacitySyntheses(t) {
			for _, checks := range []code.StabType{code.StabZ, code.StabX} {
				g, m := codeCapacity(t, s, checks)
				name := fmt.Sprintf("%v d=%d %v checks, %d dropped", s.Layout.Dev.Kind(), s.Layout.Code.Distance(), checks, len(dropped(s)))
				want := matchReference(t, name, m)
				d, o, w := g.MinLogical()
				if d != want.Distance || o != want.Observable || !reflect.DeepEqual(w, want.Witness) {
					t.Fatalf("%s: MinLogical on the built graph gives %d/%d/%v, reference %d/%d/%v",
						name, d, o, w, want.Distance, want.Observable, want.Witness)
				}
				graphs++
			}
		}
		t.Logf("%d code-capacity graphs", graphs)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(27))
		trials := 3000
		if testing.Short() {
			trials = 300
		}
		for trial := 0; trial < trials; trial++ {
			matchReference(t, fmt.Sprintf("trial %d", trial), randomModel(rng))
		}
	})
}

// layoutDEM packs two distance-d patches joined by one merge and returns
// the detector error model of the combined surgery circuit.
func layoutDEM(t *testing.T, j surgery.Joint, d int) *dem.Model {
	t.Helper()
	spec := surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: d}, {Name: "b", Row: 1, Distance: d}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: j}},
	}
	w, h := 4*d, 5*d-1
	if j == surgery.JointXX {
		spec.Patches[1].Row, spec.Patches[1].Col = 0, 1
		w, h = h, w
	}
	p, err := surgery.Pack(context.Background(), device.Square(w, h), spec, synth.Options{})
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	e, err := surgery.NewExperiment(p, surgery.Options{SkipVerify: true})
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	noisy, err := e.Noisy(noise.Model{GateError: 1e-3, IdleError: noise.DefaultIdleError})
	if err != nil {
		t.Fatalf("noisy: %v", err)
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		t.Fatalf("dem: %v", err)
	}
	return model
}

// capacitySyntheses returns the clean d=3 and d=5 syntheses of every
// tiling, and d=3 syntheses that dropped stabilizers on randomly defected
// devices: up to three per tiling, and at least eight in all.
func capacitySyntheses(t *testing.T) []*synth.Synthesis {
	t.Helper()
	var out []*synth.Synthesis
	degraded := 0
	for _, kind := range device.AllKinds() {
		out = append(out, cleanSynthesis(t, kind, 3), cleanSynthesis(t, kind, 5))
		dev, _, err := synth.FitDevice(kind, 3, synth.ModeDefault)
		if err != nil {
			t.Fatalf("%v: fit: %v", kind, err)
		}
		found := 0
		for seed := int64(1); seed <= 32 && found < 3; seed++ {
			ds, err := device.GenerateDefects(dev, "random", 0.08, seed)
			if err != nil {
				t.Fatalf("%v seed %d: generate: %v", kind, seed, err)
			}
			damaged, err := dev.WithDefects(ds)
			if err != nil {
				t.Fatalf("%v seed %d: apply: %v", kind, seed, err)
			}
			s, err := synth.SynthesizeDegraded(context.Background(), damaged, 3, synth.Options{})
			if err != nil || s.Degradation == nil || len(s.Degradation.Dropped) == 0 {
				continue
			}
			out = append(out, s)
			found++
		}
		degraded += found
	}
	if degraded < 8 {
		t.Fatalf("only %d degraded syntheses, want at least 8", degraded)
	}
	return out
}

// codeCapacity builds the code-capacity graph the effective-distance search
// builds for a synthesis: one node per retained check of the
// given type, one edge per data qubit between the checks that contain it
// (or the boundary), flipping the observable when the qubit is in the
// same-basis logical's support. It returns the graph built edge by edge
// and the same edges as a model.
func codeCapacity(t *testing.T, s *synth.Synthesis, checks code.StabType) (*distance.Graph, *dem.Model) {
	t.Helper()
	c := s.Layout.Code
	gone := map[int]bool{}
	for _, d := range dropped(s) {
		gone[d.Index] = true
	}
	nodes := 0
	touching := make([][]int, c.NumData())
	for si, st := range c.Stabilizers() {
		if st.Type != checks || gone[si] {
			continue
		}
		for _, dq := range st.Data {
			touching[dq] = append(touching[dq], nodes)
		}
		nodes++
	}
	logical := c.LogicalZ()
	if checks == code.StabX {
		logical = c.LogicalX()
	}
	inLogical := map[int]bool{}
	for _, dq := range logical.Support() {
		inLogical[dq] = true
	}
	g := distance.NewGraph(nodes, 1)
	m := &dem.Model{NumDetectors: nodes, NumObservables: 1}
	for dq, dets := range touching {
		obs := uint64(0)
		if inLogical[dq] {
			obs = 1
		}
		u, v := g.Boundary(), g.Boundary()
		switch len(dets) {
		case 1:
			u = dets[0]
		case 2:
			u, v = dets[0], dets[1]
		}
		if err := g.AddEdge(u, v, obs); err != nil {
			t.Fatal(err)
		}
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{Detectors: dets, Obs: obs, Prob: 0.01})
	}
	return g, m
}

// randomModel draws a model of up to 40 detectors and 1–3 observables with
// boundary edges, boundary self-loops, parallel edges whose masks differ,
// and hyperedges: some are unions of two existing edges with their masks
// XORed, so they decompose; some have one mask bit flipped, and some are
// arbitrary.
func randomModel(rng *rand.Rand) *dem.Model {
	numDet := 2 + rng.Intn(39)
	numObs := 1 + rng.Intn(3)
	m := &dem.Model{NumDetectors: numDet, NumObservables: numObs}
	mask := func() uint64 {
		if rng.Intn(3) > 0 {
			return 0
		}
		return uint64(1 + rng.Intn(1<<numObs-1))
	}
	add := func(obs uint64, dets ...int) {
		sort.Ints(dets)
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{Detectors: dets, Obs: obs, Prob: 0.01})
	}
	n := numDet + rng.Intn(3*numDet)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(20); {
		case k == 0: // a mechanism flipping no detector
			add(mask())
		case k <= 5:
			add(mask(), rng.Intn(numDet))
		case k <= 15 || numDet < 3:
			if numDet < 2 {
				break
			}
			pair := rng.Perm(numDet)[:2]
			obs := mask()
			add(obs, pair...)
			if rng.Intn(6) == 0 { // a parallel edge with another mask
				add(obs^uint64(1+rng.Intn(1<<numObs-1)), pair[0], pair[1])
			}
		default:
			add(mask(), rng.Perm(numDet)[:3+rng.Intn(min(3, numDet-2))]...)
		}
	}
	// Hyperedges built from two existing graphlike mechanisms on disjoint
	// detectors.
	for i := rng.Intn(6); i > 0; i-- {
		a := m.Mechanisms[rng.Intn(len(m.Mechanisms))]
		b := m.Mechanisms[rng.Intn(len(m.Mechanisms))]
		if len(a.Detectors) == 0 || len(a.Detectors) > 2 || len(b.Detectors) == 0 || len(b.Detectors) > 2 ||
			len(a.Detectors)+len(b.Detectors) < 3 || overlaps(a.Detectors, b.Detectors) {
			continue
		}
		obs := a.Obs ^ b.Obs
		if rng.Intn(3) == 0 {
			obs ^= 1 << uint(rng.Intn(numObs))
		}
		add(obs, append(append([]int(nil), a.Detectors...), b.Detectors...)...)
	}
	return m
}

// dropped returns the stabilizers a synthesis sacrificed.
func dropped(s *synth.Synthesis) []synth.DroppedStab {
	if s.Degradation == nil {
		return nil
	}
	return s.Degradation.Dropped
}

func overlaps(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// fuzzModel decodes bytes into a small model: the first byte sets 1–16
// detectors and 1–3 observables, and each following 3-byte group adds one
// mechanism — a pair, a boundary edge, a mechanism flipping no detector, or
// a hyperedge — with the group's low bits as its observable mask.
func fuzzModel(data []byte) *dem.Model {
	m := &dem.Model{NumDetectors: 1, NumObservables: 1}
	if len(data) == 0 {
		return m
	}
	m.NumDetectors = 1 + int(data[0]&15)
	m.NumObservables = 1 + int(data[0]>>4)%3
	for i := 1; i+2 < len(data) && len(m.Mechanisms) < 64; i += 3 {
		c0, a, b := data[i], int(data[i+1])%m.NumDetectors, data[i+2]
		var dets []int
		switch c0 >> 6 {
		case 0, 1:
			dets = []int{a}
			if bb := int(b) % m.NumDetectors; bb != a {
				dets = append(dets, bb)
			}
		case 2:
			if b != 0xff {
				dets = []int{a}
			}
		case 3:
			dets = []int{a}
			for d := 0; d < 8 && d < m.NumDetectors; d++ {
				if b>>uint(d)&1 == 1 && d != a {
					dets = append(dets, d)
				}
			}
		}
		sort.Ints(dets)
		obs := uint64(c0) & (1<<uint(m.NumObservables) - 1)
		m.Mechanisms = append(m.Mechanisms, dem.Mechanism{Detectors: dets, Obs: obs, Prob: 0.01})
	}
	return m
}

// FuzzCertifyVsReference holds Certify to the reference certifier on small
// models decoded from arbitrary bytes.
func FuzzCertifyVsReference(f *testing.F) {
	f.Add([]byte{0x03, 0x01, 0, 1, 0x00, 1, 2, 0x00, 0, 2})                // odd triangle
	f.Add([]byte{0x01, 0x80, 0, 0, 0x81, 0, 0})                            // parallel boundary edges
	f.Add([]byte{0x13, 0x81, 0, 0xff, 0x00, 0, 1, 0x02, 2, 3})             // boundary self-loop
	f.Add([]byte{0x23, 0x00, 0, 1, 0x01, 2, 3, 0xc1, 0, 0x0e, 0x03, 1, 2}) // hyperedge
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 1+3*(4+rng.Intn(20)))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res := matchReference(t, "fuzz model", fuzzModel(data))
		checkWitness(t, res)
	})
}
