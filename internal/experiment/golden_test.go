package experiment_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// circuitDigest is a SHA-256 over the circuit's text form followed by its
// detector-round annotations. Two assemblies share a digest only if they
// emit the same moments, detectors and observables in the same order and
// attribute every detector to the same round.
func circuitDigest(c *circuit.Circuit, detectorRound []int) string {
	h := sha256.New()
	h.Write([]byte(circuit.Format(c)))
	var buf [8]byte
	for _, r := range detectorRound {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCircuits holds the digest of every circuit TestMemoryCircuitGoldens
// assembles: pristine memories keyed tiling/distance/basis, degraded ones
// prefixed "degraded/", Z-basis memories on calibrated devices prefixed
// "calibrated/" and keyed by snapshot and seed, and 2-patch surgery
// experiments keyed by joint.
// The circuits are noise-free, so no floating-point result enters a digest.
var goldenCircuits = map[string]string{
	"square/d3/Z":                                 "9329fbe2b47a0112bb43da7666abe3b1325081351c07d3d8aca05920de7828d7",
	"square/d3/X":                                 "2ca3b23d880db4e3bc9f8f98e019bff8d5a52b1dca8822854381e663256073cf",
	"square/d5/Z":                                 "88fe6c16664ab9d9e38b4b6764d732d930adaca2b8c1580bf8d01be733c8424b",
	"square/d5/X":                                 "92a727ab6649ced1e9e45dd35e98ec06bd959963d02ea1367c48842da62a7f65",
	"hexagon/d3/Z":                                "54fd51512b07e88a0a59eceaa653f892ae2a7365d8635f6e2dd068cfa031f149",
	"hexagon/d3/X":                                "91499acf1f9ca339e0347ec48dc9ff416db170165c88e03870762c324bad4c16",
	"hexagon/d5/Z":                                "3019dd29f611667f8a9b6f32b40e6228d4ff8fceedd41dff5f164ec29f5c4727",
	"hexagon/d5/X":                                "181fed843d362a2560f8c2c4bc5adfb109eb66f218973665c544e5d7b8e167d9",
	"octagon/d3/Z":                                "8f541372ffeef974e024232ab9eec16440e250dbb6440f3665294fe4681af10a",
	"octagon/d3/X":                                "bc6da0af4ec4991830b1fec4de3b0470ecd3ef54ea6ee372a201450bc3d9e5a3",
	"octagon/d5/Z":                                "68d62b5d969a1e3561d404a9dc3af9c697ce05a7b87a5e8f83aaada44e4af8ce",
	"octagon/d5/X":                                "a95304abb4cc996c869547916bd14782b8ad8620c80e1fe97d487f709a4ad72a",
	"heavy-square/d3/Z":                           "5215b6325769d183c88bd5680c157d8f233e7f92c704264d989b07e8a9c1d01e",
	"heavy-square/d3/X":                           "c372416190d322a16c535a0c508b065b9f898f23c2d1450523c011f6ee4ba3bc",
	"heavy-square/d5/Z":                           "d0ee2fc1b78f5c88651104655a03a37c0ef7011bcd2071f2e4f589c800d98424",
	"heavy-square/d5/X":                           "c37be0b6fec92ca430ca7677dc11d791377d4a32de86ec0aaea774265a274c5f",
	"heavy-hexagon/d3/Z":                          "3434de221e60df41e6b9c11575fce7dc4edfbe7d7ff31d98f15924df50735efc",
	"heavy-hexagon/d3/X":                          "a9a6fd2cbfbc76e180a2bbe3f1b000351569d045bb07791e3c22d85e6293cc35",
	"heavy-hexagon/d5/Z":                          "8d8ed854d0a51263c099f6fbebbd9139bdfcac3f6a7c6fa1aa07715731d71153",
	"heavy-hexagon/d5/X":                          "9b8273549b8c36a278b433678d9d7ce2cb1dde5e7775786de39a4f72e1573d43",
	"degraded/octagon/d3/Z":                       "2486fa07f81636bbc19064a67bcdd9d4d1bb872c785bcb40f27d84353858f082",
	"degraded/octagon/d3/X":                       "58adc6c47264d6c8ba52cbe861aaaea2f8aeffab7fbfeda0159f4b0beb77bc47",
	"degraded/heavy-hexagon/d3/Z":                 "499209293b2b6df2491ed07a80259e11a5aefc6cb3bc3f345811300a8c7736c1",
	"degraded/heavy-hexagon/d3/X":                 "a1c6ff0a1480e224b05f758ab35a15c836a36f4e59aaa632561f93e985bd3d14",
	"calibrated/square/d5/median-2/Z":             "88fe6c16664ab9d9e38b4b6764d732d930adaca2b8c1580bf8d01be733c8424b",
	"calibrated/hexagon/d5/median-2/Z":            "3019dd29f611667f8a9b6f32b40e6228d4ff8fceedd41dff5f164ec29f5c4727",
	"calibrated/octagon/d5/median-2/Z":            "f56e11abd946c3fdf5180aafe87d50f26bf41140631cf760817543cc51db344e",
	"calibrated/heavy-square/d5/median-2/Z":       "d0ee2fc1b78f5c88651104655a03a37c0ef7011bcd2071f2e4f589c800d98424",
	"calibrated/heavy-hexagon/d5/median-2/Z":      "8d8ed854d0a51263c099f6fbebbd9139bdfcac3f6a7c6fa1aa07715731d71153",
	"calibrated/octagon/d5/bad-1/Z":               "4a7b1d3ab0aaa8e186c877dd1d0c20fd829f3eca6293afc2eaba3d52f9c27fad",
	"calibrated/octagon/d3/median-2/cooptimize/Z": "83e66c6eeb5fa74d02726ad194d15538e77918c47a96a34eba3f634ff2945252",
	"surgery/ZZ/d3":                               "d7188fe722e239a2d9357d0b92881af6471c64607b68793872608d66d653910b",
	"surgery/XX/d3":                               "710b75bdb715c38cade2fc12d525f96e57509e21328a39d60c044a3999bd3bc7",
}

// TestMemoryCircuitGoldens holds the surface-code circuit assembler
// bit-identical on pristine memories of every tiling at d=3 and d=5 in both
// bases, on two degraded syntheses that drop stabilizers, on seven
// syntheses routed on calibrated devices, and on the 2-patch ZZ and XX
// surgery experiments at d=3.
func TestMemoryCircuitGoldens(t *testing.T) {
	ctx := context.Background()
	check := func(name string, c *circuit.Circuit, detectorRound []int) {
		t.Helper()
		got := circuitDigest(c, detectorRound)
		want, ok := goldenCircuits[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest; got %q", name, got)
		case got != want:
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
	memories := func(prefix string, s *synth.Synthesis, d int) {
		t.Helper()
		for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
			mem, err := experiment.NewMemory(s, d, experiment.Options{Basis: basis})
			if err != nil {
				t.Fatalf("%s/%v memory: %v", prefix, basis, err)
			}
			check(fmt.Sprintf("%s/%v", prefix, basis), mem.Circuit, mem.DetectorRound)
		}
	}

	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5} {
			s, err := synth.Synthesize(ctx, devicetest.ForDistance(t, kind, d), d, synth.Options{})
			if err != nil {
				t.Fatalf("synthesize %v d=%d: %v", kind, d, err)
			}
			memories(fmt.Sprintf("%v/d%d", kind, d), s, d)
		}
	}

	for _, tc := range []struct {
		kind    device.Kind
		density float64
		seed    int64
	}{
		{device.KindOctagon, 0.08, 7},
		{device.KindHeavyHexagon, 0.05, 1},
	} {
		dev, _, err := synth.FitDevice(tc.kind, 3, synth.ModeDefault)
		if err != nil {
			t.Fatalf("fit %v: %v", tc.kind, err)
		}
		dev = devicetest.Damaged(t, dev, "random", tc.density, tc.seed)
		s, err := synth.SynthesizeDegraded(ctx, dev, 3, synth.Options{})
		if err != nil {
			t.Fatalf("degraded %v: %v", tc.kind, err)
		}
		if s.Degradation == nil || s.Degradation.DroppedCount() == 0 {
			t.Fatalf("degraded %v: no stabilizer dropped; the case no longer exercises degradation", tc.kind)
		}
		memories(fmt.Sprintf("degraded/%v/d3", tc.kind), s, 3)
	}

	// Calibrated devices route every bridge tree on the defect-weighted
	// Dijkstra, with each hop priced from the snapshot's qubit and coupler
	// figures; only the Z-basis memory is pinned. Co-optimization accepts a
	// move on the calibrated octagon at d=3, so that case pins the
	// co-optimizer's blocked re-routing as well.
	for _, tc := range []struct {
		kind     device.Kind
		d        int
		snapshot string
		seed     int64
		opts     synth.Options
		suffix   string
	}{
		{device.KindSquare, 5, "median", 2, synth.Options{}, ""},
		{device.KindHexagon, 5, "median", 2, synth.Options{}, ""},
		{device.KindOctagon, 5, "median", 2, synth.Options{}, ""},
		{device.KindHeavySquare, 5, "median", 2, synth.Options{}, ""},
		{device.KindHeavyHexagon, 5, "median", 2, synth.Options{}, ""},
		{device.KindOctagon, 5, "bad", 1, synth.Options{}, ""},
		{device.KindOctagon, 3, "median", 2, synth.Options{CoOptimize: true}, "/cooptimize"},
	} {
		dev := devicetest.ForDistance(t, tc.kind, tc.d)
		cal, err := device.GenerateCalibration(dev, tc.snapshot, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if dev, err = dev.WithCalibration(cal); err != nil {
			t.Fatal(err)
		}
		s, err := synth.Synthesize(ctx, dev, tc.d, tc.opts)
		if err != nil {
			t.Fatalf("calibrated %v: %v", tc.kind, err)
		}
		mem, err := experiment.NewMemory(s, tc.d, experiment.Options{Basis: experiment.BasisZ})
		if err != nil {
			t.Fatalf("calibrated %v memory: %v", tc.kind, err)
		}
		check(fmt.Sprintf("calibrated/%v/d%d/%s-%d%s/Z", tc.kind, tc.d, tc.snapshot, tc.seed, tc.suffix), mem.Circuit, mem.DetectorRound)
	}

	for _, tc := range []struct {
		joint surgery.Joint
		dev   *device.Device
		b     surgery.PatchSpec
	}{
		{surgery.JointZZ, device.HeavySquare(4, 7), surgery.PatchSpec{Name: "b", Row: 1, Distance: 3}},
		{surgery.JointXX, device.HeavySquare(7, 4), surgery.PatchSpec{Name: "b", Col: 1, Distance: 3}},
	} {
		spec := surgery.Spec{
			Patches: []surgery.PatchSpec{{Name: "a", Distance: 3}, tc.b},
			Ops:     []surgery.Op{{A: 0, B: 1, Joint: tc.joint}},
		}
		p, err := surgery.Pack(ctx, tc.dev, spec, synth.Options{})
		if err != nil {
			t.Fatalf("pack %v: %v", tc.joint, err)
		}
		e, err := surgery.NewExperiment(p, surgery.Options{})
		if err != nil {
			t.Fatalf("surgery %v: %v", tc.joint, err)
		}
		check(fmt.Sprintf("surgery/%v/d3", tc.joint), e.Circuit, e.DetectorRound)
	}
}
