package dem_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/synth"
)

// digest is a SHA-256 over everything a model says: its detector and
// observable counts and, in order, every mechanism's detectors, observable
// mask and the exact bits of its probability. Two models share a digest
// only if they are bit-identical, mechanism order included, which the
// decoder's XOR-merge of parallel edges depends on.
func digest(m *dem.Model) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.NumDetectors))
	put(uint64(m.NumObservables))
	put(uint64(len(m.Mechanisms)))
	for _, mech := range m.Mechanisms {
		put(uint64(len(mech.Detectors)))
		for _, d := range mech.Detectors {
			put(uint64(d))
		}
		put(mech.Obs)
		put(math.Float64bits(mech.Prob))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests holds the digest of every model TestDEMGoldenDigests
// extracts. Keys name the tiling, distance and either the memory basis and
// uniform gate error, or the calibration snapshot. A change to FromCircuit
// that moves any of them changes decoder weights and seeded curves.
var goldenDigests = map[string]string{
	"square/d3/Z/p0.001":        "4f91579a71afff1665b4445cad92e2851274f761be0c326315a036c7db677298",
	"square/d3/Z/p0.002":        "8660b4c3a046a04853d9a5205c805dd5443491c464ee8a969cadd1539880d708",
	"square/d3/Z/p0.005":        "caeb31b78c5eecf373c21d79b7870ceeb597a5eee6aa9c7fa9ae83aa4ba35bda",
	"square/d3/X/p0.001":        "8958bb3ed96aea3753511e659afb185d5e151860e210c400ff7db3e05955f9b6",
	"square/d3/X/p0.002":        "7c5916aab6760ff73fe295983aeaa28d69d52d04cc16e6e3f1481c8a32db040b",
	"square/d3/X/p0.005":        "dd62aa74c6d0c8046c71ae75726cfafb0b0700a8db311f791be237146fd12a8e",
	"square/d5/Z/p0.001":        "a9923a9989abf20c67f63382c377806cc819e2ebc5bd458276b3a3feb6bf3a77",
	"square/d5/Z/p0.002":        "ffc8820dc1d6276b4c144e869080ad84dd3b8d68fbc25530a539920f0d444501",
	"square/d5/Z/p0.005":        "3bfa4b85b6c7a1cbc134720e6a1c69470b3760a4ec5e3ee58060cc8b38e468dc",
	"square/d5/X/p0.001":        "4b8e28e6c3b8df2e06a9350c78e2414f812d4cfe11032230721bd5d42b7b9294",
	"square/d5/X/p0.002":        "8af958b3c4d4a07bb4ab9d373bfb2e774297dd2a065780d2f769eb9f44a72391",
	"square/d5/X/p0.005":        "f73c8dff27a1e9bdf0972d3f0ecf9fa87582dd15ad02dfca7c10e45c20155899",
	"hexagon/d3/Z/p0.001":       "05e3065df33d1d7adfa262bbf284dbb014084e553a7dd082be62208ffc8a890d",
	"hexagon/d3/Z/p0.002":       "18b6fe6f3a7f9b02ecd0cfafacdf57173e82ad03626d5921877e2bc888baca5c",
	"hexagon/d3/Z/p0.005":       "535a029d0834b5f831749acd07d90272f9bf78ac461869df1e20486c928b7a01",
	"hexagon/d3/X/p0.001":       "01e5509fac0953132c165f8d7e60de435080d627a0ff405c2b8b8b63985a281b",
	"hexagon/d3/X/p0.002":       "f2af929d05163b6ead86727960d75bf2dc1c3b0c68734900754e9b4134a8f40d",
	"hexagon/d3/X/p0.005":       "72dce5c75a786c8c9da5dbeca8f30ba841954789558117fab18c652349036166",
	"hexagon/d5/Z/p0.001":       "ef44a9cd567d77fb7135dcc907518baf2faa67b4490923b4a0af56bc39d9a754",
	"hexagon/d5/Z/p0.002":       "1add13b1cd88a1fe234b989a8462a2ef083a74addb198db4491a3de74ae82bf1",
	"hexagon/d5/Z/p0.005":       "5deb36a127b265d21aee0348da2b46ba1b673debbf6c559062372a40f7101037",
	"hexagon/d5/X/p0.001":       "f32fc21daf87682d9067574c6ebd650c818fc151c77f6a8acbf2a22e1a6d749e",
	"hexagon/d5/X/p0.002":       "dee7747c375f05747c25b499c256f6f07773c1c26f7a88c6909aed7f6c224d4f",
	"hexagon/d5/X/p0.005":       "635a96ae64f993b75a6d79d028ac9058432f73cadbd059e586c5830176723aa5",
	"octagon/d3/Z/p0.001":       "e7697a2e6ffec43a6d916ce0f06f5120544105f3b5113428f07f4aa6dfa590ab",
	"octagon/d3/Z/p0.002":       "06c0af3b94d54b092cd4c655325ae3bc7b21f539f9ce4908d70ed894c3262f06",
	"octagon/d3/Z/p0.005":       "6b06fb9aaa43f0890873f7a20c02b407ae6f73339b39d03c7ef16b79b2ba4558",
	"octagon/d3/X/p0.001":       "8f8c09d69f98cea2473de1e6a89362ceed4bbdd4964a850da86217e00f556c10",
	"octagon/d3/X/p0.002":       "ede6f668a6fd092c0a3d848995b1ebea4a59d9f59dd874aff01484b70acf0aa3",
	"octagon/d3/X/p0.005":       "10d7764ba7eeaf5ee001c7adb34276366020f3a9177ea91a2163f91d966a77a3",
	"octagon/d5/Z/p0.001":       "eb1a755b7e71696125c80239d269514127d0dca2882453d3646e364039bdcb1a",
	"octagon/d5/Z/p0.002":       "a5f90d50241775c2a09e46f13593a821aeef37cfa81c3b9225bc970529092faf",
	"octagon/d5/Z/p0.005":       "9f3008dc54740e16e7877e6f600781094d87929f359352f470aa8ffa448e9f8e",
	"octagon/d5/X/p0.001":       "18c4424b6f139d91716b8316ea67640fc507874f3e534228dce77d358a02cb7b",
	"octagon/d5/X/p0.002":       "2a11a6cd3746b1c13193adedabe886080124189424cac1cfea359ba6d91f6ddd",
	"octagon/d5/X/p0.005":       "fd8f74a67adada374b25fe49ef8f2fefcc82c7e7d6ed72193d98f415d3294338",
	"heavy-square/d3/Z/p0.001":  "26133f8162bd6d886085fc0c3a8b85fd2d7be584c0317642e614b508159d25e8",
	"heavy-square/d3/Z/p0.002":  "4e75bb605dfab07089b2aec6601140367154941d5c14494d425be6aacd7aace2",
	"heavy-square/d3/Z/p0.005":  "8aaffd2eda98c4bd4dcb5fcf401290efb1ab089ec7091452c4e6cb129799584c",
	"heavy-square/d3/X/p0.001":  "05ec158f19886aab839ef48bdfe1e0768a3a94d288d6cdd3bf418f34a96e6a0e",
	"heavy-square/d3/X/p0.002":  "705a203e7f4e780c11f692205563af4d971424da81b570143c72f8f9c3b808e0",
	"heavy-square/d3/X/p0.005":  "5b62b407f61d2eaa891624c432023ee9e2a9d0984f1c320f890077186b84db9f",
	"heavy-square/d5/Z/p0.001":  "ec24c2dcb76516091564e1fed9e63c2a5e14abcef31c46350de47a4c40be82e6",
	"heavy-square/d5/Z/p0.002":  "4c568064bef3f1320d6bd8e766a7b3bdbaff1229f81dd9d61a61adac515e88b9",
	"heavy-square/d5/Z/p0.005":  "84c46035ded4a0c2c293624a96cb368505513c4c44f99967a6ca55de85d438ed",
	"heavy-square/d5/X/p0.001":  "0da0044da85ac055a09c67df1a62bbe0f1b93733778c413479d14798a4ef2dc4",
	"heavy-square/d5/X/p0.002":  "457c6563724c173a6093a16155c1bf87fd0c5c27578138c9b8f37ba205ea8f95",
	"heavy-square/d5/X/p0.005":  "81d72bc3cd6838a559ea4e05d963fc8edb84556c4fcd3a1f6adb76344458aff9",
	"heavy-hexagon/d3/Z/p0.001": "8279367989c8394184b10cc3820c8d7ae2f4f2a2a7e05e3d935dc19ce4521bcd",
	"heavy-hexagon/d3/Z/p0.002": "698b9d66fcde64769c995bb0563e4336b0abd3326ecd4bbb2f193146e7a62e82",
	"heavy-hexagon/d3/Z/p0.005": "04cd5c2d630e6e18f69132c03e384c38d30842d7fcda7ce981e8e68f014489da",
	"heavy-hexagon/d3/X/p0.001": "e4bfef1747f87068874fe96748ef3478fddd8dd84ca0a37bf1e43b3b34dd2ead",
	"heavy-hexagon/d3/X/p0.002": "a1e9d15bac05f1f2dc6afa5f0d5d5de6ae4cbe8abe8cdf4924482b96b99f4bf9",
	"heavy-hexagon/d3/X/p0.005": "27578fee9a0df01c908cecf200ce0026f43258bb0c7ac26a2f801e724b4b211d",
	"heavy-hexagon/d5/Z/p0.001": "26ed88bb027967e42f0fd4b2aa9e96a28f3d6bfde8edeb0a7eb73067896aed2f",
	"heavy-hexagon/d5/Z/p0.002": "f24c0ec30123c96bb72f314b3c0398e53cf86438df64fdbf6dc12fd10639b803",
	"heavy-hexagon/d5/Z/p0.005": "e3e827df625669284ecd0a41a61eddaf4661c226a9268c062d8d7b658661d3a7",
	"heavy-hexagon/d5/X/p0.001": "a4edbad2c9572d54da686ceb2214605b08e4dc77fdf229d8aae63b30df16b985",
	"heavy-hexagon/d5/X/p0.002": "155018612299b79851b1faa6c8d649626f18b4ed8be0cf0353e3c50d577ee787",
	"heavy-hexagon/d5/X/p0.005": "6ae64ebea1d890a3189d931dc0fb85d002d43318df500ba13c46a474b52ef3fb",
	"heavy-square/d3/good":      "3c138001fff013c5f818b53189c43899891501cd986fc8eadb24448509f6e463",
	"heavy-square/d3/median":    "06692f0bf94be055847b9541779a11b7966ce3ef621748b988e524843b50b26b",
	"heavy-square/d3/bad":       "d5e69c9ad4ac964e13ccfff7f678380040d5944216597298fc9f76d9765ea005",
}

// synthesize synthesizes the distance-d code on the smallest recorded
// tiling of the architecture.
func synthesize(tb testing.TB, kind device.Kind, d int) *synth.Synthesis {
	tb.Helper()
	layout, err := synth.Allocate(context.Background(), devicetest.ForDistance(tb, kind, d), d, synth.ModeDefault)
	if err != nil {
		tb.Fatalf("allocate %v d=%d: %v", kind, d, err)
	}
	s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		tb.Fatalf("synthesize %v d=%d: %v", kind, d, err)
	}
	return s
}

// checkDigest compares a model's digest against its golden value.
func checkDigest(t *testing.T, name string, m *dem.Model) {
	t.Helper()
	got := digest(m)
	want, ok := goldenDigests[name]
	if !ok {
		t.Errorf("%s: no golden digest; got %q", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: digest %s, want %s", name, got, want)
	}
}

// TestDEMGoldenDigests holds FromCircuit bit-identical on the synthesized
// memories of all five tilings at d=3 and d=5, in both bases, at three
// uniform gate errors, and on calibration-driven noise from the good, median
// and bad snapshots of one tiling.
func TestDEMGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse x*y+z into one instruction on other architectures,
		// which moves the last bits of merged probabilities.
		t.Skip("golden digests are recorded on amd64")
	}
	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5} {
			s := synthesize(t, kind, d)
			for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
				mem, err := experiment.NewMemory(s, d, experiment.Options{SkipVerify: true, Basis: basis})
				if err != nil {
					t.Fatalf("memory %v d=%d %v: %v", kind, d, basis, err)
				}
				for _, p := range []float64{0.001, 0.002, 0.005} {
					c, err := mem.Noisy(noise.Uniform(p))
					if err != nil {
						t.Fatal(err)
					}
					m, err := dem.FromCircuit(c)
					if err != nil {
						t.Fatal(err)
					}
					checkDigest(t, fmt.Sprintf("%v/d%d/%v/p%g", kind, d, basis, p), m)
				}
			}
		}
	}

	dev := devicetest.ForDistance(t, device.KindHeavySquare, 3)
	for _, snap := range device.CalibrationSnapshots() {
		cal, err := device.GenerateCalibration(dev, snap, 1)
		if err != nil {
			t.Fatal(err)
		}
		calDev, err := dev.WithCalibration(cal)
		if err != nil {
			t.Fatal(err)
		}
		s, err := synth.Synthesize(context.Background(), calDev, 3, synth.Options{})
		if err != nil {
			t.Fatalf("synthesize on %s snapshot: %v", snap, err)
		}
		mem, err := experiment.NewMemory(s, 3, experiment.Options{SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		applier, err := noise.BuilderFor(calDev)(noise.ReferenceRate(cal), noise.DefaultIdleError, s.AllQubits())
		if err != nil {
			t.Fatal(err)
		}
		c, err := applier.Apply(mem.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dem.FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, fmt.Sprintf("%v/d3/%s", device.KindHeavySquare, snap), m)
	}
}
