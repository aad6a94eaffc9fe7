//go:build !race

package surgery_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/flagbridge"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// The placement goldens pin every outcome of the placement search: the
// layouts Allocate, AllocateRelaxed and FitDevice choose, the syntheses
// Synthesize and SynthesizeDegraded build on them, and the multi-patch
// placements Pack finds. Each outcome is written out field by field — a
// layout's base, basis, score, data qubits, data flags and rectangles, every
// tree's root and edges, the schedule by stabilizer index, the degradation —
// or, for a failure, the error's full text, which carries a PlacementError's
// anchor and lattice counts. A group's digest is a SHA-256 over its
// outcomes in order.

// dumpLayout writes a layout's embedding and rectangles.
func dumpLayout(w io.Writer, l *synth.Layout) {
	fmt.Fprintf(w, "layout base %v u %v v %v score %d\n", l.Base, l.U, l.V, l.Score)
	fmt.Fprintf(w, "  data %v\n", l.DataQubit)
	var marked []int
	for q, on := range l.IsData {
		if on {
			marked = append(marked, q)
		}
	}
	fmt.Fprintf(w, "  isdata %v\n  rects %v\n", marked, l.Rects)
}

// dumpSynthesis writes a synthesis: its layout, trees, schedule and
// degradation.
func dumpSynthesis(w io.Writer, s *synth.Synthesis) {
	dumpLayout(w, s.Layout)
	index := map[*flagbridge.Plan]int{}
	for si, t := range s.Trees {
		if t == nil {
			fmt.Fprintf(w, "  tree %d dropped\n", si)
			continue
		}
		index[s.Plans[si]] = si
		fmt.Fprintf(w, "  tree %d root %d edges %v\n", si, t.Root, t.Edges())
	}
	for i, set := range s.Schedule {
		ids := make([]int, len(set))
		for k, p := range set {
			ids[k] = index[p]
		}
		fmt.Fprintf(w, "  set %d %v\n", i, ids)
	}
	fmt.Fprintf(w, "  steps %d\n", s.Schedule.TotalSteps())
	if dg := s.Degradation; dg != nil {
		fmt.Fprintf(w, "  degradation %+v\n", *dg)
	}
}

// dumpPlacement writes a multi-patch placement: its basis and score, every
// patch synthesis, and every merge's synthesis, seam and attribution.
func dumpPlacement(w io.Writer, p *surgery.Placement) {
	fmt.Fprintf(w, "placement base %v u %v v %v score %d\n", p.Base, p.U, p.V, p.Score)
	for i, s := range p.Patches {
		fmt.Fprintf(w, " patch %d\n", i)
		dumpSynthesis(w, s)
	}
	for i, m := range p.Merges {
		fmt.Fprintf(w, " merge %d seam %v owners %v %v\n", i, m.Seam, m.OwnerPatch, m.OwnerStab)
		dumpSynthesis(w, m.Synth)
	}
}

// outcome writes one labelled result: the dump of v, or the error's text.
func outcome[T any](w io.Writer, label string, v T, err error, dump func(io.Writer, T)) {
	fmt.Fprintf(w, "== %s\n", label)
	if err != nil {
		fmt.Fprintf(w, "error %s\n", err.Error())
		return
	}
	dump(w, v)
}

// placementGroup is one golden entry: a named slice of the matrix.
type placementGroup struct {
	name string
	d    int
	run  func(t *testing.T, w io.Writer)
}

var kinds = device.AllKinds()

// tilingGroups: Allocate and Synthesize on each tiling's recorded minimal
// device in both modes, and Allocate on a tiling one column too narrow.
func tilingGroups(d int) []placementGroup {
	var out []placementGroup
	for _, kind := range kinds {
		out = append(out, placementGroup{fmt.Sprintf("tiling/%v/d%d", kind, d), d, func(t *testing.T, w io.Writer) {
			dev := devicetest.ForDistance(t, kind, d)
			wd, ht, _ := devicetest.Sizes(kind, d)
			small := device.ByKind(kind, wd-1, ht)
			for _, mode := range []synth.Mode{synth.ModeDefault, synth.ModeFour} {
				l, err := synth.Allocate(context.Background(), dev, d, mode)
				outcome(w, fmt.Sprintf("allocate %v", mode), l, err, dumpLayout)
				s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{Mode: mode})
				outcome(w, fmt.Sprintf("synthesize %v", mode), s, err, dumpSynthesis)
				l, err = synth.Allocate(context.Background(), small, d, mode)
				outcome(w, fmt.Sprintf("allocate small %v", mode), l, err, dumpLayout)
			}
		}})
	}
	return out
}

// calibratedGroups: Synthesize under every calibration snapshot, seeds 1–3,
// with the co-optimizer on seed 1 as well.
func calibratedGroups(d int) []placementGroup {
	var out []placementGroup
	for _, kind := range kinds {
		out = append(out, placementGroup{fmt.Sprintf("calibrated/%v/d%d", kind, d), d, func(t *testing.T, w io.Writer) {
			base := devicetest.ForDistance(t, kind, d)
			for _, snap := range device.CalibrationSnapshots() {
				for seed := int64(1); seed <= 3; seed++ {
					cal, err := device.GenerateCalibration(base, snap, seed)
					if err != nil {
						t.Fatal(err)
					}
					dev, err := base.WithCalibration(cal)
					if err != nil {
						t.Fatal(err)
					}
					s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{})
					outcome(w, fmt.Sprintf("%s seed %d", snap, seed), s, err, dumpSynthesis)
					if seed == 1 {
						s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{CoOptimize: true})
						outcome(w, fmt.Sprintf("%s seed %d co-optimized", snap, seed), s, err, dumpSynthesis)
					}
				}
			}
		}})
	}
	return out
}

// defectCase runs the strict, relaxed and degraded searches on one defect
// preset and reports whether the strict search found no placement.
func defectCase(t *testing.T, w io.Writer, kind device.Kind, d int, gen string, density float64, seed int64) bool {
	base := devicetest.ForDistance(t, kind, d)
	ds, err := device.GenerateDefects(base, gen, density, seed)
	if err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("%s %.2f seed %d", gen, density, seed)
	dev, err := base.WithDefects(ds)
	if err != nil {
		fmt.Fprintf(w, "== %s\nerror %s\n", label, err.Error())
		return false
	}
	ctx := context.Background()
	l, err := synth.Allocate(ctx, dev, d, synth.ModeDefault)
	outcome(w, label+" allocate", l, err, dumpLayout)
	strictFailed := errors.Is(err, synth.ErrNoPlacement)
	l, err = synth.AllocateRelaxed(ctx, dev, d, synth.ModeDefault)
	outcome(w, label+" relaxed", l, err, dumpLayout)
	s, err := synth.SynthesizeDegraded(ctx, dev, d, synth.Options{})
	outcome(w, label+" degraded", s, err, dumpSynthesis)
	return strictFailed
}

var (
	defectGens      = device.GeneratorNames()
	defectDensities = []float64{0.04, 0.06, 0.08, 0.10}
)

// defectGroups: every defect generator at densities 0.04–0.10, seeds 1–6.
// It counts the presets on which the strict search fails, so that the
// relaxed fallback stays exercised.
func defectGroups(d int, strictFailures *int) []placementGroup {
	var out []placementGroup
	for _, kind := range kinds {
		for _, gen := range defectGens {
			out = append(out, placementGroup{fmt.Sprintf("defects/%v/d%d/%s", kind, d, gen), d, func(t *testing.T, w io.Writer) {
				for _, density := range defectDensities {
					for seed := int64(1); seed <= 6; seed++ {
						if defectCase(t, w, kind, d, gen, density, seed) {
							*strictFailures++
						}
					}
				}
			}})
		}
	}
	return out
}

// retryAnchorGroup repeats the two presets on which the strict search is
// won by a retry anchor rather than the canonical top-left one, so a change
// to the anchor walk shows under its own name.
func retryAnchorGroup() placementGroup {
	return placementGroup{"retry-anchor/heavy-hexagon/d3", 3, func(t *testing.T, w io.Writer) {
		for _, density := range []float64{0.08, 0.10} {
			defectCase(t, w, device.KindHeavyHexagon, 3, "clustered", density, 6)
		}
	}}
}

// fitGroup: FitDevice on every tiling in both modes.
func fitGroup(d int) placementGroup {
	return placementGroup{fmt.Sprintf("fit/d%d", d), d, func(t *testing.T, w io.Writer) {
		for _, kind := range kinds {
			for _, mode := range []synth.Mode{synth.ModeDefault, synth.ModeFour} {
				dev, l, err := synth.FitDevice(kind, d, mode)
				outcome(w, fmt.Sprintf("%v %v", kind, mode), l, err, func(w io.Writer, l *synth.Layout) {
					fmt.Fprintf(w, "device %s\n", dev.Name())
					dumpLayout(w, l)
				})
			}
		}
	}}
}

func twoPatch(d int, j surgery.Joint) surgery.Spec {
	b := surgery.PatchSpec{Name: "b", Row: 1, Col: 0, Distance: d}
	if j == surgery.JointXX {
		b.Row, b.Col = 0, 1
	}
	return surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: d}, b},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: j}},
	}
}

// packSizes records, per distance and tiling, the smallest device (by the
// growing side) that packs a ZZ pair and an XX pair of patches.
var packSizes = map[int]map[device.Kind][2][2]int{
	3: {
		device.KindSquare:       {{4, 6}, {6, 4}},
		device.KindHexagon:      {{4, 6}, {6, 6}},
		device.KindOctagon:      {{4, 7}, {7, 4}},
		device.KindHeavySquare:  {{4, 6}, {6, 3}},
		device.KindHeavyHexagon: {{4, 6}, {4, 5}},
	},
	5: {
		device.KindSquare:       {{8, 10}, {20, 4}},
		device.KindHexagon:      {{6, 10}, {15, 4}},
		device.KindOctagon:      {{5, 11}, {11, 5}},
		device.KindHeavySquare:  {{5, 10}, {11, 4}},
		device.KindHeavyHexagon: {{5, 10}, {11, 4}},
	},
}

// packGroups: Pack with the co-optimizer off and on, for ZZ and XX on every
// tiling, on the ZZ device one row short, on a calibrated device and for a
// three-patch layout.
func packGroups(d int) []placementGroup {
	var out []placementGroup
	packBoth := func(w io.Writer, label string, dev *device.Device, spec surgery.Spec) {
		for _, co := range []bool{false, true} {
			p, err := surgery.Pack(context.Background(), dev, spec, synth.Options{CoOptimize: co})
			outcome(w, fmt.Sprintf("%s on %s co-optimize %v", label, dev.Name(), co), p, err, dumpPlacement)
		}
	}
	for _, kind := range kinds {
		out = append(out, placementGroup{fmt.Sprintf("pack/%v/d%d", kind, d), d, func(t *testing.T, w io.Writer) {
			sizes := packSizes[d][kind]
			for i, j := range []surgery.Joint{surgery.JointZZ, surgery.JointXX} {
				packBoth(w, j.String(), device.ByKind(kind, sizes[i][0], sizes[i][1]), twoPatch(d, j))
			}
			packBoth(w, "ZZ too small", device.ByKind(kind, sizes[0][0], sizes[0][1]-1), twoPatch(d, surgery.JointZZ))
		}})
	}
	out = append(out, placementGroup{fmt.Sprintf("pack/extra/d%d", d), d, func(t *testing.T, w io.Writer) {
		sq := device.Square(4*d, 5*d-1)
		cal, err := device.GenerateCalibration(sq, "median", 1)
		if err != nil {
			t.Fatal(err)
		}
		calibrated, err := sq.WithCalibration(cal)
		if err != nil {
			t.Fatal(err)
		}
		packBoth(w, "ZZ calibrated", calibrated, twoPatch(d, surgery.JointZZ))
		three := twoPatch(d, surgery.JointZZ)
		three.Patches = append(three.Patches, surgery.PatchSpec{Name: "c", Row: 0, Col: 1, Distance: d})
		packBoth(w, "three patches", device.Square(8*d, 5*d-1), three)
	}})
	return out
}

// placementGoldens holds each group's digest. A change to the placement
// search that moves any of them changes which qubits a code occupies.
var placementGoldens = map[string]string{
	"tiling/heavy-hexagon/d3":            "78875b9d391a7dc0cfcfda19d39c1552bc56b0b31216c5ea9f83a6ca9d14796d",
	"tiling/heavy-hexagon/d5":            "8503e72c72ed9823cfcac9cfbe8545bb2ea9af3c022e1995bf44fa01079e6ec6",
	"tiling/heavy-hexagon/d7":            "100d786b2dbc2f6d4b6ef0f6d1383f0b76a82f8a9fbd7a803acabfeecb266617",
	"tiling/heavy-square/d3":             "03133c9386ff9e36bd6a17a9434a511d41e99a2a6df4e4170018f532e96cb08e",
	"tiling/heavy-square/d5":             "170ed92ed973d39f3448fdb0cc1e5970350bfb1bc076885907b8ec864d826e2a",
	"tiling/heavy-square/d7":             "7158dfa7d78f0c972d1fdb26c3342f48fb52894c0575104e4928497bd2717179",
	"tiling/hexagon/d3":                  "a8418c6526c20004048aab827f065a978348867844c1fb16e1cba7fb2beb080d",
	"tiling/hexagon/d5":                  "16a958278da963362f0297e61f0e03d25bc70dec1e874d42351b8ab96edb8d71",
	"tiling/hexagon/d7":                  "82e9c0113afe77508f04cda4af42a06ba5c4c081e644d97880ff540e8978ee1b",
	"tiling/octagon/d3":                  "2f1436b26883a8bd67236c7cc4b9432bf76a1f0fec8bda295beccdb379c44d41",
	"tiling/octagon/d5":                  "a6bb1d312ec04c3a873d937c174ffee43a4aadfed4211d11e6e92381d5d8adb3",
	"tiling/octagon/d7":                  "058f6e71b6d300dfb7e029331f72faf0dd0459f08d9ae7e23be557594ff872f7",
	"tiling/square/d3":                   "a61a03e5a1f7b1f6bd42ac2549b26fb105ae9cce978e6ca88714adfc8b552178",
	"tiling/square/d5":                   "5a7b8ec4e863d625b18bd73ca102b2e4153f3f21d122a18125d5cfc7e21a2077",
	"tiling/square/d7":                   "9bd4d470af9dd03a4c82d32251cc50dfa577f9cd699b54ea065582af6a70496e",
	"calibrated/heavy-hexagon/d3":        "e01897de91cf5c81d05d9661e439083b9b21ea4ff627d32122d544092a06470e",
	"calibrated/heavy-hexagon/d5":        "c4f39bb78163abb3673cd9395df10069b928507cc6e5a26895f18a0d733923dc",
	"calibrated/heavy-square/d3":         "1046c58abcd6239f791218a12b01915d6049eff2b3df9dfbb43bcfa60852256b",
	"calibrated/heavy-square/d5":         "c37439c0832e393fc0889dd2c2ffa7d6d400d3ca116d781689357243f33f3cd6",
	"calibrated/hexagon/d3":              "fdd4051f9cecaf342e1bc2cd97f7f787a85bbbecd62df1e6034487b97c9e0bc3",
	"calibrated/hexagon/d5":              "f747dd484f7013415b3db3904f44f33df511da28787d4a23137a1c3fd445a3b3",
	"calibrated/octagon/d3":              "5c2490158eeb6efc3133a5b53c10251c85854983f4a03b2b7457e42e750f3547",
	"calibrated/octagon/d5":              "00525154f5fdfc6da376d1ab47267fc3c84c8fa3981630d5fd78ab1981cc55b4",
	"calibrated/square/d3":               "c67fee9a70e7c1722470743170ff42e6352b3fd948c56859c880e57b673db464",
	"calibrated/square/d5":               "17a00f4bd7c91b26ff0001b1d2a6d5f136f80f71e566324813e2be24ad23439d",
	"defects/heavy-hexagon/d3/clustered": "32f8ce003c4bf5d11ba72e038427ca736c6abdb1f86acc29a16c5a8b4c22ffeb",
	"defects/heavy-hexagon/d3/edge":      "7094aa812fc54a739dda1a1cfd1ae3e2e1ae6912d6213d410246045363b4a356",
	"defects/heavy-hexagon/d3/random":    "50e2b22a82c0cd29a8c7ed1b26b16d5feaa8a4e9fc403586c86a94aa6d3beb23",
	"defects/heavy-hexagon/d5/clustered": "5713a5555dcaa919bde37d2b1159aee74a850027e093c6edcfbc256f76793227",
	"defects/heavy-hexagon/d5/edge":      "fdc531c3398767c625a448a7b145b9ba58452eb9d1b4659c0b24d247fb8f1550",
	"defects/heavy-hexagon/d5/random":    "7b90c6d054ac5d4ced777134c54cf3c230d051d151da6a9e308fd65c4f39a1ee",
	"defects/heavy-square/d3/clustered":  "4a678f86c48939e41e504afff1fa81981c56f62ca982933a033239e847a4d896",
	"defects/heavy-square/d3/edge":       "9c049be6b61f7fa2e8856595a28b8c51f1cd6cdd63b4d749e3edc2c4a91368b5",
	"defects/heavy-square/d3/random":     "e29c46e7fc5cb9e8d9f86fb210378e175f820bc8d323f68f0ccde9dcd16195ab",
	"defects/heavy-square/d5/clustered":  "a7c6762d2f049fd51610b229452f77824a42c70a5658eebdb021618190b3ea9b",
	"defects/heavy-square/d5/edge":       "f2c45035ee7b26a29690e8dfd196384cf271d66fff475c3917f9fe2af562319a",
	"defects/heavy-square/d5/random":     "fd563248a42321583a060989ce5298374fe66e31a93b1a26b65ffb882ce94917",
	"defects/hexagon/d3/clustered":       "276c87c2e30a3796126f61743cf39371384236128e9c400386f98d13467e0e82",
	"defects/hexagon/d3/edge":            "be9ac543025e8ff06c465abe7695d408942c660f229bd4e884c1d0edeb252aa9",
	"defects/hexagon/d3/random":          "66026f5e101c686ea0eac6f3a6e5fdbd72d5d9e5776a86b0e1c71964d0c8be46",
	"defects/hexagon/d5/clustered":       "6db113ce9ba62fe4a965358a2b1805030146c656a2e001e3d88bfeb79bdd6ad1",
	"defects/hexagon/d5/edge":            "90d504092fae4d2be54eaa5467762d457a6e1d29e6a45322adc65fdbed35798a",
	"defects/hexagon/d5/random":          "258b72e38bc905269f9151e289428bc9e154377a1c8acbbddf3175adacd51880",
	"defects/octagon/d3/clustered":       "408c25b709f1813063e371f14a74d90c9c5477ead5083f4bdf5a0f97d9076ecf",
	"defects/octagon/d3/edge":            "18fe846d90f0362ba958f82e957f90ed58e5527fa663a5bf68853001d39bad14",
	"defects/octagon/d3/random":          "17ff35712cda132ce8a1c1e323a9b7b72d070fec199cc04bb0ae9ffd88d0969d",
	"defects/octagon/d5/clustered":       "dd4aaa9e3d4114522120aaffab3c72c43df475ae0a98c8a8bfd0aab3b0e47d60",
	"defects/octagon/d5/edge":            "2a02bdd12bb142fc7d37cd5feac683aaab3bcfd0a70cd07ff53d8d8408848cc6",
	"defects/octagon/d5/random":          "4d7082e3fec3911dbc7487c1178342fa2e9e7a852c1952aada9e2415dcc9724a",
	"defects/square/d3/clustered":        "3ad69ec5db1fac81c21c2e1c9bb408d0db65a70783edb2e4e9448cd81667fddf",
	"defects/square/d3/edge":             "01b57c1db9591938059d10d7464c77fa54a615ad459fb7744681b6729cf68401",
	"defects/square/d3/random":           "6c70cf2ab697fb8845f7edcd3b2984c406a8e254ba3f5ed39d06f7de1f3a3b22",
	"defects/square/d5/clustered":        "726625e1f768f3a5fec66a9651b8bcd3feec64cc0559c23bda31f43190a4455b",
	"defects/square/d5/edge":             "e7b4149f60a6e03a660f8efa8940cfe89b6febea8c16b2d0219bb51fcd3e969a",
	"defects/square/d5/random":           "ab0474267fdaea35c00e562623ba3a1ebf873f469de20ca5bcb4e1fca19c3c97",
	"retry-anchor/heavy-hexagon/d3":      "78c64fe58aca707c1ef793e73271a531322594bf0d198fe868b81bab82f4456a",
	"fit/d3":                             "43169cfccb5b1995e32482c179e71f90d66b1fc8865d7e5fb80de326da00c303",
	"pack/extra/d3":                      "927c361b59ddbe34b1badcaa4221e0855ea79092256d9e64f48f689a7be4f743",
	"pack/extra/d5":                      "248d4c623db12c1304e638090d25a9ce59247620c9cb207b1b46062f2d758a52",
	"pack/heavy-hexagon/d3":              "09f2926a2a8fd3ccb4dd5b71a52a0b665a5952d7f8b57a7c6e8cc5ebd7ab526f",
	"pack/heavy-hexagon/d5":              "2be21d7abde884d22e0a5927f839541f559c26af7f691345d524ac517254c9ab",
	"pack/heavy-square/d3":               "eba5a7bba83cebed8d1fa4a9e4c5147f9eb06a8f1557c2a1ec4cc2a3f6bdcd1e",
	"pack/heavy-square/d5":               "0498a9d57404661c8f2d67beed975a5e1b516faa66d09049471dfcab2c4be5c0",
	"pack/hexagon/d3":                    "1781bbebde4cc272b6e2ed900c34004f1f1e2214add79032e35932bcd67948e1",
	"pack/hexagon/d5":                    "54091c0a4ec6c2959b1bb70fe12e4d6d2dea0d9eb77b0db0f7cd5d7fdd486f2a",
	"pack/octagon/d3":                    "62740015d9918321e597e1e3ad9aaf30cc2440a1e3ea8dab51d87bfa49a05ca5",
	"pack/octagon/d5":                    "2034e923d7113e35fcb23be196ff18571b1d90e0df6606afa808631f67408d78",
	"pack/square/d3":                     "61840d7ce1d8c4f53b6073fb363ae1542add1a6aacb51b4130bec326f6f2d0c2",
	"pack/square/d5":                     "49f5cabaf048b9ad82ec9a9d8cc79531f0d993201fc361d99e6239c184db1b9d",
}

// TestPlacementGoldens holds the placement search to the recorded outcomes.
// Under -short only the distance-3 groups run. Race builds leave this file
// out: the matrix runs on one goroutine, and under the race detector it
// takes about ten minutes.
func TestPlacementGoldens(t *testing.T) {
	strictFailures := 0
	var groups []placementGroup
	for _, d := range []int{3, 5, 7} {
		groups = append(groups, tilingGroups(d)...)
	}
	for _, d := range []int{3, 5} {
		groups = append(groups, calibratedGroups(d)...)
		groups = append(groups, defectGroups(d, &strictFailures)...)
		groups = append(groups, packGroups(d)...)
	}
	groups = append(groups, retryAnchorGroup(), fitGroup(3))
	ran := map[string]bool{}
	var missing []string
	for _, g := range groups {
		if testing.Short() && g.d > 3 {
			continue
		}
		ran[g.name] = true
		t.Run(g.name, func(t *testing.T) {
			h := sha256.New()
			g.run(t, h)
			got := hex.EncodeToString(h.Sum(nil))
			want, ok := placementGoldens[g.name]
			if !ok {
				missing = append(missing, fmt.Sprintf("%q: %q,", g.name, got))
				return
			}
			if got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no golden for %d groups:\n%s", len(missing), fmt.Sprint(missing))
	}
	for name := range placementGoldens {
		if !ran[name] && !testing.Short() {
			t.Errorf("golden %s names no group", name)
		}
	}
	if !testing.Short() && strictFailures < 300 {
		t.Errorf("strict search failed on %d defect presets, want at least 300 relaxed fallbacks", strictFailures)
	}
}
