package synth

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/graph"
	"surfstitch/internal/grid"
)

// oracleCase is one synthesis of the differential matrix. scan asks for
// the allocator's lattices to be compared too.
type oracleCase struct {
	name    string
	dev     *device.Device
	d       int
	opts    Options
	degrade bool
	scan    bool
}

// oracleCases is the differential matrix: the five tilings pristine at
// d=3/5/7; calibrated at d=3/5 under every snapshot, seeds 1–3, with
// co-optimization off and on; and degraded by random 6% defects, seeds 1–4.
// Under -short only d=3 runs. Lattice scans skip calibration seeds 2 and 3,
// where the reference's per-search pricing makes each scan cost a tenth of
// a second.
func oracleCases(t *testing.T) []oracleCase {
	distances := []int{3, 5}
	if testing.Short() {
		distances = distances[:1]
	}
	var cases []oracleCase
	for _, kind := range device.AllKinds() {
		for _, d := range append(distances, 7) {
			if d == 7 && testing.Short() {
				continue
			}
			cases = append(cases, oracleCase{name: fmt.Sprintf("%v/d%d", kind, d), dev: devicetest.ForDistance(t, kind, d), d: d, scan: true})
		}
		for _, d := range distances {
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
					for _, co := range []bool{false, true} {
						cases = append(cases, oracleCase{
							name: fmt.Sprintf("%v/d%d/%s-%d/cooptimize=%v", kind, d, snap, seed, co),
							dev:  dev, d: d, opts: Options{CoOptimize: co}, scan: seed == 1,
						})
					}
				}
			}
			for seed := int64(1); seed <= 4; seed++ {
				cases = append(cases, oracleCase{
					name: fmt.Sprintf("%v/d%d/random-0.06-%d", kind, d, seed),
					dev:  devicetest.Damaged(t, base, "random", 0.06, seed), d: d, degrade: true, scan: true,
				})
			}
		}
	}
	return cases
}

// sameTrees reports the first stabilizer whose tree differs in root or
// edges, or "" when the two sets agree everywhere.
func sameTrees(got, want []*graph.Tree) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d trees, want %d", len(got), len(want))
	}
	for si := range want {
		switch {
		case (got[si] == nil) != (want[si] == nil):
			return fmt.Sprintf("stabilizer %d: tree %v, want %v", si, got[si] != nil, want[si] != nil)
		case want[si] == nil:
		case got[si].Root != want[si].Root:
			return fmt.Sprintf("stabilizer %d: root %d, want %d", si, got[si].Root, want[si].Root)
		case !reflect.DeepEqual(got[si].Edges(), want[si].Edges()):
			return fmt.Sprintf("stabilizer %d: edges %v, want %v", si, got[si].Edges(), want[si].Edges())
		}
	}
	return ""
}

func droppedKeys(m map[int]error) []int {
	var out []int
	for si := range m {
		out = append(out, si)
	}
	sort.Ints(out)
	return out
}

// matchReference compares the tree pass with the reference on one layout:
// the same error outcome, the same dropped stabilizers, and the same root
// and edges for every tree.
func matchReference(t *testing.T, name string, f *finder, layout *Layout, starOnly, degrade bool) {
	t.Helper()
	got, gotDropped, gotErr := f.allTrees(layout, starOnly, degrade)
	want, wantDropped, wantErr := referenceFindAllTrees(layout, starOnly, degrade)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(droppedKeys(gotDropped), droppedKeys(wantDropped)) {
		t.Fatalf("%s: dropped %v, want %v", name, droppedKeys(gotDropped), droppedKeys(wantDropped))
	}
	if diff := sameTrees(got, want); diff != "" {
		t.Fatalf("%s: %s", name, diff)
	}
}

// TestFindAllTreesMatchesReference holds the compiled finder to the
// original one on the differential matrix. Per device it compares the tree
// pass on the synthesized layout (with dropping armed on the degraded
// devices, and star-only as well on the pristine ones) and, where the case
// asks, on every lattice the allocator scores under the first anchor; a
// degraded device that admits no synthesis at all is compared on its
// lattices alone. Where co-optimization is on, it compares every FindTree
// the co-optimizer's first round calls.
func TestFindAllTreesMatchesReference(t *testing.T) {
	ctx := context.Background()
	compared := map[*device.Device]bool{}
	for _, c := range oracleCases(t) {
		var s *Synthesis
		var err error
		if c.degrade {
			s, err = SynthesizeDegraded(ctx, c.dev, c.d, c.opts)
		} else {
			s, err = Synthesize(ctx, c.dev, c.d, c.opts)
		}
		if err != nil && !c.degrade {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !compared[c.dev] {
			compared[c.dev] = true
			if c.scan {
				cd, err := code.NewRotated(c.d)
				if err != nil {
					t.Fatal(err)
				}
				// One finder serves every lattice, as in Allocate.
				f := newFinder(c.dev)
				anchor := BridgeRectangles(c.dev, ModeDefault)[0]
				for _, uv := range latticeCandidates(ModeDefault, 4) {
					for _, base := range baseCandidates(c.dev, anchor, uv[0], uv[1]) {
						if layout, ok := InstantiateLattice(c.dev, cd, ModeDefault, base, uv[0], uv[1]); ok {
							matchReference(t, fmt.Sprintf("%s lattice %v", c.name, uv), f, layout, false, c.degrade)
							break
						}
					}
				}
			}
			if s != nil {
				matchReference(t, c.name, newFinder(c.dev), s.Layout, false, c.degrade)
				if c.dev.Calibration() == nil && !c.degrade {
					matchReference(t, c.name+" star-only", newFinder(c.dev), s.Layout, true, false)
				}
			}
		}
		if !c.opts.CoOptimize {
			continue
		}
		// The first co-optimization round re-routes each plan of the
		// smallest schedule set with another set's bridges blocked.
		base, err := Synthesize(ctx, c.dev, c.d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		smallest := 0
		for i, set := range base.Schedule {
			if len(set) < len(base.Schedule[smallest]) {
				smallest = i
			}
		}
		for _, mover := range base.Schedule[smallest] {
			si := -1
			for i, p := range base.Plans {
				if p == mover {
					si = i
				}
			}
			for j, set := range base.Schedule {
				if j == smallest {
					continue
				}
				blocked := make([]bool, c.dev.Len())
				for _, p := range set {
					for _, n := range p.Tree.Nodes() {
						blocked[n] = !base.Layout.IsData[n]
					}
				}
				got, gotErr := FindTree(base.Layout, si, blocked)
				want, wantErr := referenceFindTree(base.Layout, si, blocked, false)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: FindTree(%d) error %v, want %v", c.name, si, gotErr, wantErr)
				}
				if diff := sameTrees([]*graph.Tree{got}, []*graph.Tree{want}); diff != "" {
					t.Fatalf("%s: FindTree(%d): %s", c.name, si, diff)
				}
			}
		}
	}
}

// TestFindAllTreesMatchesReferenceOnRandomGraphs extends the differential
// to irregular coupling graphs: grids that lose a fifth of their couplings
// and gain random diagonals, with a d=3 data lattice of spacing 2 or 3, each
// routed plain and under a calibration. Such graphs produce what the
// tilings never do, such as two equal-cost pairings whose branching trees
// both beat every star, where only the pairings' stable order decides.
func TestFindAllTreesMatchesReferenceOnRandomGraphs(t *testing.T) {
	cd, err := code.NewRotated(3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		step := 2 + rng.Intn(2)
		w := 2*step + 3
		var coords []grid.Coord
		var couplings [][2]grid.Coord
		for y := 0; y < w; y++ {
			for x := 0; x < w; x++ {
				c := grid.Coord{X: x, Y: y}
				coords = append(coords, c)
				for _, nb := range []struct {
					to grid.Coord
					p  float64
				}{{grid.Coord{X: x + 1, Y: y}, 0.8}, {grid.Coord{X: x, Y: y + 1}, 0.8}, {grid.Coord{X: x + 1, Y: y + 1}, 0.15}} {
					if nb.to.X < w && nb.to.Y < w && rng.Float64() < nb.p {
						couplings = append(couplings, [2]grid.Coord{c, nb.to})
					}
				}
			}
		}
		dev, err := device.FromGraph(fmt.Sprintf("random-%d", seed), coords, couplings)
		if err != nil {
			t.Fatal(err)
		}
		var mapping []int
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				q, _ := dev.QubitAt(grid.Coord{X: 1 + c*step, Y: 1 + r*step})
				mapping = append(mapping, q)
			}
		}
		cal, err := device.GenerateCalibration(dev, "median", seed)
		if err != nil {
			t.Fatal(err)
		}
		calDev, err := dev.WithCalibration(cal)
		if err != nil {
			t.Fatal(err)
		}
		for _, dv := range []*device.Device{dev, calDev} {
			layout, err := LayoutFromMapping(dv, cd, mapping)
			if err != nil {
				t.Fatal(err)
			}
			matchReference(t, fmt.Sprintf("seed %d, calibrated %v", seed, dv.Calibration() != nil), newFinder(dv), layout, false, true)
		}
	}
}

// TestFinderSearchZeroAlloc gates the finder's hot loop: once its scratch
// has grown, BFS and Dijkstra searches and candidate scoring allocate
// nothing; only each stabilizer's winner becomes a graph.Tree.
func TestFinderSearchZeroAlloc(t *testing.T) {
	pristine := devicetest.ForDistance(t, device.KindHeavyHexagon, 5)
	cal, err := device.GenerateCalibration(pristine, "median", 3)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := pristine.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []*device.Device{pristine, calibrated} {
		layout, err := Allocate(context.Background(), dev, 5, ModeDefault)
		if err != nil {
			t.Fatal(err)
		}
		f := newFinder(dev)
		f.layout = layout
		if (f.hop != nil) != dev.HasErrorOverrides() {
			t.Fatalf("%s: hop prices compiled = %v, want %v", dev.Name(), f.hop != nil, dev.HasErrorOverrides())
		}
		none := make([]bool, dev.Len())
		scoreAll := func() {
			for si := range layout.Code.Stabilizers() {
				for expand := 0; expand <= maxRectExpand; expand++ {
					if f.score(si, expand, none, false) {
						break
					}
				}
			}
		}
		scoreAll() // grow the scratch
		if allocs := testing.AllocsPerRun(5, scoreAll); allocs != 0 {
			t.Fatalf("%s: scoring every stabilizer allocates %.1f times, want 0", dev.Name(), allocs)
		}
	}
}

// TestConcurrentSynthesisSharesDevice runs several syntheses at once on one
// calibrated device, as the daemon does: each call's finder keeps its own
// scratch, so every run must produce the same trees and schedule.
func TestConcurrentSynthesisSharesDevice(t *testing.T) {
	base := devicetest.ForDistance(t, device.KindHeavyHexagon, 5)
	cal, err := device.GenerateCalibration(base, "median", 2)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := base.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(s *Synthesis) string {
		out := fmt.Sprint(s.Schedule.TotalSteps())
		for _, tr := range s.Trees {
			out += fmt.Sprint(tr.Root, tr.Edges())
		}
		return out
	}
	const workers = 3
	digests := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Synthesize(context.Background(), dev, 5, Options{})
			if err != nil {
				errs[w] = err
				return
			}
			digests[w] = digest(s)
		}(w)
	}
	wg.Wait()
	for w := range digests {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if digests[w] != digests[0] {
			t.Fatalf("worker %d synthesized differently from worker 0", w)
		}
	}
}
