package synth

import (
	"context"
	"math"
	"reflect"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/grid"
	"surfstitch/internal/noise"
)

// withCal returns a shallow copy of the synthesis whose layout device
// carries the given calibration, leaving the original untouched. The trees
// and schedule are unchanged, so cost differences isolate the snapshot.
func withCal(t *testing.T, s *Synthesis, cal *device.Calibration) *Synthesis {
	t.Helper()
	calDev, err := s.Layout.Dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	layout := *s.Layout
	layout.Dev = calDev
	out := *s
	out.Layout = &layout
	return &out
}

func TestCalibrationCostRequiresSnapshot(t *testing.T) {
	s, err := Synthesize(context.Background(), device.Square(6, 6), 3, Options{Mode: ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := CalibrationCost(s); ok {
		t.Fatalf("uncalibrated device produced a calibration cost %g", c)
	}
	if got, want := synthCost(s), float64(s.Schedule.TotalSteps()); got != want {
		t.Fatalf("uncalibrated objective = %g, want schedule steps %g", got, want)
	}
}

// The preset bands are disjoint, so the same trees must cost strictly more
// on a worse chip — the objective actually reads the snapshot.
func TestCalibrationCostOrdersSnapshots(t *testing.T) {
	s, err := Synthesize(context.Background(), device.Square(6, 6), 3, Options{Mode: ModeFour})
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, 0, 3)
	for _, name := range device.CalibrationSnapshots() {
		cal, err := device.GenerateCalibration(s.Layout.Dev, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := CalibrationCost(withCal(t, s, cal))
		if !ok {
			t.Fatalf("snapshot %q: no calibration cost", name)
		}
		if !(c > 0 && c < math.Inf(1)) {
			t.Fatalf("snapshot %q: cost %g not positive finite", name, c)
		}
		costs = append(costs, c)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i-1] >= costs[i] {
			t.Fatalf("snapshot costs not strictly increasing good<median<bad: %v", costs)
		}
	}
}

// The Dijkstra edge coster must price calibrated hops as the documented
// base + 20000-scaled channel strengths, and leave uncalibrated devices at
// the plain unit step; the finder's compiled prices must be its prices.
func TestEdgeCosterPricesCalibratedHops(t *testing.T) {
	dev := device.Square(4, 4)
	if got := newEdgeCoster(dev).cost(0, 1); got != 1000 {
		t.Fatalf("uncalibrated hop = %d milli-hops, want 1000", got)
	}
	const f1, ro, f2 = 0.998, 0.02, 0.99
	cal := &device.Calibration{Name: "flat"}
	for q := 0; q < dev.Len(); q++ {
		cal.Qubits = append(cal.Qubits, device.QubitCalibration{
			At: dev.Coord(q), T1Us: 80, T2Us: 80, Fidelity1Q: f1, ReadoutError: ro,
		})
	}
	for _, e := range dev.Graph().Edges() {
		cal.Couplers = append(cal.Couplers, device.CouplerCalibration{
			Between:    [2]grid.Coord{dev.Coord(e[0]), dev.Coord(e[1])},
			Fidelity2Q: f2,
		})
	}
	calDev, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	e := dev.Graph().Edges()[0]
	want := 1000 + int(20000*(noise.Gate1Rate(f1)+ro)) + int(20000*noise.Gate2Rate(f2))
	ec := newEdgeCoster(calDev)
	if got := ec.cost(e[0], e[1]); got != want {
		t.Fatalf("calibrated hop = %d milli-hops, want %d", got, want)
	}
	if got := ec.cost(e[1], e[0]); got != want {
		t.Fatalf("reversed calibrated hop = %d milli-hops, want %d", got, want)
	}

	// The finder prices each hop once per call into arrays aligned with the
	// adjacency; every compiled price must be edgeCoster's, on a calibrated
	// device and on one with defects.
	octagon := devicetest.ForDistance(t, device.KindOctagon, 5)
	snapshot, err := device.GenerateCalibration(octagon, "bad", 1)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := octagon.WithCalibration(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defected := devicetest.Damaged(t, octagon, "random", 0.06, 2)
	for _, dev := range []*device.Device{calibrated, defected} {
		if !dev.HasErrorOverrides() {
			t.Fatalf("%s carries no error information", dev.Name())
		}
		hop, ec := compileHops(dev), newEdgeCoster(dev)
		g := dev.Graph()
		for u := 0; u < dev.Len(); u++ {
			if len(hop[u]) != g.Degree(u) {
				t.Fatalf("%s: qubit %d has %d prices for %d neighbours", dev.Name(), u, len(hop[u]), g.Degree(u))
			}
			for k, v := range g.Neighbors(u) {
				if want := ec.cost(u, v); hop[u][k] != want {
					t.Fatalf("%s: hop %d→%d priced %d, want %d", dev.Name(), u, v, hop[u][k], want)
				}
			}
		}
	}
}

// Co-optimizing under the calibration objective must never worsen it, and
// must stay deterministic run to run.
func TestCoOptimizeCalibratedNeverWorsensAndIsDeterministic(t *testing.T) {
	dev := device.Square(8, 4)
	cal, err := device.GenerateCalibration(dev, "median", 3)
	if err != nil {
		t.Fatal(err)
	}
	calDev, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Synthesize(context.Background(), calDev, 3, Options{Mode: ModeFour, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := CoOptimize(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	cBase, ok := CalibrationCost(base)
	if !ok {
		t.Fatal("base synthesis lost its calibration")
	}
	cOpt, ok := CalibrationCost(opt)
	if !ok {
		t.Fatal("co-optimized synthesis lost its calibration")
	}
	if cOpt > cBase {
		t.Fatalf("co-optimize worsened the calibration objective: %g -> %g", cBase, cOpt)
	}
	again, err := CoOptimize(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(treeNodeLists(opt), treeNodeLists(again)) {
		t.Fatal("co-optimize is not deterministic on a calibrated device")
	}
}

func treeNodeLists(s *Synthesis) [][]int {
	out := make([][]int, len(s.Trees))
	for i, tr := range s.Trees {
		if tr != nil {
			out[i] = tr.Nodes()
		}
	}
	return out
}
