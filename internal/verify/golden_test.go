package verify

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// goldenReport is what TestGoldenReports pins of a verification report: the
// single-fault sweep's counts and the exact bits of its probability sum,
// the certificate, and determinism.
type goldenReport struct {
	total, misdecoded         int
	probBits                  uint64
	certified, undecomposable int
	deterministic             bool
}

func pin(r Report) goldenReport {
	return goldenReport{
		total:          r.SingleFaultTotal,
		misdecoded:     r.SingleFaultMisdecoded,
		probBits:       math.Float64bits(r.MisdecodedProb),
		certified:      r.CertifiedDistance,
		undecomposable: r.DistanceUndecomposable,
		deterministic:  r.Deterministic,
	}
}

// goldenReports holds the pinned report of every case TestGoldenReports
// verifies: each architecture's minimal tiling at d=3 and d=5, and a
// vertical pair of d=3 patches joined by a ZZ merge on a 12×14 square
// device. A change that moves any of them changes what verification
// concludes about a synthesis.
var goldenReports = map[string]goldenReport{
	"square/d3":        {502, 80, 0x3f924a5226c70bcf, 3, 0, true},
	"hexagon/d3":       {853, 9, 0x3f53a8d44a19a9a0, 3, 0, true},
	"octagon/d3":       {1591, 0, 0, 3, 0, true},
	"heavy-square/d3":  {655, 0, 0, 3, 0, true},
	"heavy-hexagon/d3": {1429, 0, 0, 3, 0, true},
	"square/d5":        {2661, 0, 0, 5, 60, true},
	"hexagon/d5":       {4821, 0, 0, 5, 60, true},
	"octagon/d5":       {9141, 0, 0, 5, 60, true},
	"heavy-square/d5":  {3741, 0, 0, 5, 120, true},
	"heavy-hexagon/d5": {8001, 0, 0, 5, 120, true},
	"square/zz/d3":     {1118, 138, 0x3f9fcda545857d6d, 3, 2, true},
}

// TestGoldenReports holds Synthesis and Layout reports bit-identical on
// amd64, and identical everywhere whether the single-fault sweep runs on
// one worker or two.
func TestGoldenReports(t *testing.T) {
	type tc struct {
		name string
		run  func() Report
	}
	var cases []tc
	distances := []int{3, 5}
	if testing.Short() {
		distances = distances[:1]
	}
	for _, d := range distances {
		for _, kind := range device.AllKinds() {
			s, err := synth.Synthesize(context.Background(), devicetest.ForDistance(t, kind, d), d, synth.Options{})
			if err != nil {
				t.Fatalf("synthesize %v d=%d: %v", kind, d, err)
			}
			cases = append(cases, tc{fmt.Sprintf("%v/d%d", kind, d), func() Report { return Synthesis(s, Options{}) }})
		}
	}
	p, err := surgery.Pack(context.Background(), device.Square(12, 14), surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: 3}, {Name: "b", Row: 1, Distance: 3}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: surgery.JointZZ}},
	}, synth.Options{})
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	cases = append(cases, tc{"square/zz/d3", func() Report { return Layout(p, Options{}) }})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		runtime.GOMAXPROCS(1)
		one := c.run()
		runtime.GOMAXPROCS(2)
		two := c.run()
		if !reflect.DeepEqual(one, two) {
			t.Errorf("%s: report on 1 worker %+v, on 2 workers %+v", c.name, one, two)
		}
		if runtime.GOARCH != "amd64" {
			// Go may fuse x*y+z into one instruction on other
			// architectures, which moves the last bits of the model's
			// probabilities; the golden reports are recorded on amd64.
			continue
		}
		got := pin(one)
		want, ok := goldenReports[c.name]
		if !ok {
			t.Errorf("%s: no golden report; got %#v", c.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: report %+v, want %+v", c.name, got, want)
		}
	}
}
