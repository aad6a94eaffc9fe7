package synth

import (
	"context"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
)

// BenchmarkFindAllTrees times stage 2 alone, the bridge-tree pass, on the
// allocated d=5 layouts of the five minimal tilings (uncalibrated, so every
// search is a BFS). One op finds the trees of all five layouts.
func BenchmarkFindAllTrees(b *testing.B) {
	var layouts []*Layout
	for _, kind := range device.AllKinds() {
		layout, err := Allocate(context.Background(), devicetest.ForDistance(b, kind, 5), 5, ModeDefault)
		if err != nil {
			b.Fatal(err)
		}
		layouts = append(layouts, layout)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layout := range layouts {
			if _, err := FindAllTrees(layout); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSynthesizeCalibrated times the whole synthesis of the five
// minimal d=5 tilings under the `median` calibration snapshot, seed 3: every
// tree search of the allocation and the final pass takes the
// calibration-weighted Dijkstra. One op synthesizes all five codes.
func BenchmarkSynthesizeCalibrated(b *testing.B) {
	var devs []*device.Device
	for _, kind := range device.AllKinds() {
		dev := devicetest.ForDistance(b, kind, 5)
		cal, err := device.GenerateCalibration(dev, "median", 3)
		if err != nil {
			b.Fatal(err)
		}
		if dev, err = dev.WithCalibration(cal); err != nil {
			b.Fatal(err)
		}
		devs = append(devs, dev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dev := range devs {
			if _, err := Synthesize(context.Background(), dev, 5, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
