package threshold

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"surfstitch/internal/decoder"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/obs"
	"surfstitch/internal/synth"
)

// goldenPoints holds the digest of every seeded point TestPointGoldens
// estimates, keyed by point name and worker count. A digest covers the
// point's Shots and Errors and, where the registry's totals are a pure
// function of the sampled shots, the union-find and window-commit counters
// and the syndrome-weight histogram (see pointDigest).
var goldenPoints = map[string]string{
	"square/d3/p0.0005/w1":           "5412445cfd7903a1acf1ed5eb89b3490f0261f827e87f2fb010f9643f13ae542",
	"square/d3/p0.0005/w2":           "5412445cfd7903a1acf1ed5eb89b3490f0261f827e87f2fb010f9643f13ae542",
	"square/d3/p0.003/w1":            "b4f5cd187850ed687162b3edfc5bd13b782b7cb5c29640226ee30a92768a66b4",
	"square/d3/p0.003/w2":            "b4f5cd187850ed687162b3edfc5bd13b782b7cb5c29640226ee30a92768a66b4",
	"hexagon/d3/p0.0005/w1":          "1874daa29d0c36095370c76e15252106dfb51d6201525f2d934f7b8c82be4669",
	"hexagon/d3/p0.0005/w2":          "1874daa29d0c36095370c76e15252106dfb51d6201525f2d934f7b8c82be4669",
	"hexagon/d3/p0.003/w1":           "ba5a298ebd285a97e892ce7c7540b68692b56f1f2721c0e4b42551159481c963",
	"hexagon/d3/p0.003/w2":           "ba5a298ebd285a97e892ce7c7540b68692b56f1f2721c0e4b42551159481c963",
	"octagon/d3/p0.0005/w1":          "13a65bac52e9a4daf29068b91c65be91a84725591eabc06cb2b83ee5fd53d470",
	"octagon/d3/p0.0005/w2":          "13a65bac52e9a4daf29068b91c65be91a84725591eabc06cb2b83ee5fd53d470",
	"octagon/d3/p0.003/w1":           "19daf9c52b7fd1cd957e5cc9743e1885d6580b88ae1484a963a218ef13a01a92",
	"octagon/d3/p0.003/w2":           "19daf9c52b7fd1cd957e5cc9743e1885d6580b88ae1484a963a218ef13a01a92",
	"heavy-square/d3/p0.0005/w1":     "f3c5df23cc923a98d635ef31c619e321cff99c55aac93df78ef7fc37624bb20c",
	"heavy-square/d3/p0.0005/w2":     "f3c5df23cc923a98d635ef31c619e321cff99c55aac93df78ef7fc37624bb20c",
	"heavy-square/d3/p0.003/w1":      "1fbd854e8039dc1714d9c7bacf1d3c6972d3f784ae8271be7078130cf2dcadfc",
	"heavy-square/d3/p0.003/w2":      "1fbd854e8039dc1714d9c7bacf1d3c6972d3f784ae8271be7078130cf2dcadfc",
	"heavy-hexagon/d3/p0.0005/w1":    "ddb8798a4620c9ffbb0ad4f7d979e106792741a30f53117eb50757fbb0ab7efc",
	"heavy-hexagon/d3/p0.0005/w2":    "ddb8798a4620c9ffbb0ad4f7d979e106792741a30f53117eb50757fbb0ab7efc",
	"heavy-hexagon/d3/p0.003/w1":     "8faed1b99655c63d564d8e04316a8415a304de3540a23494e4f799070612a2ad",
	"heavy-hexagon/d3/p0.003/w2":     "8faed1b99655c63d564d8e04316a8415a304de3540a23494e4f799070612a2ad",
	"square/d3/uf/w1":                "e1bcd468d0537fda30b717333dbc61bc2f14644c5e8c79e4eab973065b1f073c",
	"square/d3/uf/w2":                "25796f1442be93094c61e6f0ad04e7664c34e30682224ca00e3afb8be976fd3b",
	"square/d3/uf-stream-w3c1/w1":    "da10a65d2799c1864973552e8087e1efa3d27ecdf9e38711bf01432afa816459",
	"square/d3/uf-stream-w3c1/w2":    "da10a65d2799c1864973552e8087e1efa3d27ecdf9e38711bf01432afa816459",
	"square/d3/no-idle/w1":           "2cf980a03fc7cdb3b4f463135949fcc09fb3cf2a4ea8cdba7585a78338a9d58c",
	"square/d3/no-idle/w2":           "2cf980a03fc7cdb3b4f463135949fcc09fb3cf2a4ea8cdba7585a78338a9d58c",
	"square/d3/X/w1":                 "e5590bf3538c587a7824e30bd5fbcff75b7a88c6d762936fc2be67f96197cf62",
	"square/d3/X/w2":                 "e5590bf3538c587a7824e30bd5fbcff75b7a88c6d762936fc2be67f96197cf62",
	"octagon/d3/median-2/w1":         "18ec8f0a370b079022ffc17bbb69e75da9ef23d3fa0dec802bcaac3dd64db4f0",
	"octagon/d3/median-2/w2":         "18ec8f0a370b079022ffc17bbb69e75da9ef23d3fa0dec802bcaac3dd64db4f0",
	"square/d3/target-rse/w1":        "287e71a4171185afe91725aabb2c332e7890dcba41fbd5dd27518c48b1cdcf3f",
	"square/d3/target-rse/w2":        "287e71a4171185afe91725aabb2c332e7890dcba41fbd5dd27518c48b1cdcf3f",
	"square/d3/max-errors/w1":        "d75f057e8cc4fcb57917a8eafda7a87b04987126384e14e8ab9141398a109887",
	"square/d3/max-errors/w2":        "d75f057e8cc4fcb57917a8eafda7a87b04987126384e14e8ab9141398a109887",
	"heavy-hexagon/d5/r15/p0.002/w1": "567b64bb110c502162580c39109b4b93fff86b2f68d4a3ed84c514c55b276ec7",
	"heavy-hexagon/d5/r15/p0.002/w2": "567b64bb110c502162580c39109b4b93fff86b2f68d4a3ed84c514c55b276ec7",
}

// goldenInput synthesizes a distance-d memory of the given basis over the
// given rounds on the recorded smallest tiling of kind, optionally on a
// calibrated copy of that device.
func goldenInput(t *testing.T, kind device.Kind, d, rounds int, basis experiment.Basis, cal string) (Input, *device.Device) {
	t.Helper()
	dev := devicetest.ForDistance(t, kind, d)
	if cal != "" {
		c, err := device.GenerateCalibration(dev, cal, 2)
		if err != nil {
			t.Fatal(err)
		}
		if dev, err = dev.WithCalibration(c); err != nil {
			t.Fatal(err)
		}
	}
	s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{})
	if err != nil {
		t.Fatalf("synthesize %v d=%d: %v", kind, d, err)
	}
	mem, err := experiment.NewMemory(s, rounds, experiment.Options{Basis: basis})
	if err != nil {
		t.Fatalf("memory %v d=%d: %v", kind, d, err)
	}
	return Input{Circuit: mem.Circuit, IdleQubits: s.AllQubits(), DetectorRounds: mem.DetectorRound}, dev
}

// pointDigest is a SHA-256 over the point's shot and error counts,
// followed by the named registry series in sorted order.
func pointDigest(pt Point, snap map[string]float64, series []string) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []int{pt.Shots, pt.Errors} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	sort.Strings(series)
	for _, name := range series {
		fmt.Fprintf(h, "%s=%g\n", name, snap[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPointGoldens holds seeded Monte-Carlo points bit-identical: every
// tiling at d=3 below and near threshold, heavy-hexagon d=5 over 15 rounds,
// union-find whole-shot and streaming decoding, a calibrated noise
// builder, idle noise off, an X-basis memory and both adaptive stops, each
// at 1 and 2 workers. 3000 shots leave a partial final chunk and a partial
// final word. Under -short only the d=3 points run.
func TestPointGoldens(t *testing.T) {
	type point struct {
		name string
		in   Input
		p    float64
		cfg  Config
	}
	var points []point
	add := func(name string, in Input, p float64, cfg Config) {
		points = append(points, point{name, in, p, cfg})
	}
	base := Config{Shots: 3000, Seed: 7}
	for _, kind := range device.AllKinds() {
		in, _ := goldenInput(t, kind, 3, 3, experiment.BasisZ, "")
		for _, p := range []float64{0.0005, 0.003} {
			add(fmt.Sprintf("%v/d3/p%g", kind, p), in, p, base)
		}
	}
	sq, _ := goldenInput(t, device.KindSquare, 3, 3, experiment.BasisZ, "")
	uf := base
	uf.Decoder = decoder.Options{UnionFind: true}
	add("square/d3/uf", sq, 0.006, uf)
	stream := uf
	stream.Stream = &decoder.StreamConfig{Window: 3, Commit: 1}
	add("square/d3/uf-stream-w3c1", sq, 0.006, stream)
	noIdle := base
	noIdle.NoIdle = true
	add("square/d3/no-idle", sq, 0.003, noIdle)
	xb, _ := goldenInput(t, device.KindSquare, 3, 3, experiment.BasisX, "")
	add("square/d3/X", xb, 0.003, base)
	calIn, calDev := goldenInput(t, device.KindOctagon, 3, 3, experiment.BasisZ, "median")
	cal := base
	cal.Noise = noise.BuilderFor(calDev)
	add("octagon/d3/median-2", calIn, 0.003, cal)
	rse := Config{Shots: 200000, Seed: 7, TargetRSE: 0.25}
	add("square/d3/target-rse", sq, 0.003, rse)
	maxErr := Config{Shots: 200000, Seed: 7, MaxErrors: 40}
	add("square/d3/max-errors", sq, 0.003, maxErr)
	if !testing.Short() {
		hh, _ := goldenInput(t, device.KindHeavyHexagon, 5, 15, experiment.BasisZ, "")
		add("heavy-hexagon/d5/r15/p0.002", hh, 0.002, base)
	}

	for _, pt := range points {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/w%d", pt.name, workers)
			cfg := pt.cfg
			cfg.Workers = workers
			cfg.Registry = obs.NewRegistry()
			got, err := EstimatePointContext(context.Background(), pt.in, pt.p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			snap := cfg.Registry.Snapshot()
			var series []string
			for name := range snap {
				if strings.HasPrefix(name, "decoder_syndrome_weight") {
					series = append(series, name)
				}
			}
			series = append(series, "decoder_window_commits_total")
			// Whole-shot union-find counts syndrome-cache misses, and two
			// workers can miss on the same syndrome at once; the stream has
			// no cache, so it pins them at any worker count.
			if !cfg.Decoder.UnionFind || cfg.Stream != nil || workers == 1 {
				series = append(series, "decoder_uf_total", "decoder_uf_fallback_total")
			}
			digest := pointDigest(got, snap, series)
			want, ok := goldenPoints[name]
			switch {
			case !ok:
				t.Errorf("%s: no golden digest; got %q (%d errors in %d shots)", name, digest, got.Errors, got.Shots)
			case digest != want:
				t.Errorf("%s: digest %s, want %s (%d errors in %d shots)", name, digest, want, got.Errors, got.Shots)
			}
		}
	}
}
