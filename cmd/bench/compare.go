package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
)

// boundedMetric is an end-to-end metric as BENCHMARK.json declares it.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	var s benchSpec
	return &s, readJSON(path, &s)
}

func readResults(path string) (*resultsFile, error) {
	var f resultsFile
	return &f, readJSON(path, &f)
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sameSettings(a, b settings) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("settings differ: %+v vs %+v", a, b)
	}
	return nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict compares the runs of a and b of one metric on one workload by
// their medians. Where either side's spread is wider than the bound the pair
// is unresolved, unless every run of b is better than every run of a.
func verdict(m boundedMetric, a, b []float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma) // relative change in the worse direction
	if ma == 0 && mb != 0 {
		worse = math.Copysign(math.Inf(1), mb)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	sort.Float64s(a)
	sort.Float64s(b)
	allBetter := b[len(b)-1] < a[0]
	if m.Better == "higher" {
		allBetter = b[0] > a[len(a)-1]
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound && !allBetter:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	case -worse > m.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareFiles prints, for every workload and every end-to-end metric and
// per-layer gate the workload exercises, the medians of both files, the
// change in the worse direction, each side's spread, the bound and the
// verdict. It reports whether any pair regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if err := sameSettings(a.Settings, b.Settings); err != nil {
		return false, fmt.Errorf("refusing to compare %s and %s: %w", pathA, pathB, err)
	}
	values := func(f *resultsFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if v, ok := r.metric(metric); ok && r.Workload == workload {
				out = append(out, v.Value)
			}
		}
		return out
	}
	gates := append([]boundedMetric(nil), spec.EndToEnd...)
	for _, m := range spec.PerLayer {
		if bound, ok := layerGates[m.Name]; ok {
			gates = append(gates, boundedMetric{m, bound})
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-13s %-26s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for i, m := range gates {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: no runs in one of the files", wl.Name, m.Name)
			}
			if i >= len(spec.EndToEnd) && median(va) == 0 && median(vb) == 0 {
				continue // a layer this workload does not exercise
			}
			change, v := verdict(m, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-13s %-26s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.1f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
	}
	return regressed, nil
}
