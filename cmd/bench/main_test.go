package main

import (
	"context"
	"math"
	"reflect"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at the reduced size, measured and replayed,
// and holds its output to BENCHMARK.json: each declared metric is emitted
// with its declared unit and nothing else is, every output check passes,
// and each traced op's self times add up to its wall time.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the command runs %v", declared, workloadNames)
	}
	for _, m := range append(append([]metricDef(nil), perLayer()...), endToEndDefs(spec)...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
		}
	}
	if got := endToEndDefs(spec); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, the command emits %+v", got, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer = %+v, the command emits %+v", spec.PerLayer, perLayer())
	}
	for name := range layerGates {
		found := false
		for _, m := range spec.PerLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("-compare gates %s, which BENCHMARK.json does not declare per layer", name)
		}
	}

	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), name, 1, smoke, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%q", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			emitted := func(kind string, got map[string]value, want []metricDef) {
				if len(got) != len(want) {
					t.Errorf("%d %s metrics emitted, %d declared", len(got), kind, len(want))
				}
				for _, m := range want {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s not emitted", kind, m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s metric %s in %q, declared %q", kind, m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
						t.Errorf("%s metric %s = %v", kind, m.Name, v.Value)
					}
				}
			}
			emitted("end-to-end", rep.EndToEnd, endToEnd)
			emitted("per-layer", rep.PerLayer, perLayer())
			for _, m := range endToEnd {
				if rep.EndToEnd[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.EndToEnd[m.Name].Value)
				}
			}
			ops := attribute(rep.Spans)
			if len(ops) == 0 {
				t.Fatal("the replay recorded no ops")
			}
			for i, op := range ops {
				var sum float64
				for _, ns := range op.self {
					sum += ns
				}
				if math.Abs(sum-op.wall) > 0.05*op.wall {
					t.Errorf("op %d: self times sum to %.0f ns, wall %.0f ns", i, sum, op.wall)
				}
			}
		})
	}
}

func endToEndDefs(spec *benchSpec) []metricDef {
	out := make([]metricDef, 0, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		out = append(out, m.metricDef)
	}
	return out
}

// TestInputsFollowSeed: the same seed generates the same inputs and
// digest, another seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, name := range workloadNames {
		gen := func(seed int64) (any, string) {
			w, err := newWorkload(name, seed, full)
			if err != nil {
				t.Fatal(err)
			}
			d, err := digest(name, w)
			if err != nil {
				t.Fatal(err)
			}
			return w.inputs(), d
		}
		in1, d1 := gen(7)
		in2, d2 := gen(7)
		in3, d3 := gen(8)
		if !reflect.DeepEqual(in1, in2) || d1 != d2 {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(in1, in3) || d1 == d3 {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// TestAttribute splits a root span among a child, its grandchild, and a
// concurrent sibling.
func TestAttribute(t *testing.T) {
	spans := []span{
		{Op: 0, ID: 1, Name: "root", Start: 0, End: 100},
		{Op: 0, ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{Op: 0, ID: 3, Parent: 2, Name: "g", Start: 20, End: 40},
		{Op: 0, ID: 4, Parent: 1, Name: "b", Start: 30, End: 70},
		{Op: 0, ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the root
	}
	got := attribute(spans)
	want := opTimes{wall: 100, self: map[string]float64{"root": 30, "a": 15, "g": 15, "b": 30, "late": 10}}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("attribute = %+v, want %+v", got, want)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which gives 2.75 and 8.25 for 1..10.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{metricDef{"latency_ms_p50", "ms", "lower"}, 0.10}
	higher := boundedMetric{metricDef{"ops_per_s", "1/s", "higher"}, 0.10}
	exact := boundedMetric{metricDef{"verify.misdecoded", "count", "lower"}, 0}
	for _, tc := range []struct {
		m    boundedMetric
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 102}, []float64{101, 102, 103}, "unchanged"},
		{lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "improved"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "regressed"},
		{lower, []float64{60, 100, 140}, []float64{100, 101, 102}, "unresolved"},
		{lower, []float64{60, 100, 140}, []float64{50, 51, 52}, "improved"},
		{lower, []float64{100, 101, 102}, []float64{95, 96, 97}, "unchanged"},
		{exact, []float64{218, 218, 218}, []float64{218, 218, 218}, "unchanged"},
		{exact, []float64{218, 218, 218}, []float64{219, 219, 219}, "regressed"},
		{exact, []float64{0, 0, 0}, []float64{3, 3, 3}, "regressed"},
		{exact, []float64{218, 218, 218}, []float64{0, 0, 0}, "improved"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
