package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric with its unit and the direction that is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the program sees, taken from the
// untraced phase. An op is one threshold point, one pass over the compile
// set, or one daemon job. Memory is reported as what the ops allocate,
// which the collector turns into CPU time and heap growth; the process's
// peak memory depends on when collections happen to run and varies by a
// third between identical runs. The last three are the size of the codes
// the ops ran on (see quality), the output the compiler is judged by.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"alloc_mb_per_op", "MiB/op", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"two_qubit_gates", "count", "lower"},
	{"schedule_steps", "count", "lower"},
	{"qubits_used", "count", "lower"},
}

// spanNames are the spans the traced replay records. Each one's share of
// the traced ops' wall time (self time, see attribute) is a per-layer
// metric named "<span>.share".
var spanNames = []string{
	"bench.op", // the benchmark's own glue between calls
	"experiment.build",
	"tableau.check",
	"noise.apply",
	"dem.extract",
	"decoder.compile",
	"frame.compile",
	"mc.run", // the engine's own time: worker start-up, merging, idle tail
	"frame.sample",
	"decoder.decode",
	"synth.synthesize",
	"distance.certify",
	"verify.verify",
	"surgery.pack",
	"surgery.experiment",
	"surgery.verify",
	"server.client", // HTTP round trips, JSON and the poll interval
	"server.queue",
	"server.run",
}

// layerCounts are the per-layer metrics that are not time shares. A layer
// a workload does not exercise reports 0.
var layerCounts = []metricDef{
	{"mc.idle_ratio", "ratio", "lower"},
	{"frame.allocs_per_shot", "allocs/shot", "lower"},
	{"decoder.allocs_per_shot", "allocs/shot", "lower"},
	{"decoder.blossom_ratio", "ratio", "lower"},
	{"decoder.closed_form_ratio", "ratio", "higher"},
	{"decoder.cache_hit_ratio", "ratio", "higher"},
	{"decoder.uf_ratio", "ratio", "higher"},
	{"decoder.mean_defects", "defects/shot", "lower"},
	{"decoder.logical_error_rate", "ratio", "lower"},
	{"dem.mechanisms", "count", "lower"},
	{"synth.allocate_frac", "ratio", "lower"},
	{"synth.trees_frac", "ratio", "lower"},
	{"synth.schedule_frac", "ratio", "lower"},
	{"verify.single_faults", "count", "lower"},
	{"verify.misdecoded", "count", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.coalesced_ratio", "ratio", "higher"},
	{"server.polls_per_job", "polls/job", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// layerGates are the per-layer metrics -compare holds to a bound, as a
// share of the first file's median, beside the end-to-end ones: decoding
// accuracy. A results file holds one seed, so between two files these move
// only when the decoder's answers change or a run completes a few ops more
// or fewer; across seeds the logical error rate is too noisy to gate.
var layerGates = map[string]float64{
	"decoder.logical_error_rate": 0.05,
	"verify.misdecoded":          0,
}

// perLayer lists every per-layer metric of a traced run.
func perLayer() []metricDef {
	out := make([]metricDef, 0, len(spanNames)+len(layerCounts))
	for _, n := range spanNames {
		out = append(out, metricDef{n + ".share", "ratio", "lower"})
	}
	return append(out, layerCounts...)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
