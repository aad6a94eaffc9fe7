package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"surfstitch/internal/obs"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start (page faults, a cold cache) does not decide
// it.
const setupRepeats = 3

// size selects the amount of work per op: full for the benchmark, smoke
// for the package's own tests.
type size int

const (
	full size = iota
	smoke
)

// workload is one set of inputs the benchmark runs through the program.
type workload interface {
	// inputs returns the generated inputs; the digest is taken from them.
	inputs() any
	// setup builds the program state the ops need and ends with one
	// discarded op.
	setup(ctx context.Context) error
	// measure runs ops untraced until window has passed, recording each
	// op's latency and checking its output.
	measure(ctx context.Context, window time.Duration, res *result) error
	// replay runs the measured ops again with spans recorded into rec and
	// checks they reproduce the untraced outputs. ctx carries the registry
	// the program's own metrics go to.
	replay(ctx context.Context, rec *recorder, res *result) error
	// close releases what setup acquired.
	close()
}

var workloadNames = []string{"point-decode", "point-sparse", "compile", "serve"}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64, sz size) (workload, error) {
	switch name {
	case "point-decode":
		return newPointDecode(seed, sz), nil
	case "point-sparse":
		return newPointSparse(seed, sz), nil
	case "compile":
		return newCompile(seed, sz), nil
	case "serve":
		return newServe(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// digest fingerprints a workload's generated inputs.
func digest(name string, w workload) (string, error) {
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Inputs   any    `json:"inputs"`
	}{name, w.inputs()})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// result accumulates what a workload measures and checks.
type result struct {
	latencies     []time.Duration // untraced ops, in order
	elapsed       time.Duration   // wall time of the untraced phase
	replayElapsed time.Duration   // wall time of the traced replay
	codes         quality         // the codes the untraced ops ran on
	attempted     int
	failed        int
	problems      []string
	layer         map[string]float64 // per-layer metrics the workload sets itself
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// opFailed counts a failed op.
func (r *result) opFailed(err error) {
	r.failed++
	r.problems = append(r.problems, err.Error())
}

// report is the outcome of one workload run.
type report struct {
	Workload  string           `json:"workload"`
	Digest    string           `json:"workload_digest"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Spans     []span           `json:"-"`
}

// runWorkload sets the workload up, measures it untraced and, when trace is
// set, replays the measured ops with spans.
func runWorkload(ctx context.Context, name string, seed int64, sz size, window time.Duration, trace bool) (*report, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	dig, err := digest(name, w)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	res := &result{layer: map[string]float64{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = w.measure(ctx, window, res)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lat := millis(res.latencies)
	ops := float64(len(lat))
	rep := &report{
		Workload: name,
		Digest:   dig,
		EndToEnd: map[string]value{
			"setup_s":         {median(setups), "s"},
			"ops_per_s":       {ops / res.elapsed.Seconds(), "1/s"},
			"latency_ms_p50":  {percentile(lat, 0.5), "ms"},
			"latency_ms_p90":  {percentile(lat, 0.9), "ms"},
			"alloc_mb_per_op": {float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops, "MiB/op"},
			"allocs_per_op":   {float64(m1.Mallocs-m0.Mallocs) / ops, "allocs/op"},
			"two_qubit_gates": {res.codes.Gates, "count"},
			"schedule_steps":  {res.codes.Steps, "count"},
			"qubits_used":     {res.codes.Qubits, "count"},
		},
	}
	if trace {
		reg := obs.NewRegistry()
		rec := newRecorder()
		if err := w.replay(obs.ContextWithRegistry(ctx, reg), rec, res); err != nil {
			return nil, fmt.Errorf("%s replay: %w", name, err)
		}
		rep.Spans = rec.spans
		rep.PerLayer = layerMetrics(rec.spans, res, reg)
	}
	rep.Attempted, rep.Failed, rep.Problems = res.attempted, res.failed, res.problems
	rep.Correct = res.failed == 0 && len(res.problems) == 0
	return rep, nil
}

// layerMetrics derives every per-layer metric of a traced run: time shares
// from the spans, synthesis stage fractions from the program's own stage
// spans in reg, and the counts the workload set.
func layerMetrics(spans []span, res *result, reg *obs.Registry) map[string]value {
	out := map[string]value{}
	var wall float64
	self := map[string]float64{}
	for _, t := range attribute(spans) {
		wall += t.wall
		for n, ns := range t.self {
			self[n] += ns
		}
	}
	for _, n := range spanNames {
		out[n+".share"] = value{ratio(self[n], wall), "ratio"}
	}
	snap := reg.Snapshot()
	stage := func(s string) float64 { return snap[fmt.Sprintf("span_seconds_total{span=%q}", "synth."+s)] }
	stages := stage("allocate") + stage("trees") + stage("schedule")
	res.layer["synth.allocate_frac"] = ratio(stage("allocate"), stages)
	res.layer["synth.trees_frac"] = ratio(stage("trees"), stages)
	res.layer["synth.schedule_frac"] = ratio(stage("schedule"), stages)
	res.layer["trace.overhead_ratio"] = ratio(res.replayElapsed.Seconds(), res.elapsed.Seconds())
	for _, m := range layerCounts {
		out[m.Name] = value{res.layer[m.Name], m.Unit}
	}
	return out
}

// opBreakdown is one traced op's wall time and per-span self times, in ms,
// as written to the trace file.
type opBreakdown struct {
	WallMS float64            `json:"wall_ms"`
	SelfMS map[string]float64 `json:"self_ms"`
}

// traceFile is the document -trace-out writes: the run's report with both
// sets of metrics, every span, and each op's self times.
type traceFile struct {
	SchemaVersion int   `json:"schema_version"`
	Seed          int64 `json:"seed"`
	*report
	Spans []span        `json:"spans"`
	Ops   []opBreakdown `json:"ops"`
}

func writeTrace(path string, rep *report, seed int64) error {
	tf := traceFile{SchemaVersion: obs.SchemaVersion, Seed: seed, report: rep, Spans: rep.Spans}
	for _, t := range attribute(rep.Spans) {
		b := opBreakdown{WallMS: t.wall / 1e6, SelfMS: map[string]float64{}}
		for n, ns := range t.self {
			b.SelfMS[n] = ns / 1e6
		}
		tf.Ops = append(tf.Ops, b)
	}
	return obs.WriteJSONFile(path, tf)
}
