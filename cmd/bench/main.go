// Command bench is the repository's benchmark. It runs four named workloads
// through the public entry points (threshold points, compilation, the
// daemon), checks their outputs, and reports end-to-end metrics from an
// untraced run or, with -trace 1, per-layer metrics from a replay of the
// same ops with spans around each call into a layer. BENCHMARK.json at the
// repository root declares the workloads, the metrics and their bounds;
// README.md in this directory describes them.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash cmd/bench/run.sh --workload point-decode --seed 1 --seconds 15 --trace 0
//	bash cmd/bench/run.sh -seed 1 -out results.json
//	bash cmd/bench/run.sh -compare parent.json change.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics, and the exit code is 1
// when an op failed or an output check did not hold. Without it every
// workload runs once, traced, in a child process of its own, one at a time,
// and the runs are printed and appended to the -out file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"surfstitch/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 15, "how long each workload measures")
	trace := fs.Int("trace", 0, "1: replay the measured ops with spans and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write both sets of metrics, every span and each op's self times here")
	out := fs.String("out", "", "without -workload, append the run of every workload to this results file")
	compare := fs.Bool("compare", false, "compare two results files given as arguments, against the bounds in ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := 0
	if *compare {
		files = 2
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) || fs.NArg() != files {
		fmt.Fprintln(stderr, "invalid flags: want -seconds >= 0, -trace 0 or 1, and two files exactly with -compare")
		return 2
	}
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		var regressed bool
		regressed, err = compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err == nil && regressed {
			return 1
		}
	case *name != "":
		return single(ctx, stdout, stderr, *name, *seed, *seconds, *trace == 1, *traceOut)
	default:
		err = orchestrate(ctx, stdout, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// single runs one workload and prints its digest, each metric by name with
// its unit, and the result line.
func single(ctx context.Context, stdout, stderr io.Writer, name string, seed int64, seconds int, trace bool, traceOut string) int {
	rep, err := runWorkload(ctx, name, seed, full, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if trace && traceOut != "" {
		if err := writeTrace(traceOut, rep, seed); err != nil {
			fmt.Fprintln(stderr, "bench: writing trace:", err)
			return 1
		}
	}
	metrics := rep.EndToEnd
	if trace {
		metrics = rep.PerLayer
	}
	fmt.Fprintf(stdout, "workload %s seed %d workload_digest %s\n", name, seed, rep.Digest)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	blob, err := json.Marshal(resultLine{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !rep.Correct {
		return 1
	}
	return 0
}

// settings are what must match for two results files to be compared.
type settings struct {
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Digests    map[string]string `json:"workload_digests"`
}

// runRecord is one child run of one workload: the end-to-end metrics of its
// untraced phase and the per-layer metrics of its traced replay.
type runRecord struct {
	Workload    string           `json:"workload"`
	GitRevision string           `json:"git_revision"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	EndToEnd    map[string]value `json:"end_to_end"`
	PerLayer    map[string]value `json:"per_layer"`
}

// metric returns the named metric of either set; their names are distinct.
func (r runRecord) metric(name string) (value, bool) {
	if v, ok := r.EndToEnd[name]; ok {
		return v, true
	}
	v, ok := r.PerLayer[name]
	return v, ok
}

// resultsFile is the document -out appends to and -compare reads.
type resultsFile struct {
	SchemaVersion int         `json:"schema_version"`
	Settings      settings    `json:"settings"`
	Runs          []runRecord `json:"runs"`
}

// orchestrate runs every workload once, each in a fresh child process so
// the heap and collector state belong to that run alone. Comparing two
// commits takes several invocations per commit, alternating between them,
// each appending to its commit's results file.
func orchestrate(ctx context.Context, stdout io.Writer, seed int64, seconds int, out string) error {
	set := settings{
		Seed: seed, Seconds: seconds, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Digests: map[string]string{},
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, seed, full)
		if err != nil {
			return err
		}
		if set.Digests[name], err = digest(name, w); err != nil {
			return err
		}
	}
	file := resultsFile{SchemaVersion: obs.SchemaVersion, Settings: set}
	if out != "" {
		if err := readJSON(out, &file); err == nil {
			if err := sameSettings(file.Settings, set); err != nil {
				return fmt.Errorf("%s holds runs with other settings: %w", out, err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traces, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(traces)
	failed := 0
	for _, name := range workloadNames {
		rep, err := child(ctx, self, name, seed, seconds, filepath.Join(traces, name+".json"))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !rep.Correct {
			failed++
		}
		file.Runs = append(file.Runs, runRecord{
			Workload: name, GitRevision: obs.GitDescribe(), Correct: rep.Correct,
			Attempted: rep.Attempted, Failed: rep.Failed, EndToEnd: rep.EndToEnd, PerLayer: rep.PerLayer,
		})
		fmt.Fprintf(stdout, "%s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "  %-20s %14.6g %s\n", m.Name, rep.EndToEnd[m.Name].Value, m.Unit)
		}
	}
	if out != "" {
		if err := obs.WriteJSONFile(out, file); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their output checks", failed)
	}
	return nil
}

// child runs one workload, traced, in a child process and reads its report
// from the trace file the child writes, which holds both sets of metrics.
func child(ctx context.Context, self, name string, seed int64, seconds int, traceOut string) (*report, error) {
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "1", "--trace-out", traceOut)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rep report
	if err := readJSON(traceOut, &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return &rep, nil
}
