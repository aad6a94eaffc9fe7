package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"surfstitch/internal/devicetest"
	"surfstitch/internal/obs"
	"surfstitch/internal/server"
)

// serveJob is one submission to the daemon: the endpoint and its body.
type serveJob struct {
	Kind   string          `json:"kind"`
	Body   json.RawMessage `json:"body"`
	Repeat bool            `json:"repeat,omitempty"` // the body of an earlier submission
}

// serveInputs are the job sequence the clients work through, in order.
type serveInputs struct {
	Clients int        `json:"clients"`
	PollMS  int        `json:"poll_ms"`
	Shots   int        `json:"shots"`
	Warm    serveJob   `json:"warm"`
	Jobs    []serveJob `json:"jobs"`
}

// Jobs come in blocks of blockSize with a fixed mix, shuffled per block, so
// any window holds nearly the same mix: 10 estimates (half decoded by
// union-find), 6 calibrated syntheses and 4 surgery jobs, of which
// repeatsPerBlock re-submit an earlier body of the same kind.
const (
	blockSize       = 20
	repeatsPerBlock = 5
	maxJobs         = 200 * blockSize
)

var blockKinds = func() []string {
	var k []string
	for _, m := range []struct {
		kind string
		n    int
	}{{server.KindEstimate, 10}, {server.KindSynthesize, 6}, {server.KindSurgery, 4}} {
		for i := 0; i < m.n; i++ {
			k = append(k, m.kind)
		}
	}
	return k
}()

// serveWorkload drives an in-process daemon over HTTP with a closed loop of
// clients, each submitting its next job once the previous one is done.
type serveWorkload struct {
	in     serveInputs
	srv    *server.Server
	ts     *httptest.Server
	ran    int                  // jobs the untraced phase ran: a prefix of in.Jobs
	bodies map[string][]byte    // request body -> first result seen for it
	codes  map[string][]quality // architecture -> each code synthesized for it
}

// jobOutcome is what a client observed for one job.
type jobOutcome struct {
	latency   time.Duration
	polls     int
	cacheHit  bool
	coalesced bool
	state     server.State
	result    []byte
}

func newServe(seed int64, sz size) (*serveWorkload, error) {
	in := serveInputs{Clients: 2, PollMS: 2, Shots: 2048}
	if sz == smoke {
		in.Shots = 256
	}
	rng := rand.New(rand.NewSource(seed))
	// The originals of each kind cycle through the five architectures in an
	// order reshuffled every cycle, so any stretch of jobs holds nearly the
	// same mix of devices.
	cycles := map[string][]int{}
	nextArch := func(kind string) int {
		if len(cycles[kind]) == 0 {
			cycles[kind] = rng.Perm(len(archs))
		}
		a := cycles[kind][0]
		cycles[kind] = cycles[kind][1:]
		return a
	}
	estimates := 0
	body := func(kind string, a, g int) (json.RawMessage, error) {
		arch, kindOf := archs[a].arch.String(), archs[a].kind
		req := server.Request{P: 0.002, Run: server.RunSpec{Shots: in.Shots, Seed: streamSeed(seed, g)}}
		switch kind {
		case server.KindEstimate:
			w, h, _ := devicetest.Sizes(kindOf, 3)
			req.Device = server.DeviceSpec{Arch: arch, Width: w, Height: h}
			req.Distance = 3
			req.Run.UnionFind = estimates%2 == 1
			estimates++
		case server.KindSynthesize:
			w, h, _ := devicetest.Sizes(kindOf, 5)
			req = server.Request{
				Device:      server.DeviceSpec{Arch: arch, Width: w, Height: h},
				Distance:    5,
				Calibration: &server.CalibrationSpec{Preset: "median", Seed: streamSeed(seed, g)},
			}
		case server.KindSurgery:
			req.Device = server.DeviceSpec{Arch: "square", Width: 12, Height: 14}
			req.Layout = &server.LayoutSpecWire{
				Patches: []server.PatchSpecWire{{Name: "a", Distance: 3}, {Name: "b", Row: 1, Distance: 3}},
				Ops:     []server.SurgeryOpWire{{A: 0, B: 1, Joint: "zz"}},
			}
			req.Run.UnionFind = true
		}
		return json.Marshal(req)
	}
	// The warm-up is a surgery job, which synthesizes, certifies and decodes,
	// so set-up is long enough to compare between runs.
	warm, err := body(server.KindSurgery, 0, -1)
	if err != nil {
		return nil, err
	}
	in.Warm = serveJob{Kind: server.KindSurgery, Body: warm}
	originals := map[string][]int{}
	for len(in.Jobs) < maxJobs {
		kinds := append([]string(nil), blockKinds...)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		repeat := map[int]bool{}
		for _, j := range rng.Perm(blockSize)[:repeatsPerBlock] {
			repeat[j] = true
		}
		for j, kind := range kinds {
			g := len(in.Jobs)
			if prev := originals[kind]; repeat[j] && len(prev) > 0 {
				in.Jobs = append(in.Jobs, serveJob{Kind: kind, Body: in.Jobs[prev[rng.Intn(len(prev))]].Body, Repeat: true})
				continue
			}
			b, err := body(kind, nextArch(kind), g)
			if err != nil {
				return nil, err
			}
			originals[kind] = append(originals[kind], g)
			in.Jobs = append(in.Jobs, serveJob{Kind: kind, Body: b})
		}
	}
	return &serveWorkload{in: in}, nil
}

func (w *serveWorkload) inputs() any { return w.in }

// start boots a daemon with two job workers, each running its Monte-Carlo
// points on one goroutine, behind a local HTTP listener.
func start(reg *obs.Registry) (*server.Server, *httptest.Server, error) {
	srv, err := server.New(server.Config{Workers: 2, MCWorkers: 1, Registry: reg})
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

func stop(srv *server.Server, ts *httptest.Server) {
	ts.Client().CloseIdleConnections()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // Shutdown always returns nil; it waits for the workers
}

func (w *serveWorkload) setup(ctx context.Context) error {
	var err error
	if w.srv, w.ts, err = start(nil); err != nil {
		return err
	}
	out, err := w.do(ctx, w.ts, nil, 0, w.in.Warm)
	if err != nil {
		return err
	}
	if out.state != server.StateDone {
		return fmt.Errorf("warm-up job ended %s", out.state)
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		stop(w.srv, w.ts)
		w.srv, w.ts = nil, nil
	}
}

// do submits one job and polls it until it reaches a terminal state. With
// rec set, the job is one op: a server.client span from submission until
// the client sees the job end, holding the queue wait and run time the
// server recorded in the job.
func (w *serveWorkload) do(ctx context.Context, ts *httptest.Server, rec *recorder, op int, job serveJob) (*jobOutcome, error) {
	t0 := time.Now()
	root := rec.begin(op, 0, "server.client")
	defer rec.end(root)
	status, blob, err := call(ctx, ts, http.MethodPost, "/v1/"+job.Kind, job.Body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return nil, fmt.Errorf("submit %s: status %d: %s", job.Kind, status, blob)
	}
	var sub struct {
		JobID     string          `json:"job_id"`
		CacheHit  bool            `json:"cache_hit"`
		Coalesced bool            `json:"coalesced"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(blob, &sub); err != nil {
		return nil, fmt.Errorf("submit %s: %w", job.Kind, err)
	}
	out := &jobOutcome{cacheHit: sub.CacheHit, coalesced: sub.Coalesced}
	if sub.CacheHit {
		out.latency, out.state, out.result = time.Since(t0), server.StateDone, sub.Result
		return out, nil
	}
	for {
		time.Sleep(time.Duration(w.in.PollMS) * time.Millisecond)
		status, blob, err := call(ctx, ts, http.MethodGet, "/v1/jobs/"+sub.JobID, nil)
		if err != nil {
			return nil, err
		}
		out.polls++
		if status != http.StatusOK {
			return nil, fmt.Errorf("poll %s: status %d: %s", sub.JobID, status, blob)
		}
		var r server.Record
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("poll %s: %w", sub.JobID, err)
		}
		if r.State == server.StateQueued || r.State == server.StateRunning {
			continue
		}
		out.latency, out.state, out.result = time.Since(t0), r.State, r.Result
		rec.add(op, root, "server.queue", r.Created, r.Started)
		rec.add(op, root, "server.run", r.Started, r.Finished)
		return out, nil
	}
}

// call makes one HTTP request and returns the status and the whole body.
func call(ctx context.Context, ts *httptest.Server, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// drive runs jobs with the closed loop of clients until the window has
// passed (and at least one block has run). Jobs are taken in order, so the
// jobs run are a prefix of jobs; their outcomes come back in that order.
func (w *serveWorkload) drive(ctx context.Context, ts *httptest.Server, rec *recorder, jobs []serveJob, window time.Duration) ([]*jobOutcome, []error, time.Duration) {
	outs := make([]*jobOutcome, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.in.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || (i >= blockSize && time.Since(start) >= window) {
					return
				}
				outs[i], errs[i] = w.do(ctx, ts, rec, i, jobs[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := 0
	for n < len(jobs) && (outs[n] != nil || errs[n] != nil) {
		n++
	}
	return outs[:n], errs[:n], elapsed
}

// check holds one job's outcome against its request: the job is done, its
// result has the requested shape, and it is byte-equal to every other
// result for the same body, and so for the same content address, whether
// computed, coalesced or served from the cache.
func (w *serveWorkload) check(res *result, i int, job serveJob, out *jobOutcome) {
	if !res.check(out.state == server.StateDone, "job %d (%s): ended %s", i, job.Kind, out.state) {
		return
	}
	if first, ok := w.bodies[string(job.Body)]; ok {
		res.check(bytes.Equal(first, out.result), "job %d (%s): result differs from an earlier one for the same request", i, job.Kind)
		return
	}
	w.bodies[string(job.Body)] = out.result
	switch job.Kind {
	case server.KindEstimate:
		var pt server.CurvePoint
		if res.check(json.Unmarshal(out.result, &pt) == nil, "job %d: malformed estimate result", i) {
			res.check(pt.Shots == w.in.Shots, "job %d: %d shots, requested %d", i, pt.Shots, w.in.Shots)
		}
	case server.KindSynthesize:
		var syn server.SynthesizeResult
		var req server.Request
		if res.check(json.Unmarshal(out.result, &syn) == nil && json.Unmarshal(job.Body, &req) == nil, "job %d: malformed synthesize result", i) {
			res.check(syn.CertifiedDistance == syn.Distance, "job %d: certified distance %d, synthesized %d", i, syn.CertifiedDistance, syn.Distance)
			w.codes[req.Device.Arch] = append(w.codes[req.Device.Arch], qualityOf(syn.SynthReport))
		}
	case server.KindSurgery:
		var sur server.SurgeryResult
		if res.check(json.Unmarshal(out.result, &sur) == nil, "job %d: malformed surgery result", i) {
			res.check(len(sur.Patches) == 2, "job %d: %d patches", i, len(sur.Patches))
			for _, p := range sur.Patches {
				res.check(p.CertifiedDistance == p.Distance, "job %d: patch %s certified %d, distance %d", i, p.Name, p.CertifiedDistance, p.Distance)
			}
			res.check(sur.Point != nil && sur.Point.Shots == w.in.Shots, "job %d: surgery point missing or short", i)
		}
	}
}

// measure runs the jobs untraced. The size of the codes served is, per
// architecture, the mean over that architecture's calibrated syntheses,
// summed over architectures: one calibration routes differently from
// another, and the mean keeps the figure steady whichever calibrations a
// run's seed draws.
func (w *serveWorkload) measure(ctx context.Context, window time.Duration, res *result) error {
	w.bodies, w.codes = map[string][]byte{}, map[string][]quality{}
	outs, errs, elapsed := w.drive(ctx, w.ts, nil, w.in.Jobs, window)
	for i, out := range outs {
		res.attempted++
		if errs[i] != nil {
			res.opFailed(fmt.Errorf("job %d: %w", i, errs[i]))
			continue
		}
		res.latencies = append(res.latencies, out.latency)
		w.check(res, i, w.in.Jobs[i], out)
	}
	w.ran, res.elapsed = len(outs), elapsed
	for _, qs := range w.codes {
		var sum quality
		for _, q := range qs {
			sum = sum.plus(q)
		}
		n := float64(len(qs))
		res.codes = res.codes.plus(quality{sum.Gates / n, sum.Steps / n, sum.Qubits / n})
	}
	return nil
}

// replay runs the same jobs against a fresh daemon whose registry is the
// replay's, so its results must equal the untraced ones byte for byte.
func (w *serveWorkload) replay(ctx context.Context, rec *recorder, res *result) error {
	reg := obs.RegistryFromContext(ctx)
	srv, ts, err := start(reg)
	if err != nil {
		return err
	}
	defer stop(srv, ts)
	outs, errs, elapsed := w.drive(ctx, ts, rec, w.in.Jobs[:w.ran], math.MaxInt64)
	res.replayElapsed = elapsed
	var hits, coalesced, polls float64
	for i, out := range outs {
		res.attempted++
		if errs[i] != nil {
			res.opFailed(fmt.Errorf("traced job %d: %w", i, errs[i]))
			continue
		}
		w.check(res, i, w.in.Jobs[i], out)
		polls += float64(out.polls)
		if out.cacheHit {
			hits++
		}
		if out.coalesced {
			coalesced++
		}
	}
	jobs := float64(len(outs))
	res.layer["server.cache_hit_ratio"] = ratio(hits, jobs)
	res.layer["server.coalesced_ratio"] = ratio(coalesced, jobs)
	res.layer["server.polls_per_job"] = ratio(polls, jobs)

	snap := reg.Snapshot()
	shots, misses := snap["mc_shots_total"], snap["decoder_cache_misses_total"]
	res.layer["decoder.blossom_ratio"] = ratio(snap["decoder_blossom_total"], shots)
	res.layer["decoder.closed_form_ratio"] = ratio(snap["decoder_fast_k1_total"]+snap["decoder_fast_k2_total"], misses)
	res.layer["decoder.cache_hit_ratio"] = ratio(snap["decoder_cache_hits_total"], snap["decoder_cache_hits_total"]+misses)
	res.layer["decoder.uf_ratio"] = ratio(snap["decoder_uf_total"], shots)
	res.layer["decoder.logical_error_rate"] = ratio(snap["mc_errors_total"], shots)
	return nil
}
