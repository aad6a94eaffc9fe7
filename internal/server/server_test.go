package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// synthSpanSeries is the span counter that must not move on a cache hit.
const synthSpanSeries = `span_count_total{span="synth.synthesize"}`

// newTestServer boots a started server behind httptest and tears both down
// (with immediate job cancellation) at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired drain: cancel running jobs immediately
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

func submit(t *testing.T, ts *httptest.Server, path string, body any) submitResponse {
	t.Helper()
	resp, blob := postJSON(t, ts, path, body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", path, resp.StatusCode, blob)
	}
	var sr submitResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatalf("parsing submit response: %v", err)
	}
	return sr
}

func getJob(t *testing.T, ts *httptest.Server, id string) Record {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading job: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d, body %s", id, resp.StatusCode, blob)
	}
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("parsing job record: %v", err)
	}
	return rec
}

// waitJob polls the job until pred holds, failing after a generous deadline.
func waitJob(t *testing.T, ts *httptest.Server, id string, what string, pred func(Record) bool) Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec := getJob(t, ts, id)
		if pred(rec) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q; last state %s", id, what, getJob(t, ts, id).State)
	return Record{}
}

// squareReq is a minimal fast request against the 4x4 square tiling that
// supports distance 3 (internal/devicetest.Sizes).
func squareReq(extra map[string]any) map[string]any {
	req := map[string]any{
		"device":   map[string]any{"arch": "square", "width": 4, "height": 4},
		"distance": 3,
	}
	for k, v := range extra {
		req[k] = v
	}
	return req
}

// slowEstimate is an estimate request sized to run for minutes unless
// cancelled — the standing workload of the backpressure and cancellation
// tests. MaxErrors/TargetRSE stay zero so only shots bound it.
func slowEstimate() map[string]any {
	return squareReq(map[string]any{
		"p":   0.002,
		"run": map[string]any{"shots": 50_000_000, "seed": 11},
	})
}

func TestSynthesizeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	sr := submit(t, ts, "/v1/synthesize", squareReq(nil))
	if sr.State != StateQueued {
		t.Fatalf("submit state = %s, want queued", sr.State)
	}
	rec := waitJob(t, ts, sr.JobID, "done", func(r Record) bool { return r.State == StateDone })
	if len(rec.Result) == 0 {
		t.Fatal("done job has no result payload")
	}
	var report struct {
		Distance int `json:"distance"`
	}
	if err := json.Unmarshal(rec.Result, &report); err != nil {
		t.Fatalf("result is not a synthesis report: %v", err)
	}
	if report.Distance != 3 {
		t.Fatalf("report distance = %d, want 3", report.Distance)
	}
	if rec.Manifest == nil || rec.Manifest.Tool != "surfstitchd/synthesize" {
		t.Fatalf("job manifest missing or mislabelled: %+v", rec.Manifest)
	}
	if rec.CacheKey == "" {
		t.Fatal("job record has no cache key")
	}
}

func TestEstimateCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	req := squareReq(map[string]any{
		"p":   0.002,
		"run": map[string]any{"shots": 400, "seed": 7},
	})

	first := submit(t, ts, "/v1/estimate", req)
	rec := waitJob(t, ts, first.JobID, "done", func(r Record) bool { return r.State == StateDone })
	if rec.CacheHit {
		t.Fatal("first run must not be a cache hit")
	}
	var pt CurvePoint
	if err := json.Unmarshal(rec.Result, &pt); err != nil {
		t.Fatalf("estimate result: %v", err)
	}
	if pt.Shots != 400 || pt.P != 0.002 {
		t.Fatalf("estimate point = %+v", pt)
	}

	synthBefore := s.reg.Snapshot()[synthSpanSeries]
	hitsBefore := s.m.CacheHits.Value()

	second := submit(t, ts, "/v1/estimate", req)
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("identical resubmission: cache_hit=%v state=%s, want hit+done", second.CacheHit, second.State)
	}
	if second.JobID == first.JobID {
		t.Fatal("resubmission must mint a fresh job id")
	}
	if !bytes.Equal(second.Result, rec.Result) {
		t.Fatalf("cached result differs:\n%s\n%s", second.Result, rec.Result)
	}
	rec2 := getJob(t, ts, second.JobID)
	if rec2.State != StateDone || !rec2.CacheHit || rec2.CacheKey != rec.CacheKey {
		t.Fatalf("cached job record = state %s hit %v key %s", rec2.State, rec2.CacheHit, rec2.CacheKey)
	}
	if got := s.m.CacheHits.Value(); got != hitsBefore+1 {
		t.Fatalf("cache hits = %d, want %d", got, hitsBefore+1)
	}
	if after := s.reg.Snapshot()[synthSpanSeries]; after != synthBefore {
		t.Fatalf("cache hit ran synthesis: %s went %v -> %v", synthSpanSeries, synthBefore, after)
	}
}

func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueSize: 1, Workers: 1, MCWorkers: 1})

	running := submit(t, ts, "/v1/estimate", slowEstimate())
	waitJob(t, ts, running.JobID, "running", func(r Record) bool { return r.State == StateRunning })

	// Occupies the single queue slot (different seed → different cache key).
	queued := submit(t, ts, "/v1/estimate", squareReq(map[string]any{
		"p":   0.002,
		"run": map[string]any{"shots": 50_000_000, "seed": 12},
	}))

	refused := squareReq(map[string]any{
		"p":   0.002,
		"run": map[string]any{"shots": 50_000_000, "seed": 13},
	})
	resp, blob := postJSON(t, ts, "/v1/estimate", refused)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, body %s", resp.StatusCode, blob)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	var er errorResponse
	if err := json.Unmarshal(blob, &er); err != nil || er.Kind != "backpressure" {
		t.Fatalf("429 body = %s (err %v), want backpressure kind", blob, err)
	}
	if s.m.Backpressure.Value() == 0 {
		t.Fatal("backpressure counter did not move")
	}

	// Unblock the worker so cleanup is fast.
	for _, id := range []string{queued.JobID, running.JobID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatalf("DELETE: %v", err)
		}
	}

	// Once the worker has drained the queue, the refused body is a fresh
	// job: the 429 released its claim, so nothing is left to coalesce onto.
	deadline := time.Now().Add(60 * time.Second)
	for s.m.QueueDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	retry := submit(t, ts, "/v1/estimate", refused)
	if retry.Coalesced || retry.CacheHit || retry.State != StateQueued {
		t.Fatalf("refused body resubmitted: coalesced=%v hit=%v state=%s, want a fresh queued job",
			retry.Coalesced, retry.CacheHit, retry.State)
	}
	if rec := getJob(t, ts, retry.JobID); rec.ID != retry.JobID {
		t.Fatalf("resubmitted job %s not stored", retry.JobID)
	}
	cancelJob(t, ts, retry.JobID)
}

// cancelJob sends DELETE /v1/jobs/{id} and expects it accepted.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatalf("DELETE request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE job %s: status %d", id, resp.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	sr := submit(t, ts, "/v1/estimate", slowEstimate())
	waitJob(t, ts, sr.JobID, "running", func(r Record) bool { return r.State == StateRunning })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}

	rec := waitJob(t, ts, sr.JobID, "cancelled", func(r Record) bool { return r.State.terminal() })
	if rec.State != StateCancelled || rec.ErrorKind != "cancelled" {
		t.Fatalf("cancelled job: state %s kind %s", rec.State, rec.ErrorKind)
	}
	if rec.Finished.IsZero() {
		t.Fatal("cancelled job has no finish time")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueSize: 2, Workers: 1, MCWorkers: 1})
	blocker := submit(t, ts, "/v1/estimate", slowEstimate())
	waitJob(t, ts, blocker.JobID, "running", func(r Record) bool { return r.State == StateRunning })

	queued := submit(t, ts, "/v1/estimate", squareReq(map[string]any{
		"p":   0.002,
		"run": map[string]any{"shots": 50_000_000, "seed": 21},
	}))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("DELETE body: %v", err)
	}
	resp.Body.Close()
	if sr.State != StateCancelled {
		t.Fatalf("queued job after DELETE = %s, want cancelled immediately", sr.State)
	}
	rec := getJob(t, ts, queued.JobID)
	if rec.State != StateCancelled || rec.ErrorKind != "cancelled" {
		t.Fatalf("record: state %s kind %s", rec.State, rec.ErrorKind)
	}
}

func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	sr := submit(t, ts, "/v1/estimate", squareReq(map[string]any{
		"p":               0.002,
		"run":             map[string]any{"shots": 50_000_000, "seed": 31},
		"timeout_seconds": 0.05,
	}))
	rec := waitJob(t, ts, sr.JobID, "terminal", func(r Record) bool { return r.State.terminal() })
	if rec.State != StateFailed || rec.ErrorKind != "deadline_exceeded" {
		t.Fatalf("deadline job: state %s kind %s err %q", rec.State, rec.ErrorKind, rec.Error)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown field", "/v1/synthesize", map[string]any{"devise": 1}, http.StatusBadRequest},
		{"no device source", "/v1/synthesize", map[string]any{"distance": 3}, http.StatusBadRequest},
		{"bad arch", "/v1/synthesize", map[string]any{
			"device": map[string]any{"arch": "triangular", "width": 4, "height": 4}, "distance": 3,
		}, http.StatusBadRequest},
		{"synthesize with p", "/v1/synthesize", squareReq(map[string]any{"p": 0.01}), http.StatusBadRequest},
		{"estimate without p", "/v1/estimate", squareReq(nil), http.StatusBadRequest},
		{"curve with duplicate ps", "/v1/curve", squareReq(map[string]any{"ps": []float64{0.01, 0.01}}), http.StatusBadRequest},
		{"bad mode", "/v1/synthesize", squareReq(map[string]any{"options": map[string]any{"mode": "five"}}), http.StatusBadRequest},
		{"negative shots", "/v1/estimate", squareReq(map[string]any{"p": 0.01, "run": map[string]any{"shots": -5}}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, blob := postJSON(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.status, blob)
			}
			var er errorResponse
			if err := json.Unmarshal(blob, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %s (err %v)", blob, err)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j-doesnotexist")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestInfeasibleDeviceFailsAsync: placement feasibility is only known once
// synthesis runs, so a well-formed but too-small device is accepted and the
// job fails with the typed no_placement kind.
func TestInfeasibleDeviceFailsAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	sr := submit(t, ts, "/v1/synthesize", map[string]any{
		"device": map[string]any{"arch": "square", "width": 2, "height": 2}, "distance": 3,
	})
	rec := waitJob(t, ts, sr.JobID, "terminal", func(r Record) bool { return r.State.terminal() })
	if rec.State != StateFailed || rec.ErrorKind != "no_placement" {
		t.Fatalf("infeasible job: state %s kind %s err %q", rec.State, rec.ErrorKind, rec.Error)
	}
}

func TestListJobsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	sr := submit(t, ts, "/v1/synthesize", squareReq(nil))
	waitJob(t, ts, sr.JobID, "done", func(r Record) bool { return r.State == StateDone })

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	var list struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("list body: %v", err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sr.JobID {
		t.Fatalf("job list = %+v", list.Jobs)
	}

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

func TestMetricsExposeServerSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	for _, series := range []string{
		"server_queue_depth", "server_backpressure_total",
		"server_cache_hits_total", "server_cache_misses_total",
		"server_jobs_resumed_total", "server_curve_points_resumed_total",
	} {
		if !bytes.Contains(blob, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

func TestDrainingRejectsSubmissions(t *testing.T) {
	cfg := Config{Workers: 1, MCWorkers: 1, Logf: t.Logf}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	resp, blob := postJSON(t, ts, "/v1/synthesize", squareReq(nil))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, body %s", resp.StatusCode, blob)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d", rz.StatusCode)
	}
}

// Shutdown must wait for a job a worker dequeues just as draining begins:
// the job either never starts (it stays queued for the next boot) or runs
// to its end inside the drain timeout — it is never cancelled early. Under
// -race (make race-core) this also checks that counting the job in flight
// is ordered against Shutdown's wait.
func TestShutdownWaitsForStartedJob(t *testing.T) {
	// An infeasible device fails synthesis quickly, so each round is short.
	body, err := json.Marshal(map[string]any{
		"device": map[string]any{"arch": "square", "width": 2, "height": 2}, "distance": 3,
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for i := 0; i < 40; i++ {
		s, err := New(Config{Workers: 1, MCWorkers: 1, Logf: t.Logf})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := s.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: status %d, body %s", w.Code, w.Body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		rec := s.store.List()[0].Snapshot()
		neverStarted := rec.State == StateQueued && rec.Started.IsZero()
		ranToEnd := rec.State == StateFailed && rec.ErrorKind == "no_placement"
		if !neverStarted && !ranToEnd {
			t.Fatalf("round %d: job ended %s (%s) after starting at %v; Shutdown did not wait for it",
				i, rec.State, rec.ErrorKind, rec.Started)
		}
	}
}

// TestObsMuxMounted asserts the debug surface rides on the daemon handler.
func TestObsMuxMounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
}
