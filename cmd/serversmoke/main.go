// Command serversmoke is the serving-layer smoke test behind
// `make server-smoke`: it boots a real surfstitchd process, drives the /v1
// job API end to end over plain net/http, and asserts the contracts that
// only a live daemon can prove:
//
//  1. Content addressing: an identical resubmission is answered at once by
//     the done job — the cache-hit counter moves and no new synthesis span
//     is recorded.
//  2. Calibration round trip: calibrated submissions run to completion and
//     different snapshots get different content addresses, while an
//     identical submission still in flight coalesces onto the running job
//     (single-flight) without a second synthesis span.
//  3. Checkpointed resume: a curve job killed mid-sweep (SIGTERM, real
//     process death) is resumed by a fresh daemon on the same store
//     directory and finishes with the checkpointed points intact.
//  4. Persisted answers: on that fresh daemon, part 1's estimate is a cache
//     hit served from the job store — byte-identical, with no synthesis
//     span — and every persisted record passed its integrity check.
//
// Usage:
//
//	serversmoke -bin ./bin/surfstitchd
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var addrRe = regexp.MustCompile(`surfstitchd: listening on http://(\S+)`)

// The payload types mirror internal/server's wire schema (kept in lockstep
// by the API tests; the smoke test speaks raw JSON like any client would).
type submitResponse struct {
	JobID     string          `json:"job_id"`
	State     string          `json:"state"`
	CacheHit  bool            `json:"cache_hit"`
	Coalesced bool            `json:"coalesced"`
	Result    json.RawMessage `json:"result"`
}

type curvePoint struct {
	P       float64 `json:"p"`
	Logical float64 `json:"logical"`
	Shots   int     `json:"shots"`
	Errors  int     `json:"errors"`
}

type jobRecord struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CacheKey   string          `json:"cache_key"`
	ErrorKind  string          `json:"error_kind"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	Checkpoint []curvePoint    `json:"checkpoint"`
}

type curveResult struct {
	Points []curvePoint `json:"points"`
}

// daemon is one running surfstitchd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
	reaped bool // the single exit notification has been consumed
}

// wait consumes the child's exit (at most once; cmd.Wait sends exactly one
// notification), reporting false on timeout. Safe to call after the child
// is already reaped — later calls return true immediately.
func (d *daemon) wait(timeout time.Duration) bool {
	if d.reaped {
		return true
	}
	select {
	case <-d.exited:
		d.reaped = true
		return true
	case <-time.After(timeout):
		return false
	}
}

func main() {
	var (
		bin     = flag.String("bin", "", "path to the surfstitchd binary (required)")
		timeout = flag.Duration("timeout", 120*time.Second, "give up after this long")
	)
	flag.Parse()
	if *bin == "" {
		fail("usage: serversmoke -bin <surfstitchd-binary>")
	}
	deadline := time.Now().Add(*timeout)

	work, err := os.MkdirTemp("", "serversmoke-*")
	if err != nil {
		fail("tempdir: %v", err)
	}
	defer os.RemoveAll(work)
	storeDir := filepath.Join(work, "store")

	d := boot(*bin, storeDir, deadline)
	defer d.kill()

	// ---- Part 1: estimate round trip + content-addressed cache hit.
	estimate := map[string]any{
		"device":   map[string]any{"arch": "square", "width": 4, "height": 4},
		"distance": 3,
		"p":        0.002,
		"run":      map[string]any{"shots": 4000, "seed": 7},
	}
	sub := d.submit("/v1/estimate", estimate)
	if sub.State != "queued" {
		fail("estimate submission state %q, want queued", sub.State)
	}
	rec := d.waitJob(sub.JobID, deadline, func(r jobRecord) bool { return terminal(r.State) })
	if rec.State != "done" {
		fail("estimate job ended %s: %s", rec.State, rec.Error)
	}
	var pt curvePoint
	if err := json.Unmarshal(rec.Result, &pt); err != nil || pt.Shots != 4000 {
		fail("estimate result %s (err %v)", rec.Result, err)
	}
	fmt.Printf("serversmoke: estimate done (p=%g logical=%g)\n", pt.P, pt.Logical)

	hitsBefore := d.metric("server_cache_hits_total")
	synthBefore := d.metric(`span_count_total{span="synth.synthesize"}`)

	again := d.submit("/v1/estimate", estimate)
	if !again.CacheHit || again.State != "done" {
		fail("identical resubmission not served from cache: hit=%v state=%s", again.CacheHit, again.State)
	}
	if !bytes.Equal(bytes.TrimSpace(again.Result), bytes.TrimSpace(rec.Result)) {
		fail("cached result differs:\n%s\n%s", again.Result, rec.Result)
	}
	if hits := d.metric("server_cache_hits_total"); hits != hitsBefore+1 {
		fail("cache hits went %g -> %g, want +1", hitsBefore, hits)
	}
	if synth := d.metric(`span_count_total{span="synth.synthesize"}`); synth != synthBefore {
		fail("cache hit ran synthesis: span count %g -> %g", synthBefore, synth)
	}
	fmt.Println("serversmoke: identical resubmission served from cache, no synthesis span")

	// ---- Part 2: calibration round trip + single-flight coalescing.
	calibrated := func(preset string, shots int, seed int64) map[string]any {
		return map[string]any{
			"device":      map[string]any{"arch": "square", "width": 4, "height": 4},
			"distance":    3,
			"p":           0.002,
			"run":         map[string]any{"shots": shots, "seed": seed},
			"calibration": map[string]any{"preset": preset, "seed": 1},
		}
	}
	uncalKey := d.getJob(sub.JobID).CacheKey
	goodSub := d.submit("/v1/estimate", calibrated("good", 4000, 7))
	goodRec := d.waitJob(goodSub.JobID, deadline, func(r jobRecord) bool { return terminal(r.State) })
	badSub := d.submit("/v1/estimate", calibrated("bad", 4000, 7))
	badRec := d.waitJob(badSub.JobID, deadline, func(r jobRecord) bool { return terminal(r.State) })
	if goodRec.State != "done" || badRec.State != "done" {
		fail("calibrated estimates ended %s/%s: %s %s", goodRec.State, badRec.State, goodRec.Error, badRec.Error)
	}
	if uncalKey == "" || goodRec.CacheKey == "" || badRec.CacheKey == "" {
		fail("job records lost their cache keys")
	}
	if goodRec.CacheKey == uncalKey || badRec.CacheKey == uncalKey || goodRec.CacheKey == badRec.CacheKey {
		fail("calibrations do not separate content addresses: uncal=%s good=%s bad=%s",
			uncalKey, goodRec.CacheKey, badRec.CacheKey)
	}
	fmt.Println("serversmoke: good/bad calibrations ran and got distinct content addresses")

	// Single-flight: park a long calibrated estimate, wait for its one
	// synthesis span, then resubmit it verbatim — the duplicate must fold
	// onto the running job without another span.
	synthBase := d.metric(`span_count_total{span="synth.synthesize"}`)
	slow := calibrated("good", 50_000_000, 99)
	owner := d.submit("/v1/estimate", slow)
	if owner.CacheHit || owner.Coalesced {
		fail("slow owner submission answered hit=%v coalesced=%v", owner.CacheHit, owner.Coalesced)
	}
	for d.metric(`span_count_total{span="synth.synthesize"}`) != synthBase+1 {
		if time.Now().After(deadline) {
			fail("owner job never recorded its synthesis span")
		}
		time.Sleep(20 * time.Millisecond)
	}
	dup := d.submit("/v1/estimate", slow)
	if !dup.Coalesced || dup.JobID != owner.JobID {
		fail("identical in-flight submission not coalesced: coalesced=%v job=%s (owner %s)",
			dup.Coalesced, dup.JobID, owner.JobID)
	}
	if got := d.metric("server_singleflight_total"); got < 1 {
		fail("server_singleflight_total = %g, want >= 1", got)
	}
	if synth := d.metric(`span_count_total{span="synth.synthesize"}`); synth != synthBase+1 {
		fail("coalesced submission changed the synth span count: %g -> %g", synthBase+1, synth)
	}
	d.cancel(owner.JobID)
	d.waitJob(owner.JobID, deadline, func(r jobRecord) bool { return terminal(r.State) })
	fmt.Println("serversmoke: identical in-flight submission coalesced, synth span count unchanged")

	// ---- Part 3: kill a curve job mid-sweep, restart, resume.
	curve := map[string]any{
		"device":   map[string]any{"arch": "square", "width": 4, "height": 4},
		"distance": 3,
		"ps":       []float64{0.001, 0.002, 0.003, 0.004, 0.006, 0.008},
		"run":      map[string]any{"shots": 60000, "seed": 42},
	}
	csub := d.submit("/v1/curve", curve)
	var preKill jobRecord
	for {
		preKill = d.getJob(csub.JobID)
		if len(preKill.Checkpoint) >= 1 && preKill.State == "running" {
			break
		}
		if terminal(preKill.State) {
			fail("curve job ended %s before it could be killed (%d points); shots too small",
				preKill.State, len(preKill.Checkpoint))
		}
		if time.Now().After(deadline) {
			fail("no curve checkpoint appeared; state %s", preKill.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("serversmoke: SIGTERM with %d/6 points checkpointed\n", len(preKill.Checkpoint))
	d.terminate(deadline)

	d2 := boot(*bin, storeDir, deadline)
	defer d2.kill()
	rec2 := d2.waitJob(csub.JobID, deadline, func(r jobRecord) bool { return terminal(r.State) })
	if rec2.State != "done" {
		fail("resumed curve job ended %s: %s", rec2.State, rec2.Error)
	}
	var cr curveResult
	if err := json.Unmarshal(rec2.Result, &cr); err != nil {
		fail("curve result: %v", err)
	}
	if len(cr.Points) != 6 {
		fail("resumed curve has %d points, want 6", len(cr.Points))
	}
	for i, pre := range preKill.Checkpoint {
		if cr.Points[i] != pre {
			fail("checkpointed point %d changed across restart: %+v -> %+v", i, pre, cr.Points[i])
		}
	}
	if resumed := d2.metric("server_curve_points_resumed_total"); resumed < 1 {
		fail("server_curve_points_resumed_total = %g, want >= 1", resumed)
	}
	if jobs := d2.metric("server_jobs_resumed_total"); jobs < 1 {
		fail("server_jobs_resumed_total = %g, want >= 1", jobs)
	}
	fmt.Printf("serversmoke: restart resumed the sweep, %d checkpointed points intact\n", len(preKill.Checkpoint))

	// ---- Part 4: the restarted daemon answers part 1's estimate from the
	// job record the first daemon persisted.
	if corrupt := d2.metric("server_store_corrupt_total"); corrupt != 0 {
		fail("server_store_corrupt_total = %g after restart, want 0", corrupt)
	}
	hitsBefore = d2.metric("server_cache_hits_total")
	synthBefore = d2.metric(`span_count_total{span="synth.synthesize"}`)
	persisted := d2.submit("/v1/estimate", estimate)
	if !persisted.CacheHit || persisted.State != "done" {
		fail("estimate after restart not served from the store: hit=%v state=%s", persisted.CacheHit, persisted.State)
	}
	if !bytes.Equal(persisted.Result, rec.Result) {
		fail("persisted result differs:\n%s\n%s", persisted.Result, rec.Result)
	}
	if hits := d2.metric("server_cache_hits_total"); hits != hitsBefore+1 {
		fail("cache hits after restart went %g -> %g, want +1", hitsBefore, hits)
	}
	if synth := d2.metric(`span_count_total{span="synth.synthesize"}`); synth != synthBefore {
		fail("persisted hit ran synthesis: span count %g -> %g", synthBefore, synth)
	}
	fmt.Println("serversmoke: restarted daemon served the estimate from the store, byte-identical, no synthesis span")
	d2.terminate(deadline)
	fmt.Println("serversmoke: PASS")
}

// boot launches one daemon on a fresh port over the shared store directory
// and waits for its banner.
func boot(bin, storeDir string, deadline time.Time) *daemon {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-store-dir", storeDir,
		"-workers", "1",
		"-mc-workers", "1",
		"-drain-timeout", "500ms",
	)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fail("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fail("start %s: %v", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { d.exited <- cmd.Wait() }()
	select {
	case d.addr = <-addrCh:
	case err := <-d.exited:
		fail("surfstitchd exited before its banner: %v", err)
	case <-time.After(time.Until(deadline)):
		d.kill()
		fail("timed out waiting for the surfstitchd banner")
	}
	fmt.Printf("serversmoke: daemon up at http://%s\n", d.addr)
	return d
}

func (d *daemon) submit(path string, body any) submitResponse {
	blob, err := json.Marshal(body)
	if err != nil {
		fail("marshal: %v", err)
	}
	status, out := d.call(http.MethodPost, path, blob)
	if status != http.StatusAccepted && status != http.StatusOK {
		fail("POST %s: status %d, body %s", path, status, out)
	}
	var sr submitResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		fail("parsing submit response: %v", err)
	}
	return sr
}

func (d *daemon) cancel(id string) {
	if status, out := d.call(http.MethodDelete, "/v1/jobs/"+id, nil); status != http.StatusAccepted {
		fail("DELETE job %s: status %d, body %s", id, status, out)
	}
}

func (d *daemon) getJob(id string) jobRecord {
	status, blob := d.call(http.MethodGet, "/v1/jobs/"+id, nil)
	if status != http.StatusOK {
		fail("GET job %s: status %d, body %s", id, status, blob)
	}
	var rec jobRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		fail("parsing job record: %v", err)
	}
	return rec
}

// call makes one request to the daemon and returns the status and the
// whole body; a transport error fails the smoke test.
func (d *daemon) call(method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, "http://"+d.addr+path, bytes.NewReader(body))
	if err != nil {
		fail("%s %s: %v", method, path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fail("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("%s %s: reading body: %v", method, path, err)
	}
	return resp.StatusCode, out
}

func (d *daemon) waitJob(id string, deadline time.Time, pred func(jobRecord) bool) jobRecord {
	for time.Now().Before(deadline) {
		rec := d.getJob(id)
		if pred(rec) {
			return rec
		}
		time.Sleep(25 * time.Millisecond)
	}
	fail("timed out waiting on job %s (state %s)", id, d.getJob(id).State)
	panic("unreachable")
}

// metric scrapes /metrics and returns the value of one exact series name
// (0 when absent).
func (d *daemon) metric(series string) float64 {
	status, blob := d.call(http.MethodGet, "/metrics", nil)
	if status != http.StatusOK {
		fail("GET /metrics: status %d", status)
	}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			fail("parsing %s: %v", line, err)
		}
		return v
	}
	return 0
}

// terminate sends SIGTERM — the signal a process manager sends — and waits
// for a clean exit.
func (d *daemon) terminate(deadline time.Time) {
	if d.reaped || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	if !d.wait(time.Until(deadline)) {
		_ = d.cmd.Process.Kill()
		d.wait(5 * time.Second)
		fail("surfstitchd did not exit after SIGTERM")
	}
}

// kill is the cleanup path: escalate to SIGKILL if needed. A no-op when the
// child was already reaped by terminate.
func (d *daemon) kill() {
	if d.reaped || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	if !d.wait(5 * time.Second) {
		_ = d.cmd.Process.Kill()
		d.wait(5 * time.Second)
	}
}

// terminal reports whether a job state admits no further transitions.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serversmoke: "+format+"\n", args...)
	os.Exit(1)
}
