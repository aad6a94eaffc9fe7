package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"surfstitch"
)

// decodeReq marshals a map-shaped request through the wire schema.
func decodeReq(t *testing.T, m map[string]any) Request {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var req Request
	if err := json.Unmarshal(blob, &req); err != nil {
		t.Fatalf("building request: %v", err)
	}
	return req
}

// An identical submission while the first job is still in flight must
// coalesce onto it: same job id, no second queue slot, and the counter
// records the fold.
func TestSingleFlightCoalescesInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	first := submit(t, ts, "/v1/estimate", slowEstimate())
	if first.Coalesced {
		t.Fatal("first submission claims to be coalesced")
	}
	second := submit(t, ts, "/v1/estimate", slowEstimate())
	if !second.Coalesced {
		t.Fatal("identical in-flight submission was not coalesced")
	}
	if second.JobID != first.JobID {
		t.Fatalf("coalesced submission names job %s, want the owner %s", second.JobID, first.JobID)
	}
	if got := s.m.SingleFlight.Value(); got != 1 {
		t.Fatalf("singleflight counter = %d, want 1", got)
	}
	// Only the owner occupies the store: the fold minted no job record.
	if n := len(s.store.List()); n != 1 {
		t.Fatalf("store holds %d jobs after coalescing, want 1", n)
	}
	// A *different* request must not coalesce.
	other := submit(t, ts, "/v1/estimate", squareReq(map[string]any{
		"p":   0.002,
		"run": map[string]any{"shots": 50_000_000, "seed": 12},
	}))
	if other.Coalesced || other.JobID == first.JobID {
		t.Fatalf("distinct request coalesced onto %s", first.JobID)
	}
}

// Once the owner settles, the flight is released: a resubmission is answered
// by the cache with a fresh job id, never folded onto the finished job.
func TestSingleFlightReleasedOnCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	req := squareReq(map[string]any{
		"p":   0.001,
		"run": map[string]any{"shots": 64, "seed": 5},
	})
	first := submit(t, ts, "/v1/estimate", req)
	waitJob(t, ts, first.JobID, "done", func(r Record) bool { return r.State == StateDone })
	second := submit(t, ts, "/v1/estimate", req)
	if second.Coalesced {
		t.Fatal("resubmission after completion was coalesced instead of cache-served")
	}
	if !second.CacheHit || second.JobID == first.JobID {
		t.Fatalf("resubmission: cache_hit=%v job=%s (first %s); want a cached fresh job",
			second.CacheHit, second.JobID, first.JobID)
	}
	if got := s.m.SingleFlight.Value(); got != 0 {
		t.Fatalf("singleflight counter = %d, want 0", got)
	}
}

// A cancelled owner answers nothing: an identical submission mints a new
// job instead of being served or folded onto the cancelled one.
func TestCancelledOwnerMintsNewJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	owner := submit(t, ts, "/v1/estimate", slowEstimate())
	waitJob(t, ts, owner.JobID, "running", func(r Record) bool { return r.State == StateRunning })
	cancelJob(t, ts, owner.JobID)
	waitJob(t, ts, owner.JobID, "cancelled", func(r Record) bool { return r.State == StateCancelled })

	again := submit(t, ts, "/v1/estimate", slowEstimate())
	if again.CacheHit || again.Coalesced || again.JobID == owner.JobID || again.State != StateQueued {
		t.Fatalf("resubmission after cancel: hit=%v coalesced=%v job=%s (owner %s) state=%s; want a fresh queued job",
			again.CacheHit, again.Coalesced, again.JobID, owner.JobID, again.State)
	}
	if hits, folds := s.m.CacheHits.Value(), s.m.SingleFlight.Value(); hits != 0 || folds != 0 {
		t.Fatalf("hits/coalesced = %d/%d, want 0/0", hits, folds)
	}
	cancelJob(t, ts, again.JobID)
}

// calReq clones squareReq's estimate shape with a calibration spec attached.
func calReq(preset string, seed int64) map[string]any {
	return squareReq(map[string]any{
		"p":           0.001,
		"run":         map[string]any{"shots": 64, "seed": 5},
		"calibration": map[string]any{"preset": preset, "seed": seed},
	})
}

// Different calibrations are different computations: the content address
// must separate them, and identical specs must agree.
func TestCompileCalibrationSeparatesKeys(t *testing.T) {
	compileKey := func(extra map[string]any) string {
		t.Helper()
		c, err := compile(KindEstimate, decodeReq(t, squareReq(extra)))
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return c.key
	}
	base := map[string]any{"p": 0.001, "run": map[string]any{"shots": 64, "seed": 5}}
	plain := compileKey(base)
	good := compileKey(map[string]any{"p": 0.001, "run": map[string]any{"shots": 64, "seed": 5},
		"calibration": map[string]any{"preset": "good", "seed": 1}})
	bad := compileKey(map[string]any{"p": 0.001, "run": map[string]any{"shots": 64, "seed": 5},
		"calibration": map[string]any{"preset": "bad", "seed": 1}})
	goodAgain := compileKey(map[string]any{"p": 0.001, "run": map[string]any{"shots": 64, "seed": 5},
		"calibration": map[string]any{"preset": "good", "seed": 1}})
	if plain == good || plain == bad || good == bad {
		t.Fatalf("calibrations share content addresses: plain=%s good=%s bad=%s", plain, good, bad)
	}
	if good != goodAgain {
		t.Fatalf("identical calibration specs hash differently: %s vs %s", good, goodAgain)
	}
}

// Malformed calibration specs must surface the typed sentinel and map to a
// client-fault HTTP answer.
func TestCalibrationSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec map[string]any
	}{
		{"no source", map[string]any{}},
		{"both sources", map[string]any{"preset": "good", "custom": map[string]any{"name": "x"}}},
		{"seed with custom", map[string]any{"seed": 3, "custom": map[string]any{"name": "x"}}},
		{"unknown preset", map[string]any{"preset": "heroic"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := decodeReq(t, squareReq(map[string]any{
				"p": 0.001, "run": map[string]any{"shots": 64},
				"calibration": tc.spec,
			}))
			_, err := compile(KindEstimate, req)
			if !errors.Is(err, surfstitch.ErrBadCalibration) {
				t.Fatalf("compile error %v, want ErrBadCalibration", err)
			}
			if statusFor(err) != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", statusFor(err))
			}
			if errorKind(err) != "bad_calibration" {
				t.Fatalf("error kind %q, want bad_calibration", errorKind(err))
			}
		})
	}
}

// End to end over HTTP: calibrated jobs run, their snapshot is part of the
// cache identity, and a bad spec answers 400 with the typed kind.
func TestCalibrationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	good := submit(t, ts, "/v1/estimate", calReq("good", 1))
	rec := waitJob(t, ts, good.JobID, "done", func(r Record) bool { return r.State == StateDone })
	if rec.CacheKey == "" {
		t.Fatal("calibrated job has no cache key")
	}
	bad := submit(t, ts, "/v1/estimate", calReq("bad", 1))
	recBad := waitJob(t, ts, bad.JobID, "done", func(r Record) bool { return r.State == StateDone })
	if recBad.CacheKey == rec.CacheKey {
		t.Fatal("good and bad calibrations share a cache key")
	}
	resp, blob := postJSON(t, ts, "/v1/estimate", calReq("heroic", 1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad preset: status %d, body %s", resp.StatusCode, blob)
	}
	var er errorResponse
	if err := json.Unmarshal(blob, &er); err != nil || er.Kind != "bad_calibration" {
		t.Fatalf("bad preset: kind %q (err %v), want bad_calibration", er.Kind, err)
	}
}
