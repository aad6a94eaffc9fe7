package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"surfstitch/internal/obs"
)

// State is a job's lifecycle state. Transitions:
//
//	queued ──► running ──► done
//	  │           ├──────► failed
//	  │           ├──────► cancelled        (DELETE /v1/jobs/{id})
//	  │           └──────► queued           (daemon drain: resumable)
//	  └─────────────────► cancelled         (DELETE while still queued)
//
// A drain interruption sends a running job *back* to queued with its
// checkpoint intact, which is exactly what makes curve jobs resumable
// across restarts.
type State string

// The job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transition can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// CurvePoint is one completed sweep point of a curve (or estimate) job.
type CurvePoint struct {
	P       float64 `json:"p"`
	Logical float64 `json:"logical"`
	Shots   int     `json:"shots"`
	Errors  int     `json:"errors"`
}

// Record is the persisted and wire form of a job. The provenance core is an
// obs.Manifest — the same record every CLI writes — so a job answers "what
// exactly was this run" with the identical schema, and the daemon's job
// store doubles as a manifest archive.
type Record struct {
	SchemaVersion int     `json:"schema_version"`
	ID            string  `json:"id"`
	Kind          string  `json:"kind"`
	State         State   `json:"state"`
	Request       Request `json:"request"`
	// CacheKey is the surfstitch.ConfigHash content-address of the
	// computation; identical requests share it.
	CacheKey string `json:"cache_key"`
	// CacheHit marks a job whose result was served from an identical done
	// job without re-simulation.
	CacheHit  bool      `json:"cache_hit,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Error     string    `json:"error,omitempty"`
	ErrorKind string    `json:"error_kind,omitempty"`
	// Result is the kind-specific payload: a synthesis report, a single
	// point, or a curve document.
	Result json.RawMessage `json:"result,omitempty"`
	// ResultSHA256 is the hex SHA-256 of CacheKey followed by Result, set
	// with the result. A done record loaded from disk answers identical
	// submissions only when it matches, so a changed result, or a result
	// moved onto another key, is never served.
	ResultSHA256 string `json:"result_sha256,omitempty"`
	// Checkpoint holds the completed sweep points of a curve job; it is
	// persisted after every point so a restart resumes instead of
	// re-sweeping.
	Checkpoint []CurvePoint `json:"checkpoint,omitempty"`
	// ResumedPoints counts checkpoint points served without re-simulation
	// on the run that completed the job.
	ResumedPoints int `json:"resumed_points,omitempty"`
	// Manifest is the run record (tool, seed, config, git revision,
	// timings, final stats snapshot).
	Manifest *obs.Manifest `json:"manifest,omitempty"`
}

// Job is one asynchronous request. The Record part is guarded by mu (HTTP
// handlers read it while a worker mutates it); the runtime fields (compiled
// request, cancel func) never travel to disk.
type Job struct {
	mu  sync.Mutex
	rec Record

	// c is the validated request; nil right after a store load, recompiled
	// lazily by the worker.
	c          *compiled
	cancel     func()
	userCancel bool
}

// newJob wraps a compiled request into a queued job with a fresh ID and an
// open manifest.
func newJob(c *compiled) (*Job, error) {
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	return &Job{
		rec: Record{
			SchemaVersion: obs.SchemaVersion,
			ID:            id,
			Kind:          c.kind,
			State:         StateQueued,
			Request:       c.req,
			CacheKey:      c.key,
			Created:       time.Now(),
			Manifest:      obs.NewManifest("surfstitchd/"+c.kind, c.cfg.Seed, c.req),
		},
		c: c,
	}, nil
}

func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: job id: %w", err)
	}
	return "j-" + hex.EncodeToString(b[:]), nil
}

// Snapshot returns a copy of the job's record safe to marshal concurrently
// with worker updates. The manifest is copied by value: sealManifest mutates
// it under the same lock, so handing out the live pointer would race with
// JSON encoding in an HTTP handler.
func (j *Job) Snapshot() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := j.rec
	rec.Checkpoint = append([]CurvePoint(nil), j.rec.Checkpoint...)
	if j.rec.Manifest != nil {
		m := *j.rec.Manifest
		rec.Manifest = &m
	}
	return rec
}

// ID is immutable after construction, so it needs no lock.
func (j *Job) ID() string { return j.rec.ID }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// cacheKey returns the job's content address (set at compile time, immutable
// afterwards).
func (j *Job) cacheKey() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.CacheKey
}

// compiled returns the validated request, recompiling it after a store
// load. Recompilation re-runs the same validation as submission, so a
// hand-edited store file cannot smuggle an invalid request past it.
func (j *Job) compiledReq() (*compiled, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c == nil {
		c, err := compile(j.rec.Kind, j.rec.Request)
		if err != nil {
			return nil, err
		}
		j.c = c
	}
	return j.c, nil
}

// markUserCancelled flags the job as cancelled by DELETE and fires its
// context cancel if it is running. Returns the states observed under the
// lock before and after, so the caller can move the per-state gauges.
func (j *Job) markUserCancelled() (prev, now State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	prev = j.rec.State
	if prev.terminal() {
		return prev, prev
	}
	j.userCancel = true
	if j.cancel != nil {
		j.cancel()
	}
	if j.rec.State == StateQueued {
		// Not running yet: settle it immediately; the worker skips
		// terminal jobs when it eventually drains it from the channel.
		j.finishLocked(StateCancelled, "cancelled before start", "cancelled")
	}
	return prev, j.rec.State
}

// isUserCancelled reports whether DELETE hit this job.
func (j *Job) isUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

// setRunning transitions queued → running and installs the context cancel
// hook. It refuses (returns false) if the job is already terminal.
func (j *Job) setRunning(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State.terminal() || j.userCancel {
		return false
	}
	j.rec.State = StateRunning
	j.rec.Started = time.Now()
	j.cancel = cancel
	return true
}

// requeue sends an interrupted running job back to queued (drain path),
// keeping its checkpoint so the next run resumes.
func (j *Job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.State = StateQueued
	j.cancel = nil
	if j.rec.Manifest != nil {
		j.rec.Manifest.Interrupted = true
	}
}

// finish settles the job in a terminal state.
func (j *Job) finish(state State, errMsg, kind string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, errMsg, kind)
}

func (j *Job) finishLocked(state State, errMsg, kind string) {
	j.rec.State = state
	j.rec.Finished = time.Now()
	j.rec.Error = errMsg
	j.rec.ErrorKind = kind
	j.cancel = nil
}

// setResult installs the result payload and its checksum (still
// non-terminal; finish follows).
func (j *Job) setResult(blob json.RawMessage, cacheHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.Result = blob
	j.rec.ResultSHA256 = resultSum(j.rec.CacheKey, blob)
	j.rec.CacheHit = cacheHit
}

// outcome reads the state and the result together, so a caller never
// pairs a state with a result from another moment.
func (j *Job) outcome() (State, json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State, j.rec.Result
}

// checkpointed returns the completed sweep points as a p-indexed map.
func (j *Job) checkpointed() map[float64]CurvePoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[float64]CurvePoint, len(j.rec.Checkpoint))
	for _, pt := range j.rec.Checkpoint {
		out[pt.P] = pt
	}
	return out
}

// addCheckpoint appends one completed sweep point.
func (j *Job) addCheckpoint(pt CurvePoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.Checkpoint = append(j.rec.Checkpoint, pt)
}

// setResumedPoints records how many points this run served from the
// checkpoint.
func (j *Job) setResumedPoints(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.ResumedPoints = n
}

// sealManifest closes the job's manifest clocks and stats against reg.
func (j *Job) sealManifest(reg *obs.Registry, interrupted bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.Manifest == nil {
		return
	}
	j.rec.Manifest.Interrupted = interrupted
	j.rec.Manifest.Finish(reg)
}
