package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"surfstitch/internal/obs"
)

// Store holds every job the daemon knows about, in memory and — when given
// a directory — mirrored to disk as one JSON record per job, so queued and
// running work survives a restart. Persistence is strictly best-ordered:
// Save is called after every state transition and after every checkpointed
// curve point, and writes go through a temp-file rename so a crash never
// leaves a half-written record.
//
// The store is also the daemon's only content-addressed state: it indexes
// jobs by their content key (surfstitch.ConfigHash), so a done job answers
// identical submissions and a queued or running one absorbs them.
type Store struct {
	mu    sync.Mutex
	dir   string
	jobs  map[string]*Job
	ids   []string        // submission order, for listing
	byKey map[string]*Job // content key → the job answering it

	// saveMu serializes Save, so concurrent saves of one job never share
	// its temp file and the last writer persists the newest snapshot.
	saveMu sync.Mutex

	// corrupt counts the records Load finds failing their integrity check
	// (nil discards the count).
	corrupt *obs.Counter
}

// NewStore opens a store; dir == "" keeps jobs in memory only.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: store dir: %w", err)
		}
	}
	return &Store{dir: dir, jobs: map[string]*Job{}, byKey: map[string]*Job{}}, nil
}

// Add registers a new job and persists its initial record.
func (st *Store) Add(j *Job) error {
	st.mu.Lock()
	st.jobs[j.ID()] = j
	st.ids = append(st.ids, j.ID())
	st.mu.Unlock()
	return st.Save(j)
}

// claim resolves j's content key against the index. A done owner answers
// j with its result (a cache hit); a queued or running owner absorbs j
// (coalescing); otherwise — no owner, or a failed or cancelled one — j
// becomes the owner. It returns the owner with the state and result read
// from it together.
func (st *Store) claim(j *Job) (owner *Job, state State, result json.RawMessage) {
	key := j.cacheKey()
	st.mu.Lock()
	defer st.mu.Unlock()
	if owner := st.byKey[key]; owner != nil {
		if state, result := owner.outcome(); state == StateDone || !state.terminal() {
			return owner, state, result
		}
	}
	st.byKey[key] = j
	return j, StateQueued, nil
}

// release drops j's claim on its key, for a job the queue refused.
func (st *Store) release(j *Job) {
	key := j.cacheKey()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.byKey[key] == j {
		delete(st.byKey, key)
	}
}

// Get returns the job by ID.
func (st *Store) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// List returns every job in submission order (loaded jobs first, sorted by
// creation time at load).
func (st *Store) List() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Job, 0, len(st.ids))
	for _, id := range st.ids {
		out = append(out, st.jobs[id])
	}
	return out
}

// Save persists the job's current record; a memory-only store is a no-op.
func (st *Store) Save(j *Job) error {
	if st.dir == "" {
		return nil
	}
	st.saveMu.Lock()
	defer st.saveMu.Unlock()
	rec := j.Snapshot()
	// Marshal, not MarshalIndent: indenting would rewrite the embedded
	// result, which then no longer matches its checksum byte for byte.
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: marshaling job %s: %w", rec.ID, err)
	}
	path := st.recordPath(rec.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("server: persisting job %s: %w", rec.ID, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("server: persisting job %s: %w", rec.ID, err)
	}
	return nil
}

func (st *Store) recordPath(id string) string {
	return filepath.Join(st.dir, id+".json")
}

// resultSum is the Record.ResultSHA256 of a result stored under key.
func resultSum(key string, result []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil))
}

// Load reads every persisted record into the store, builds the content
// index, and returns the jobs that need to be re-enqueued: anything the
// previous process left queued or running (the latter are sent back to
// queued — their run was interrupted, and their checkpoints carry whatever
// finished). A done record owns its key over any other job; otherwise a
// resumable job does. Records that fail to parse are skipped with an error
// list rather than aborting the boot; a daemon with one corrupt record
// still serves the rest. A done record whose result fails its checksum is
// kept and listed as it is, but never answers a submission. Both kinds of
// corruption are counted.
func (st *Store) Load() (resumable []*Job, errs []error) {
	if st.dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("server: reading store dir: %w", err)}
	}
	var loaded []*Job
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("server: reading %s: %w", name, err))
			continue
		}
		var rec Record
		if err := json.Unmarshal(blob, &rec); err != nil {
			st.corrupt.Inc()
			errs = append(errs, fmt.Errorf("server: parsing %s: %w", name, err))
			continue
		}
		if rec.ID == "" || rec.Kind == "" {
			st.corrupt.Inc()
			errs = append(errs, fmt.Errorf("server: %s is not a job record", name))
			continue
		}
		if rec.SchemaVersion == 0 {
			rec.SchemaVersion = obs.SchemaVersion
		}
		loaded = append(loaded, &Job{rec: rec})
	}
	sort.Slice(loaded, func(i, k int) bool { return loaded[i].rec.Created.Before(loaded[k].rec.Created) })

	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range loaded {
		if _, dup := st.jobs[j.ID()]; dup {
			continue
		}
		st.jobs[j.ID()] = j
		st.ids = append(st.ids, j.ID())
		key, owner := j.rec.CacheKey, st.byKey[j.rec.CacheKey]
		switch {
		case !j.rec.State.terminal():
			j.rec.State = StateQueued
			resumable = append(resumable, j)
			if owner == nil {
				st.byKey[key] = j
			}
		case j.rec.State != StateDone:
			// Failed or cancelled: answers nothing.
		case j.rec.ResultSHA256 != resultSum(key, j.rec.Result):
			st.corrupt.Inc()
		case owner == nil || owner.rec.State != StateDone:
			st.byKey[key] = j
		}
	}
	return resumable, errs
}
