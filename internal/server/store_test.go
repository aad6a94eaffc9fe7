package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func storedJob(id string, state State, created time.Time) *Job {
	return &Job{rec: Record{
		ID: id, Kind: KindSynthesize, State: state, Created: created,
		Request: Request{Device: DeviceSpec{Arch: "square", Width: 4, Height: 4}, Distance: 3},
	}}
}

func TestStorePersistAndLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t0 := time.Now()
	// done stays done; queued and running both come back resumable (running
	// was interrupted mid-flight), in creation order.
	for _, j := range []*Job{
		storedJob("j-done", StateDone, t0),
		storedJob("j-running", StateRunning, t0.Add(2*time.Second)),
		storedJob("j-queued", StateQueued, t0.Add(1*time.Second)),
	} {
		if err := st.Add(j); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	// A corrupt record must not poison the boot.
	if err := os.WriteFile(filepath.Join(dir, "j-torn.json"), []byte(`{"id": "j-t`), 0o644); err != nil {
		t.Fatalf("writing torn record: %v", err)
	}

	st2, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	resumable, errs := st2.Load()
	if len(errs) != 1 {
		t.Fatalf("Load errs = %v, want exactly the torn record", errs)
	}
	if len(resumable) != 2 {
		t.Fatalf("resumable = %d jobs, want 2", len(resumable))
	}
	if resumable[0].ID() != "j-queued" || resumable[1].ID() != "j-running" {
		t.Fatalf("resume order = %s, %s; want creation order", resumable[0].ID(), resumable[1].ID())
	}
	for _, j := range resumable {
		if j.State() != StateQueued {
			t.Fatalf("resumable job %s is %s, want queued", j.ID(), j.State())
		}
	}
	done, ok := st2.Get("j-done")
	if !ok || done.State() != StateDone {
		t.Fatalf("terminal job: ok=%v state=%v", ok, done.State())
	}
	if n := len(st2.List()); n != 3 {
		t.Fatalf("List = %d jobs, want 3", n)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Add(storedJob("j-m", StateQueued, time.Now())); err != nil {
		t.Fatalf("Add: %v", err)
	}
	resumable, errs := st.Load()
	if len(resumable) != 0 || len(errs) != 0 {
		t.Fatalf("memory-only Load = %v, %v", resumable, errs)
	}
	if _, ok := st.Get("j-m"); !ok {
		t.Fatal("job lost in memory-only store")
	}
}

// Concurrent saves of one job must neither collide on its temp file nor
// let an older snapshot land last: the record on disk ends up holding every
// checkpoint.
func TestStoreConcurrentSave(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	j := storedJob("j-busy", StateRunning, time.Now())
	if err := st.Add(j); err != nil {
		t.Fatalf("Add: %v", err)
	}
	const writers, saves = 8, 100
	errs := make(chan error, writers*saves)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				j.addCheckpoint(CurvePoint{P: float64(w*saves + i)})
				if err := st.Save(j); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("Save: %v", err)
	}

	st2, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if _, errs := st2.Load(); len(errs) != 0 {
		t.Fatalf("Load errs = %v", errs)
	}
	got, ok := st2.Get("j-busy")
	if !ok {
		t.Fatal("job lost")
	}
	if n := len(got.Snapshot().Checkpoint); n != writers*saves {
		t.Fatalf("persisted record holds %d checkpoints, want %d", n, writers*saves)
	}
}

// Identical submissions racing for one key elect exactly one owner, which
// absorbs the rest while queued and answers them once done.
func TestStoreClaimConcurrent(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	const n = 8
	owners := make([]*Job, n)
	var wg sync.WaitGroup
	for i := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := storedJob(fmt.Sprintf("j-%d", i), StateQueued, time.Now())
			j.rec.CacheKey = "k"
			owners[i], _, _ = st.claim(j)
		}()
	}
	wg.Wait()
	owner := owners[0]
	for i, o := range owners {
		if o != owner {
			t.Fatalf("claim %d elected %s, claim 0 elected %s", i, o.ID(), owner.ID())
		}
	}
	owner.setResult(json.RawMessage(`{"v":1}`), false)
	owner.finish(StateDone, "", "")
	late := storedJob("j-late", StateQueued, time.Now())
	late.rec.CacheKey = "k"
	if got, state, result := st.claim(late); got != owner || state != StateDone || string(result) != `{"v":1}` {
		t.Fatalf("claim after done = %s %s %s, want the owner's result", got.ID(), state, result)
	}
}

// estimateReq is the fast estimate the persistence tests store and replay.
func estimateReq(seed int) map[string]any {
	return squareReq(map[string]any{
		"p":   0.001,
		"run": map[string]any{"shots": 64, "seed": seed},
	})
}

// restart drains s and boots a fresh server over the same store directory,
// as a daemon restart would.
func restart(t *testing.T, s *Server, ts *httptest.Server, dir string) (*Server, *httptest.Server) {
	t.Helper()
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return newTestServer(t, Config{Workers: 1, MCWorkers: 1, StoreDir: dir})
}

// persistJob writes a job for the estimate req into dir the way a daemon
// does, settled in state with result blob (none when empty), and returns
// the record file's path.
func persistJob(t *testing.T, dir string, req map[string]any, state State, blob string) string {
	t.Helper()
	c, err := compile(KindEstimate, decodeReq(t, req))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	j, err := newJob(c)
	if err != nil {
		t.Fatalf("newJob: %v", err)
	}
	if blob != "" {
		j.setResult(json.RawMessage(blob), false)
	}
	j.finish(state, "", "")
	st, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Add(j); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return filepath.Join(dir, j.ID()+".json")
}

// The job store is the result cache's disk tier: a done job persisted by
// one boot answers an identical submission on the next, byte for byte,
// without running synthesis.
func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, MCWorkers: 1, StoreDir: dir})
	first := submit(t, ts1, "/v1/estimate", estimateReq(5))
	rec := waitJob(t, ts1, first.JobID, "done", func(r Record) bool { return r.State == StateDone })

	s2, ts2 := restart(t, s1, ts1, dir)
	synthBefore := s2.reg.Snapshot()[synthSpanSeries]
	again := submit(t, ts2, "/v1/estimate", estimateReq(5))
	if !again.CacheHit || again.State != StateDone || again.Coalesced {
		t.Fatalf("resubmission after restart: hit=%v state=%s coalesced=%v, want a hit", again.CacheHit, again.State, again.Coalesced)
	}
	if !bytes.Equal(again.Result, rec.Result) {
		t.Fatalf("persisted result differs:\n%s\n%s", again.Result, rec.Result)
	}
	if got := s2.m.CacheHits.Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := s2.m.StoreCorrupt.Value(); got != 0 {
		t.Fatalf("store corrupt = %d, want 0", got)
	}
	if after := s2.reg.Snapshot()[synthSpanSeries]; after != synthBefore {
		t.Fatalf("persisted hit ran synthesis: %s went %v -> %v", synthSpanSeries, synthBefore, after)
	}
	if old := getJob(t, ts2, first.JobID); old.State != StateDone || !bytes.Equal(old.Result, rec.Result) {
		t.Fatalf("reloaded owner: state %s result %s", old.State, old.Result)
	}
}

// Every flavor of record corruption — a truncated file, partial JSON, a
// result that no longer matches its checksum, a result moved onto another
// key, and a record without a checksum — must read as a counted miss, never
// as a served result. A record that still parses stays listed as stored;
// the recomputed result then answers after the next restart.
func TestCacheCorruptDiskEntryIsMiss(t *testing.T) {
	const fake = `{"p":0.001,"logical":0.5,"shots":64,"errors":32}`
	key := func(req map[string]any) string {
		c, err := compile(KindEstimate, decodeReq(t, req))
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return c.key
	}
	target, other := key(estimateReq(5)), key(estimateReq(6))
	checksum := regexp.MustCompile(`,"result_sha256":"[0-9a-f]+"`)
	cases := []struct {
		name    string
		persist map[string]any // the request the stored result belongs to
		corrupt func(raw string) string
	}{
		{"truncated file", estimateReq(5), func(raw string) string { return raw[:len(raw)/2] }},
		{"partial json blob", estimateReq(5), func(raw string) string { return strings.Replace(raw, fake, `{"p":`, 1) }},
		{"wrong hash", estimateReq(5), func(raw string) string {
			return strings.Replace(raw, `"logical":0.5`, `"logical":0.25`, 1)
		}},
		{"wrong key", estimateReq(6), func(raw string) string { return strings.ReplaceAll(raw, other, target) }},
		{"legacy bare blob", estimateReq(5), func(raw string) string { return checksum.ReplaceAllString(raw, "") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := persistJob(t, dir, tc.persist, StateDone, fake)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading record: %v", err)
			}
			bad := tc.corrupt(string(raw))
			if bad == string(raw) {
				t.Fatal("corruption left the record unchanged")
			}
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatalf("writing corrupt record: %v", err)
			}

			s, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1, StoreDir: dir})
			if got := s.m.StoreCorrupt.Value(); got != 1 {
				t.Fatalf("store corrupt = %d, want 1", got)
			}
			sub := submit(t, ts, "/v1/estimate", estimateReq(5))
			if sub.CacheHit || sub.Coalesced || sub.State != StateQueued {
				t.Fatalf("corrupt record answered: hit=%v coalesced=%v state=%s", sub.CacheHit, sub.Coalesced, sub.State)
			}
			if hits, misses := s.m.CacheHits.Value(), s.m.CacheMisses.Value(); hits != 0 || misses != 1 {
				t.Fatalf("hits/misses = %d/%d, want 0/1", hits, misses)
			}
			rec := waitJob(t, ts, sub.JobID, "done", func(r Record) bool { return r.State == StateDone })
			if string(rec.Result) == fake {
				t.Fatal("recomputed result equals the corrupt one")
			}
			var stored Record
			if json.Unmarshal([]byte(bad), &stored) == nil {
				if old := getJob(t, ts, stored.ID); old.State != StateDone || !bytes.Equal(old.Result, stored.Result) {
					t.Fatalf("kept record not listed as stored: state %s result %s", old.State, old.Result)
				}
			}

			s2, ts2 := restart(t, s, ts, dir)
			again := submit(t, ts2, "/v1/estimate", estimateReq(5))
			if !again.CacheHit || !bytes.Equal(again.Result, rec.Result) {
				t.Fatalf("recomputed result after restart: hit=%v result %s, want %s", again.CacheHit, again.Result, rec.Result)
			}
			if got := s2.m.StoreCorrupt.Value(); got != 1 {
				t.Fatalf("store corrupt after restart = %d, want 1", got)
			}
		})
	}
}

// At boot a done record owns its key even when a resumable job for the same
// key was loaded first; with no done record, the resumed job owns it and
// absorbs identical submissions.
func TestLoadIndexesDoneOverResumable(t *testing.T) {
	const fake = `{"p":0.002,"logical":0.5,"shots":50000000,"errors":1}`
	t.Run("done wins", func(t *testing.T) {
		dir := t.TempDir()
		persistJob(t, dir, slowEstimate(), StateQueued, "")
		persistJob(t, dir, slowEstimate(), StateDone, fake)
		_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1, StoreDir: dir})
		sub := submit(t, ts, "/v1/estimate", slowEstimate())
		if !sub.CacheHit || string(sub.Result) != fake {
			t.Fatalf("submission: hit=%v coalesced=%v result %s, want the done record's result", sub.CacheHit, sub.Coalesced, sub.Result)
		}
	})
	t.Run("resumable owns", func(t *testing.T) {
		dir := t.TempDir()
		path := persistJob(t, dir, slowEstimate(), StateQueued, "")
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1, StoreDir: dir})
		sub := submit(t, ts, "/v1/estimate", slowEstimate())
		if !sub.Coalesced || sub.JobID != id {
			t.Fatalf("submission: coalesced=%v job=%s, want folded onto the resumed job %s", sub.Coalesced, sub.JobID, id)
		}
		cancelJob(t, ts, id)
	})
}

// A key with no done record — here only a failed one — is a plain miss: it
// must not touch the corruption counter, and a fresh job claims the key.
func TestCacheAbsentDiskEntryIsPlainMiss(t *testing.T) {
	dir := t.TempDir()
	persistJob(t, dir, estimateReq(5), StateFailed, "")
	s, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1, StoreDir: dir})
	sub := submit(t, ts, "/v1/estimate", estimateReq(5))
	if sub.CacheHit || sub.Coalesced || sub.State != StateQueued {
		t.Fatalf("failed record answered: hit=%v coalesced=%v state=%s", sub.CacheHit, sub.Coalesced, sub.State)
	}
	if got := s.m.StoreCorrupt.Value(); got != 0 {
		t.Fatalf("store corrupt = %d on a plain miss, want 0", got)
	}
	if got := s.m.CacheMisses.Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	waitJob(t, ts, sub.JobID, "done", func(r Record) bool { return r.State == StateDone })
}
