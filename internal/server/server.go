package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"surfstitch"
	"surfstitch/internal/obs"
)

// maxRequestBytes bounds a submission body; a coupling-map export for a
// realistic chip is tens of kilobytes, so 1 MiB is generous.
const maxRequestBytes = 1 << 20

// Config configures a Server. The zero value is valid: memory-only store,
// default pool sizes.
type Config struct {
	// QueueSize bounds the job intake (default 64); a full queue answers
	// 429 with Retry-After.
	QueueSize int
	// Workers is the number of concurrently running jobs (default 2).
	Workers int
	// MCWorkers sizes each job's Monte-Carlo pool (0 = NumCPU). Results
	// are bit-identical at any setting, so this is pure capacity policy.
	MCWorkers int
	// StoreDir, when set, persists job records so queued and running work
	// survives a restart and done results answer identical submissions
	// after it.
	StoreDir string
	// JobTimeout is the default per-job deadline (0 = none); a request's
	// timeout_seconds overrides it.
	JobTimeout time.Duration
	// RetryAfter is the backpressure hint advertised on 429s (default 1s).
	RetryAfter time.Duration
	// Registry receives every server metric and the engine metrics of the
	// jobs it runs; nil creates a private one.
	Registry *obs.Registry
	// Logf sinks operational messages (default log.Printf).
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// Server is the surfstitchd serving core: HTTP handlers over a bounded
// worker-pool job queue and a persistent, content-addressed job store.
// Construct with New, wire Handler into an http.Server, call Start, and
// Shutdown to drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	m     *obs.ServerMetrics
	store *Store
	queue *Queue
	mux   *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // worker goroutines
	inflight   sync.WaitGroup // currently running jobs
	started    atomic.Bool
	draining   atomic.Bool
	// drainMu orders a worker's draining check and inflight.Add against
	// Shutdown setting draining, so Shutdown waits for every started job.
	drainMu sync.Mutex
}

// New builds a server; Start must be called before it accepts jobs.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m := obs.NewServerMetrics(cfg.Registry)
	store, err := NewStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	store.corrupt = m.StoreCorrupt
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg, reg: cfg.Registry, m: m,
		store:   store,
		queue:   NewQueue(cfg.QueueSize, m),
		mux:     http.NewServeMux(),
		baseCtx: baseCtx, baseCancel: baseCancel,
	}
	s.routes()
	return s, nil
}

// Registry exposes the server's metrics registry (for embedding callers).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's full HTTP surface: the /v1 job API,
// /healthz + /readyz, and the observability mux (/metrics, /debug/pprof,
// /debug/vars) from internal/obs.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSubmit(KindSynthesize))
	s.mux.HandleFunc("POST /v1/estimate", s.handleSubmit(KindEstimate))
	s.mux.HandleFunc("POST /v1/curve", s.handleSubmit(KindCurve))
	s.mux.HandleFunc("POST /v1/surgery", s.handleSubmit(KindSurgery))
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.started.Load() || s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	obsMux := obs.NewMux(s.reg)
	s.mux.Handle("/metrics", obsMux)
	s.mux.Handle("/debug/", obsMux)
}

// Start loads the persistent store, re-enqueues interrupted jobs, and
// launches the worker pool.
func (s *Server) Start() error {
	resumable, errs := s.store.Load()
	for _, err := range errs {
		s.cfg.Logf("surfstitchd: store: %v", err)
	}
	for _, j := range resumable {
		s.m.JobState(string(StateQueued)).Add(1)
		if s.queue.Submit(j) {
			s.m.JobsResumed.Inc()
		} else {
			// More interrupted jobs than queue slots: the rest stay
			// persisted as queued and will be retried on the next boot.
			s.cfg.Logf("surfstitchd: queue full at boot; job %s stays queued on disk", j.ID())
		}
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.started.Store(true)
	return nil
}

// Shutdown drains the server: intake closes (submissions 503, readyz 503),
// running jobs get until ctx expires to finish, then their contexts are
// cancelled and they re-persist as queued with their checkpoints — the
// resumable state Start picks up on the next boot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.wg.Wait()
	return nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j, ok := <-s.queue.Take():
			if !ok {
				return
			}
			s.m.QueueDepth.Add(-1)
			if !s.begin() {
				// Leave it queued (and persisted); the next boot resumes it.
				continue
			}
			s.runJob(j)
			s.inflight.Done()
		}
	}
}

// begin counts a dequeued job as in flight unless the server is draining.
func (s *Server) begin() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// ---------------------------------------------------------------- handlers

// submitResponse answers POST /v1/*.
type submitResponse struct {
	JobID    string `json:"job_id"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Coalesced marks a submission folded onto an identical job that was
	// already queued or running; JobID names that job.
	Coalesced bool            `json:"coalesced,omitempty"`
	StatusURL string          `json:"status_url"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"error_kind,omitempty"`
}

// jobSummary is one row of GET /v1/jobs.
type jobSummary struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    State     `json:"state"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Created  time.Time `json:"created"`
}

func (s *Server) handleSubmit(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.respond(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining", Kind: "draining"})
			return
		}
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.respond(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error(), Kind: "bad_request"})
			return
		}
		c, err := compile(kind, req)
		if err != nil {
			s.respond(w, statusFor(err), errorResponse{Error: err.Error(), Kind: errorKind(err)})
			return
		}
		job, err := newJob(c)
		if err != nil {
			s.respond(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Kind: "internal"})
			return
		}

		// Content addressing: an identical done job answers this submission
		// at once (no queue slot, no simulation, no synth spans), and an
		// identical queued or running job absorbs it — the caller polls the
		// owner instead of spending a queue slot on a duplicate simulation.
		owner, state, result := s.store.claim(job)
		if state == StateDone {
			s.m.CacheHits.Inc()
			job.setResult(result, true)
			job.sealManifest(s.reg, false)
			job.finish(StateDone, "", "")
			s.m.JobState(string(StateDone)).Add(1)
			s.m.Submitted(kind).Inc()
			if err := s.store.Add(job); err != nil {
				s.cfg.Logf("surfstitchd: %v", err)
			}
			s.respond(w, http.StatusOK, submitResponse{
				JobID: job.ID(), State: StateDone, CacheHit: true,
				StatusURL: "/v1/jobs/" + job.ID(), Result: result,
			})
			return
		}
		s.m.CacheMisses.Inc()
		if owner != job {
			s.m.SingleFlight.Inc()
			s.respond(w, http.StatusAccepted, submitResponse{
				JobID: owner.ID(), State: state, Coalesced: true,
				StatusURL: "/v1/jobs/" + owner.ID(),
			})
			return
		}

		if !s.queue.Submit(job) {
			s.store.release(job)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
			s.respond(w, http.StatusTooManyRequests, errorResponse{Error: "job queue is full", Kind: "backpressure"})
			return
		}
		s.m.JobState(string(StateQueued)).Add(1)
		s.m.Submitted(kind).Inc()
		if err := s.store.Add(job); err != nil {
			s.cfg.Logf("surfstitchd: %v", err)
		}
		s.respond(w, http.StatusAccepted, submitResponse{
			JobID: job.ID(), State: StateQueued, StatusURL: "/v1/jobs/" + job.ID(),
		})
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.respond(w, http.StatusNotFound, errorResponse{Error: "no such job", Kind: "not_found"})
		return
	}
	s.respond(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.store.List()
	out := make([]jobSummary, 0, len(jobs))
	for _, j := range jobs {
		rec := j.Snapshot()
		out = append(out, jobSummary{
			ID: rec.ID, Kind: rec.Kind, State: rec.State,
			CacheHit: rec.CacheHit, Created: rec.Created,
		})
	}
	s.respond(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.respond(w, http.StatusNotFound, errorResponse{Error: "no such job", Kind: "not_found"})
		return
	}
	prev, now := j.markUserCancelled()
	if prev == StateQueued && now == StateCancelled {
		s.trans(StateQueued, StateCancelled)
		s.saveJob(j)
	}
	s.respond(w, http.StatusAccepted, submitResponse{
		JobID: j.ID(), State: now, StatusURL: "/v1/jobs/" + j.ID(),
	})
}

func (s *Server) respond(w http.ResponseWriter, code int, v any) {
	s.m.HTTPStatus(code).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if v != nil {
		// An encode failure here means the client hung up mid-response;
		// there is nobody left to report it to.
		_ = json.NewEncoder(w).Encode(v)
	}
}

// trans moves one job between the per-state gauges.
func (s *Server) trans(from, to State) {
	s.m.JobState(string(from)).Add(-1)
	s.m.JobState(string(to)).Add(1)
}

func (s *Server) saveJob(j *Job) {
	if err := s.store.Save(j); err != nil {
		s.cfg.Logf("surfstitchd: %v", err)
	}
}

// ------------------------------------------------------------------ runner

// runJob executes one job under its own context and settles its terminal
// (or requeued) state.
func (s *Server) runJob(j *Job) {
	if j.State().terminal() {
		return // cancelled while queued
	}
	c, err := j.compiledReq()
	if err != nil {
		// Only reachable for store-loaded records whose request no longer
		// validates (schema drift, hand edits).
		j.finish(StateFailed, err.Error(), errorKind(err))
		s.trans(StateQueued, StateFailed)
		s.saveJob(j)
		return
	}
	timeout := c.timeout
	if timeout == 0 {
		timeout = s.cfg.JobTimeout
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if !j.setRunning(cancel) {
		return // user-cancelled in the submission/start race
	}
	s.trans(StateQueued, StateRunning)
	s.saveJob(j)
	ctx = obs.ContextWithRegistry(ctx, s.reg)

	switch c.kind {
	case KindSynthesize:
		err = s.runSynthesize(ctx, j, c)
	case KindEstimate:
		err = s.runEstimate(ctx, j, c)
	case KindCurve:
		err = s.runCurve(ctx, j, c)
	case KindSurgery:
		err = s.runSurgery(ctx, j, c)
	default:
		err = fmt.Errorf("%w: unknown job kind %q", surfstitch.ErrInvalidConfig, c.kind)
	}

	switch {
	case err == nil:
		j.sealManifest(s.reg, false)
		j.finish(StateDone, "", "")
		s.trans(StateRunning, StateDone)
	case j.isUserCancelled():
		j.sealManifest(s.reg, true)
		j.finish(StateCancelled, err.Error(), "cancelled")
		s.trans(StateRunning, StateCancelled)
	case s.draining.Load() && errors.Is(err, context.Canceled):
		// Drain interruption: back to queued with the checkpoint intact;
		// the next boot resumes from the persisted points.
		j.requeue()
		s.trans(StateRunning, StateQueued)
	default:
		j.sealManifest(s.reg, false)
		j.finish(StateFailed, err.Error(), errorKind(err))
		s.trans(StateRunning, StateFailed)
	}
	s.saveJob(j)
}

// runCfg projects the compiled request's RunConfig onto this server's
// capacity policy: the metrics registry and the Monte-Carlo pool size are
// server-side concerns (and deliberately outside the cache key).
func (s *Server) runCfg(c *compiled) surfstitch.RunConfig {
	cfg := c.cfg
	cfg.Workers = s.cfg.MCWorkers
	cfg.Registry = s.reg
	return cfg
}

// SynthesizeResult is the wire form of a completed synthesize job: the
// synthesis report plus the statically certified fault distance of the
// layout (internal/distance via the facade) — the number a client can gate
// deployment on without running its own verification.
type SynthesizeResult struct {
	surfstitch.SynthReport
	// CertifiedDistance is the exact minimum fault count flipping a logical
	// observable undetected, over both bases; 0 = no such fault set exists.
	CertifiedDistance int `json:"certified_distance"`
}

func (s *Server) runSynthesize(ctx context.Context, j *Job, c *compiled) error {
	syn, err := surfstitch.Synthesize(ctx, c.dev, c.req.Distance, c.opts)
	if err != nil {
		return err
	}
	cert, err := surfstitch.CertifiedDistance(syn)
	if err != nil {
		return fmt.Errorf("distance certification: %w", err)
	}
	s.reg.Gauge("distance_certified").Set(float64(cert))
	s.reg.Counter("distance_certifications_total").Inc()
	blob, err := json.Marshal(SynthesizeResult{SynthReport: syn.Report(), CertifiedDistance: cert})
	if err != nil {
		return err
	}
	j.setResult(blob, false)
	return nil
}

// SurgeryPatchResult is the per-patch slice of a surgery job result.
type SurgeryPatchResult struct {
	Name     string `json:"name"`
	Row      int    `json:"row"`
	Col      int    `json:"col"`
	Distance int    `json:"distance"`
	// CertifiedDistance is the statically certified fault distance of the
	// patch's own memory under its packed placement (worst basis).
	CertifiedDistance int `json:"certified_distance"`
}

// SurgeryResult is the wire form of a completed surgery job: the packed
// layout with per-patch certificates, the assembled circuit's shape, and —
// when the request carried a p — a decoded Monte-Carlo point over the
// merged detector graph.
type SurgeryResult struct {
	Patches []SurgeryPatchResult `json:"patches"`
	Ops     []SurgeryOpWire      `json:"ops,omitempty"`
	// PreRounds / MergeRounds / PostRounds are the normalized three-phase
	// round counts the circuit realizes.
	PreRounds   int `json:"pre_rounds"`
	MergeRounds int `json:"merge_rounds"`
	PostRounds  int `json:"post_rounds"`
	// JointObservables counts the joint-parity observables (one per op),
	// listed before the per-patch memory observables in the circuit.
	JointObservables int         `json:"joint_observables"`
	Observables      int         `json:"observables"`
	Qubits           int         `json:"qubits"`
	Point            *CurvePoint `json:"point,omitempty"`
}

func (s *Server) runSurgery(ctx context.Context, j *Job, c *compiled) error {
	ls, err := surfstitch.SynthesizeLayout(ctx, c.dev, c.layout, c.opts)
	if err != nil {
		return err
	}
	spec := ls.Spec()
	result := SurgeryResult{
		PreRounds:        spec.PreRounds,
		MergeRounds:      spec.MergeRounds,
		PostRounds:       spec.PostRounds,
		JointObservables: ls.Experiment.NumJointObs(),
		Observables:      len(ls.Experiment.Circuit.Observables),
		Qubits:           len(ls.Placement.AllQubits()),
	}
	for pi, syn := range ls.Patches() {
		cert, err := surfstitch.CertifiedDistance(syn)
		if err != nil {
			return fmt.Errorf("patch %q distance certification: %w", spec.Patches[pi].Name, err)
		}
		s.reg.Counter("distance_certifications_total").Inc()
		result.Patches = append(result.Patches, SurgeryPatchResult{
			Name: spec.Patches[pi].Name, Row: spec.Patches[pi].Row, Col: spec.Patches[pi].Col,
			Distance: spec.Patches[pi].Distance, CertifiedDistance: cert,
		})
	}
	for _, op := range spec.Ops {
		joint := "zz"
		if op.Joint == surfstitch.JointXX {
			joint = "xx"
		}
		result.Ops = append(result.Ops, SurgeryOpWire{A: op.A, B: op.B, Joint: joint})
	}
	if len(c.ps) == 1 {
		res, err := surfstitch.EstimateLayoutErrorRate(ctx, ls, c.ps[0], s.runCfg(c))
		if err != nil {
			return err
		}
		result.Point = &CurvePoint{
			P: res.PhysicalErrorRate, Logical: res.LogicalErrorRate,
			Shots: res.Shots, Errors: res.Errors,
		}
	}
	blob, err := json.Marshal(result)
	if err != nil {
		return err
	}
	j.setResult(blob, false)
	return nil
}

func (s *Server) runEstimate(ctx context.Context, j *Job, c *compiled) error {
	syn, err := surfstitch.Synthesize(ctx, c.dev, c.req.Distance, c.opts)
	if err != nil {
		return err
	}
	res, err := surfstitch.EstimateLogicalErrorRate(ctx, syn, c.req.P, s.runCfg(c))
	if err != nil {
		return err
	}
	blob, err := json.Marshal(CurvePoint{
		P: res.PhysicalErrorRate, Logical: res.LogicalErrorRate,
		Shots: res.Shots, Errors: res.Errors,
	})
	if err != nil {
		return err
	}
	j.setResult(blob, false)
	return nil
}

// CurveResult is the result payload of a curve job.
type CurveResult struct {
	Label    string       `json:"label"`
	Distance int          `json:"distance"`
	Points   []CurvePoint `json:"points"`
	// ResumedPoints counts the points served from a checkpoint rather than
	// simulated by the run that completed the job.
	ResumedPoints int `json:"resumed_points,omitempty"`
}

// runCurve sweeps the request's error rates point by point, persisting
// every completed point into the job record. Points already checkpointed
// (from a run interrupted by a drain) are skipped — per-point seeds are
// splitmix64-derived from (seed, p) alone, so a resumed curve is
// bit-identical to an uninterrupted one.
func (s *Server) runCurve(ctx context.Context, j *Job, c *compiled) error {
	done := j.checkpointed()
	cfg := s.runCfg(c)
	var syn *surfstitch.Synthesis
	resumed := 0
	for _, p := range c.ps {
		if _, ok := done[p]; ok {
			resumed++
			continue
		}
		if syn == nil {
			// Lazy: a fully-checkpointed job resumes without even
			// re-synthesizing.
			var err error
			syn, err = surfstitch.Synthesize(ctx, c.dev, c.req.Distance, c.opts)
			if err != nil {
				return err
			}
		}
		res, err := surfstitch.EstimateLogicalErrorRate(ctx, syn, p, cfg)
		if err != nil {
			return err
		}
		j.addCheckpoint(CurvePoint{
			P: res.PhysicalErrorRate, Logical: res.LogicalErrorRate,
			Shots: res.Shots, Errors: res.Errors,
		})
		s.saveJob(j)
	}
	if resumed > 0 {
		s.m.PointsResumed.Add(int64(resumed))
		j.setResumedPoints(resumed)
	}
	pts := j.checkpointed()
	result := CurveResult{
		Label:         fmt.Sprintf("%s-d%d", c.dev.Name(), c.req.Distance),
		Distance:      c.req.Distance,
		Points:        make([]CurvePoint, 0, len(c.ps)),
		ResumedPoints: resumed,
	}
	for _, p := range c.ps {
		pt, ok := pts[p]
		if !ok {
			return fmt.Errorf("surfstitchd: sweep point %g missing after completion", p)
		}
		result.Points = append(result.Points, pt)
	}
	blob, err := json.Marshal(result)
	if err != nil {
		return err
	}
	j.setResult(blob, false)
	return nil
}
