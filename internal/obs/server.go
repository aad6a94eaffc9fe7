package obs

import "fmt"

// ServerMetrics is the instrument set of the surfstitchd daemon, defined
// here so the serving layer's series names live next to every other metric
// contract of the repository (obssmoke and serversmoke grep for them).
// Construction registers every fixed-name series immediately, so a fresh
// daemon exposes zeros instead of absent series. A nil receiver or nil
// registry makes every update a no-op, matching the package contract.
type ServerMetrics struct {
	reg *Registry

	// QueueDepth is the number of jobs sitting in the bounded intake
	// (`server_queue_depth`).
	QueueDepth *Gauge
	// Backpressure counts submissions rejected with 429 because the queue
	// was full (`server_backpressure_total`).
	Backpressure *Counter
	// CacheHits counts submissions answered at once by an identical done
	// job (`server_cache_hits_total`); CacheMisses counts every other valid
	// submission, whether coalesced, queued or refused
	// (`server_cache_misses_total`).
	CacheHits   *Counter
	CacheMisses *Counter
	// StoreCorrupt counts persisted job records that fail the integrity
	// check at boot (`server_store_corrupt_total`): unparseable files, and
	// done records whose result does not match its checksum, which are kept
	// for inspection but never answer a submission.
	StoreCorrupt *Counter
	// SingleFlight counts submissions coalesced onto an identical job
	// already queued or running (`server_singleflight_total`).
	SingleFlight *Counter
	// JobsResumed counts jobs re-enqueued from a persisted store at
	// startup; PointsResumed counts curve sweep points served from a
	// job's checkpoint instead of being re-simulated.
	JobsResumed   *Counter
	PointsResumed *Counter
}

// NewServerMetrics registers the daemon's instrument set on r (which may be
// nil, yielding no-op instruments).
func NewServerMetrics(r *Registry) *ServerMetrics {
	return &ServerMetrics{
		reg:           r,
		QueueDepth:    r.Gauge("server_queue_depth"),
		Backpressure:  r.Counter("server_backpressure_total"),
		CacheHits:     r.Counter("server_cache_hits_total"),
		CacheMisses:   r.Counter("server_cache_misses_total"),
		StoreCorrupt:  r.Counter("server_store_corrupt_total"),
		SingleFlight:  r.Counter("server_singleflight_total"),
		JobsResumed:   r.Counter("server_jobs_resumed_total"),
		PointsResumed: r.Counter("server_curve_points_resumed_total"),
	}
}

// JobState returns the gauge tracking how many jobs currently sit in the
// given lifecycle state (`server_jobs{state="queued"}`, ...). The daemon
// moves jobs between gauges on every transition, so the sum over states is
// the total number of jobs the store knows about.
func (m *ServerMetrics) JobState(state string) *Gauge {
	if m == nil {
		return nil
	}
	return m.reg.Gauge(fmt.Sprintf("server_jobs{state=%q}", state))
}

// Submitted returns the counter of accepted submissions for one job kind
// (`server_jobs_submitted_total{kind="estimate"}`, ...).
func (m *ServerMetrics) Submitted(kind string) *Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter(fmt.Sprintf("server_jobs_submitted_total{kind=%q}", kind))
}

// HTTPStatus returns the counter of responses written with one HTTP status
// code (`server_http_responses_total{code="429"}`, ...).
func (m *ServerMetrics) HTTPStatus(code int) *Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter(fmt.Sprintf("server_http_responses_total{code=\"%d\"}", code))
}
