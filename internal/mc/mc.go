// Package mc is the parallel Monte-Carlo execution engine behind every
// sampling experiment in the repository. It shards a shot budget into
// fixed-size chunks (multiples of 64, matching the frame simulator's
// bit-parallel words), runs the chunks on a bounded worker pool, and merges
// the per-chunk tallies into a running estimate.
//
// Determinism is the load-bearing property: each chunk draws from an RNG
// stream derived from (seed, chunk index) via a splitmix64 mixer, and chunk
// tallies are merged in chunk-index order regardless of which worker
// finishes first. A fixed seed therefore produces bit-identical results for
// any worker count and any goroutine schedule — including under the
// adaptive stopping rule, which is evaluated on the in-order prefix only.
//
// The engine supports three stopping modes, whichever fires first:
//
//   - budget: the full shot budget runs (the fixed-shots mode used for
//     paper reproduction);
//   - target relative precision: stop once the Wilson interval's relative
//     half-width reaches Config.TargetRSE;
//   - error count: stop once Config.MaxErrors logical errors are observed.
//
// Cancellation via context is honored between chunks, and a Progress hook
// reports chunks done, shots/sec and the current estimate as merging
// advances.
package mc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"surfstitch/internal/obs"
	"surfstitch/internal/stats"
)

// NumAux is the number of auxiliary tally slots chunk functions may use.
const NumAux = 4

// Tally is a mergeable Monte-Carlo outcome count: shots run and logical
// errors observed. Merging is associative and commutative, so per-chunk
// tallies combine in any grouping. Aux carries caller-defined extra
// counters (the threshold package uses slots for union-find shots,
// fallbacks and window commits) that merge elementwise, giving callers
// deterministic in-order totals without touching shared state per shot.
type Tally struct {
	Shots  int
	Errors int
	Aux    [NumAux]int64
}

// Merge returns the combined tally of t and o.
func (t Tally) Merge(o Tally) Tally {
	out := Tally{Shots: t.Shots + o.Shots, Errors: t.Errors + o.Errors}
	for i := range out.Aux {
		out.Aux[i] = t.Aux[i] + o.Aux[i]
	}
	return out
}

// Rate returns the observed error rate.
func (t Tally) Rate() float64 {
	if t.Shots == 0 {
		return 0
	}
	return float64(t.Errors) / float64(t.Shots)
}

// StopReason records which rule ended a run.
type StopReason int

const (
	// StopBudget: the full shot budget was consumed.
	StopBudget StopReason = iota
	// StopTargetRSE: the Wilson interval reached the target relative
	// half-width.
	StopTargetRSE
	// StopMaxErrors: the error-count cap was reached.
	StopMaxErrors
	// StopCanceled: the context was canceled.
	StopCanceled
	// StopFailed: a chunk returned an error.
	StopFailed
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopTargetRSE:
		return "target-rse"
	case StopMaxErrors:
		return "max-errors"
	case StopCanceled:
		return "canceled"
	case StopFailed:
		return "failed"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Progress is a snapshot of a running estimate, delivered to the Progress
// hook after each in-order chunk merge.
type Progress struct {
	Chunks      int // chunks merged so far
	TotalChunks int // chunk budget
	Shots       int
	Errors      int
	Estimate    float64
	ShotsPerSec float64
	Elapsed     time.Duration
}

// Result is the merged outcome of a run.
type Result struct {
	Tally
	Chunks  int
	Reason  StopReason
	Elapsed time.Duration
}

// ChunkFunc runs one chunk of shots with the chunk's private RNG stream and
// returns its tally. Implementations are called concurrently from multiple
// workers and must not share mutable state; the chunk index identifies the
// shard for callers that key per-chunk resources. The RNG is valid only
// during the call: each worker reseeds one generator for its next chunk.
type ChunkFunc func(chunk int, rng *rand.Rand, shots int) (Tally, error)

// Config parameterizes a run. The zero value of every field selects a sane
// default; the zero values of TargetRSE and MaxErrors disable adaptive
// stopping (pure fixed-budget mode).
type Config struct {
	// Shots is the total shot budget (and the hard cap in adaptive mode).
	// Defaults to 2000.
	Shots int
	// ChunkShots is the shard size, rounded up to a multiple of 64 to fill
	// the frame simulator's bit-parallel words. Defaults to 1024.
	ChunkShots int
	// Workers sizes the pool; defaults to runtime.NumCPU().
	Workers int
	// Seed drives the splitmix64 chunk-stream derivation; a fixed seed gives
	// bit-identical results at any worker count.
	Seed int64
	// TargetRSE, when positive, stops the run once the Wilson interval's
	// half-width divided by the estimate is at most this value (needs at
	// least one observed error to fire).
	TargetRSE float64
	// MaxErrors, when positive, stops the run once this many errors have
	// been observed in the merged prefix.
	MaxErrors int
	// Confidence is the z value of the Wilson interval used by TargetRSE;
	// defaults to 1.96 (95%).
	Confidence float64
	// Progress, when non-nil, is invoked after every in-order merge (from
	// the collector goroutine only, so it needs no locking of its own).
	Progress func(Progress)
	// Registry, when non-nil, receives live engine metrics: merged
	// shot/error/chunk counters, a shots-per-second gauge, per-worker
	// chunk tallies, and stop-reason counts. All updates are atomic
	// increments off the chunk hot path (per merge, not per shot).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shots <= 0 {
		c.Shots = 2000
	}
	if c.ChunkShots <= 0 {
		c.ChunkShots = 1024
	}
	c.ChunkShots = (c.ChunkShots + 63) &^ 63
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Confidence <= 0 {
		c.Confidence = 1.96
	}
	return c
}

// shouldStop evaluates the adaptive rules on the merged prefix.
func (c Config) shouldStop(t Tally) (StopReason, bool) {
	if c.MaxErrors > 0 && t.Errors >= c.MaxErrors {
		return StopMaxErrors, true
	}
	if c.TargetRSE > 0 && t.Errors > 0 {
		if stats.WilsonRelHalfWidth(t.Errors, t.Shots, c.Confidence) <= c.TargetRSE {
			return StopTargetRSE, true
		}
	}
	return 0, false
}

type chunkResult struct {
	index int
	tally Tally
	err   error
}

// Run executes the shot budget under cfg, calling fn once per chunk, and
// returns the merged result. On cancellation or a chunk failure it returns
// the partial in-order result alongside the error; it never leaks
// goroutines — all workers are joined before Run returns.
func Run(ctx context.Context, cfg Config, fn ChunkFunc) (Result, error) {
	cfg = cfg.withDefaults()
	nChunks := (cfg.Shots + cfg.ChunkShots - 1) / cfg.ChunkShots
	workers := cfg.Workers
	if workers > nChunks {
		workers = nChunks
	}

	// Engine metrics: nil instruments (no registry) make every update a
	// no-op. Per-worker tallies are per-goroutine counters, so the hot
	// chunk loop never contends on a shared metric.
	reg := cfg.Registry
	mShots := reg.Counter("mc_shots_total")
	mErrors := reg.Counter("mc_errors_total")
	mChunks := reg.Counter("mc_chunks_total")
	mRate := reg.Gauge("mc_shots_per_sec")
	workerChunks := make([]*obs.Counter, workers)
	if reg != nil {
		for w := range workerChunks {
			workerChunks[w] = reg.Counter(fmt.Sprintf("mc_worker_chunks_total{worker=%q}", fmt.Sprint(w)))
		}
	}

	var next, stopped int64
	results := make(chan chunkResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Reseeding one generator per worker gives each chunk the same
			// stream as a fresh source seeded alike, without allocating one.
			rng := rand.New(rand.NewSource(0))
			for atomic.LoadInt64(&stopped) == 0 && ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= nChunks {
					return
				}
				shots := cfg.ChunkShots
				if i == nChunks-1 {
					shots = cfg.Shots - i*cfg.ChunkShots
				}
				rng.Seed(ChunkSeed(cfg.Seed, i))
				t, err := fn(i, rng, shots)
				workerChunks[w].Inc()
				results <- chunkResult{index: i, tally: t, err: err}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	start := time.Now()
	var (
		merged   Tally
		chunks   int
		halted   bool
		reason   = StopBudget
		firstErr error
		pending  = map[int]Tally{}
	)
	halt := func(r StopReason) {
		if !halted {
			halted = true
			reason = r
			atomic.StoreInt64(&stopped, 1)
		}
	}
	ctxDone := ctx.Done()
	// The collector drains every in-flight chunk even after a stop so that
	// no worker blocks on the results channel; results past the decision
	// point are discarded, keeping the merged prefix schedule-independent.
	for results != nil {
		select {
		case <-ctxDone:
			ctxDone = nil
			firstErr = ctx.Err()
			halt(StopCanceled)
		case cr, ok := <-results:
			if !ok {
				results = nil
				break
			}
			if cr.err != nil {
				if firstErr == nil {
					firstErr = cr.err
				}
				halt(StopFailed)
				break
			}
			if halted {
				break
			}
			pending[cr.index] = cr.tally
			for !halted {
				t, ok := pending[chunks]
				if !ok {
					break
				}
				delete(pending, chunks)
				merged = merged.Merge(t)
				chunks++
				mShots.Add(int64(t.Shots))
				mErrors.Add(int64(t.Errors))
				mChunks.Inc()
				mRate.Set(float64(merged.Shots) / max(time.Since(start).Seconds(), 1e-9))
				if cfg.Progress != nil {
					elapsed := time.Since(start)
					cfg.Progress(Progress{
						Chunks:      chunks,
						TotalChunks: nChunks,
						Shots:       merged.Shots,
						Errors:      merged.Errors,
						Estimate:    merged.Rate(),
						ShotsPerSec: float64(merged.Shots) / max(elapsed.Seconds(), 1e-9),
						Elapsed:     elapsed,
					})
				}
				if r, stop := cfg.shouldStop(merged); stop {
					halt(r)
				}
			}
		}
	}
	if firstErr == nil && !halted && chunks < nChunks {
		// Workers stop on a canceled context and close the results channel,
		// and the collector's select may take the closed channel before
		// ctx.Done(): the run was still cut short by the cancellation.
		firstErr = ctx.Err()
		reason = StopCanceled
	}
	res := Result{Tally: merged, Chunks: chunks, Reason: reason, Elapsed: time.Since(start)}
	if reg != nil {
		reg.Counter(fmt.Sprintf("mc_stop_total{reason=%q}", reason.String())).Inc()
	}
	if firstErr != nil {
		return res, fmt.Errorf("mc: %w", firstErr)
	}
	return res, nil
}
