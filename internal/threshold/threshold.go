// Package threshold estimates error thresholds of synthesized surface codes:
// it sweeps the physical error rate, Monte-Carlo samples the logical error
// rate of memory experiments at each point, and locates the crossing of the
// distance-3 and distance-5 curves — the paper's threshold definition ("the
// physical error rate where code curves of different distances meet").
package threshold

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"surfstitch/internal/circuit"
	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/frame"
	"surfstitch/internal/mc"
	"surfstitch/internal/noise"
	"surfstitch/internal/obs"
)

// Point is one measured point of a logical-vs-physical error curve.
type Point struct {
	P       float64 // physical error rate
	Shots   int
	Errors  int
	Logical float64 // logical error rate
}

// StdErr returns the binomial standard error of the logical rate.
func (pt Point) StdErr() float64 {
	if pt.Shots == 0 {
		return 0
	}
	p := pt.Logical
	return math.Sqrt(p * (1 - p) / float64(pt.Shots))
}

// Curve is a measured logical error curve for one code instance.
type Curve struct {
	Label    string
	Distance int
	Points   []Point
}

// Config controls curve estimation.
type Config struct {
	// Shots per sweep point (the paper uses 1e5; tests use fewer). In
	// adaptive mode (TargetRSE or MaxErrors set) this is the hard cap.
	Shots int
	// IdleError overrides the idle error rate; zero means the paper default.
	// To run with idle noise truly off, set NoIdle instead.
	IdleError float64
	// NoIdle disables idle noise entirely. The zero IdleError sentinel means
	// "paper default", so without this flag an idle-noise-free sweep (the
	// left edge of Fig. 11b's idle axis) would be inexpressible.
	NoIdle bool
	// Seed drives sampling; curves are reproducible for a fixed seed at any
	// worker count.
	Seed int64
	// Workers sizes the Monte-Carlo worker pool; zero means NumCPU.
	Workers int
	// TargetRSE, when positive, stops a point early once the Wilson
	// interval's relative half-width reaches this value.
	TargetRSE float64
	// MaxErrors, when positive, stops a point early after this many logical
	// errors.
	MaxErrors int
	// Progress, when non-nil, receives live per-point sampling progress.
	Progress func(p float64, pr mc.Progress)
	// Registry, when non-nil, receives live metrics: the Monte-Carlo
	// engine's shot/rate series plus the decoder's syndrome-weight
	// histogram, decode-path breakdown and cache hit/miss counters,
	// promoted from per-worker tallies at chunk boundaries.
	Registry *obs.Registry
	// Noise, when non-nil, builds the channel applier for each sweep point
	// (e.g. noise.BuilderFor on a calibrated device, which derives
	// per-location strengths); nil applies the uniform Model exactly as
	// before, keeping uncalibrated results bit-identical.
	Noise noise.Builder
	// Decoder passes options through to the decoder compile — the ablation
	// hook for the union-find path (Decoder.UnionFind) and the cache and
	// decomposition switches. The zero value reproduces decoder.New.
	Decoder decoder.Options
	// Stream, when non-nil, replaces whole-shot decoding with sliding-
	// window streaming decode (the real-time ablation mode): each shot's
	// syndrome is fed round by round through a decoder.Stream with this
	// window geometry. Requires Input.DetectorRounds (the stream needs the
	// detector→round map).
	Stream *decoder.StreamConfig
}

// WithDefaults returns c with every zero field resolved to the value the
// estimators run with: 2000 shots, the paper's idle rate (zero under
// NoIdle), the fixed default seed and NumCPU workers. It is idempotent.
func (c Config) WithDefaults() Config {
	if c.Shots == 0 {
		c.Shots = 2000
	}
	if c.NoIdle {
		c.IdleError = 0
	} else if c.IdleError == 0 {
		c.IdleError = noise.DefaultIdleError
	}
	if c.Seed == 0 {
		c.Seed = 20220618 // ISCA'22 conference date
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// Input is the noise-free experiment to sweep; the threshold package applies
// the error model itself so that each sweep point rebuilds the detector
// error model at the right probability.
type Input struct {
	// Circuit is the noise-free experiment circuit.
	Circuit *circuit.Circuit
	// IdleQubits is the qubit set receiving idle noise.
	IdleQubits []int
	// DetectorRounds maps each detector to its round (experiment.Memory
	// records it as DetectorRound). Only Config.Stream needs it.
	DetectorRounds []int
}

// EstimatePoint measures the logical error rate at one physical error rate.
func EstimatePoint(in Input, p float64, cfg Config) (Point, error) {
	return EstimatePointContext(context.Background(), in, p, cfg)
}

// EstimatePointContext is EstimatePoint with cancellation. The detector
// error model and decoder are built once and shared read-only across the
// point's workers; sampling and decoding run sharded on the Monte-Carlo
// engine, each chunk with its own frame sampler pass and splitmix64-derived
// RNG stream.
func EstimatePointContext(ctx context.Context, in Input, p float64, cfg Config) (Point, error) {
	cfg = cfg.WithDefaults()
	ctx, span := obs.StartSpan(ctx, "threshold.point")
	span.SetAttr("p", p)
	defer span.End()
	var applier noise.Applier = noise.Model{GateError: p, IdleError: cfg.IdleError, IdleOnly: in.IdleQubits}
	if cfg.Noise != nil {
		var err error
		applier, err = cfg.Noise(p, cfg.IdleError, in.IdleQubits)
		if err != nil {
			return Point{}, fmt.Errorf("threshold: %w", err)
		}
	}
	noisy, err := applier.Apply(in.Circuit)
	if err != nil {
		return Point{}, fmt.Errorf("threshold: %w", err)
	}
	dm, err := dem.FromCircuit(noisy)
	if err != nil {
		return Point{}, fmt.Errorf("threshold: %w", err)
	}
	dec, err := decoder.NewWithOptions(dm, cfg.Decoder)
	if err != nil {
		return Point{}, fmt.Errorf("threshold: %w", err)
	}
	sampler, err := frame.NewChunkedSampler(noisy)
	if err != nil {
		return Point{}, fmt.Errorf("threshold: %w", err)
	}
	mcCfg := mc.Config{
		Shots:     cfg.Shots,
		Workers:   cfg.Workers,
		Seed:      mc.PointSeed(cfg.Seed, p),
		TargetRSE: cfg.TargetRSE,
		MaxErrors: cfg.MaxErrors,
		Registry:  cfg.Registry,
	}
	if cfg.Progress != nil {
		mcCfg.Progress = func(pr mc.Progress) { cfg.Progress(p, pr) }
	}
	// Decode observability series, promoted from the per-chunk decoder
	// Stats below. Nil instruments (no registry) make the updates no-ops;
	// either way the hot loop only pays plain per-worker int increments,
	// with atomics touched once per chunk.
	var (
		mCacheHits   = cfg.Registry.Counter("decoder_cache_hits_total")
		mCacheMisses = cfg.Registry.Counter("decoder_cache_misses_total")
		mFastK1      = cfg.Registry.Counter("decoder_fast_k1_total")
		mFastK2      = cfg.Registry.Counter("decoder_fast_k2_total")
		mBlossom     = cfg.Registry.Counter("decoder_blossom_total")
		mUF          = cfg.Registry.Counter("decoder_uf_total")
		mUFFallback  = cfg.Registry.Counter("decoder_uf_fallback_total")
		mCommits     = cfg.Registry.Counter("decoder_window_commits_total")
		mKHist       = cfg.Registry.Histogram("decoder_syndrome_weight", obs.LinearBuckets(0, 1, decoder.KHistBuckets-1))
	)
	// promote pushes one chunk's decoder stats into the registry — the
	// once-per-chunk boundary where plain per-worker ints become atomics —
	// and folds the union-find/streaming counters into the tally's Aux
	// slots for deterministic in-order totals.
	promote := func(st decoder.Stats) mc.Tally {
		if cfg.Registry != nil {
			mCacheHits.Add(int64(st.CacheHits))
			mCacheMisses.Add(int64(st.CacheMisses))
			mFastK1.Add(int64(st.FastK1))
			mFastK2.Add(int64(st.FastK2))
			mBlossom.Add(int64(st.Blossom))
			mUF.Add(int64(st.UFShots))
			mUFFallback.Add(int64(st.UFFallbacks))
			mCommits.Add(int64(st.WindowCommits))
			for k, n := range st.KHist {
				if n != 0 {
					mKHist.ObserveN(float64(k), int64(n))
				}
			}
		}
		return mc.Tally{
			Shots:  st.Shots,
			Errors: st.LogicalErrors,
			Aux: [mc.NumAux]int64{
				auxUFShots:       int64(st.UFShots),
				auxUFFallbacks:   int64(st.UFFallbacks),
				auxWindowCommits: int64(st.WindowCommits),
			},
		}
	}
	var res mc.Result
	if cfg.Stream != nil {
		span.SetAttr("stream_window", cfg.Stream.Window)
		span.SetAttr("stream_commit", cfg.Stream.Commit)
		res, err = runStreaming(ctx, in.DetectorRounds, dec, sampler, mcCfg, *cfg.Stream, promote)
	} else {
		// Scratch arenas are pooled across chunks so each worker goroutine
		// reuses its decode buffers (defect lists, matching edges, blossom
		// state) for the whole point instead of reallocating per chunk.
		scratch := sync.Pool{New: func() any { return dec.NewScratch() }}
		res, err = mc.Run(ctx, mcCfg, func(_ int, rng *rand.Rand, shots int) (mc.Tally, error) {
			s := scratch.Get().(*decoder.Scratch)
			defer scratch.Put(s)
			st, err := dec.DecodeRangeScratch(sampler.SampleChunk(rng, shots), 0, shots, s)
			return promote(st), err
		})
	}
	if err != nil {
		return Point{}, fmt.Errorf("threshold: %w", err)
	}
	span.SetAttr("uf_shots", res.Aux[auxUFShots])
	span.SetAttr("uf_fallbacks", res.Aux[auxUFFallbacks])
	span.SetAttr("window_commits", res.Aux[auxWindowCommits])
	return Point{P: p, Shots: res.Shots, Errors: res.Errors, Logical: res.Rate()}, nil
}

// Aux slot assignments for the decoder counters threaded through mc.Tally.
const (
	auxUFShots = iota
	auxUFFallbacks
	auxWindowCommits
)

// streamWorker is one goroutine's streaming-decode state, pooled across
// chunks like the whole-shot scratch arenas.
type streamWorker struct {
	st  *decoder.Stream
	buf []int
}

// runStreaming is the sliding-window counterpart of the whole-shot chunk
// loop: each shot of a sampled chunk is replayed round by round through a
// pooled decoder.Stream, and the stream's committed prediction is compared
// against the shot's actual observable flips.
func runStreaming(ctx context.Context, detRound []int, dec *decoder.Decoder, sampler *frame.ChunkedSampler, mcCfg mc.Config, scfg decoder.StreamConfig, promote func(decoder.Stats) mc.Tally) (mc.Result, error) {
	if len(detRound) == 0 {
		return mc.Result{}, fmt.Errorf("streaming decode needs the detector round map; set Input.DetectorRounds")
	}
	// Validate the geometry once up front so pool misuse below is the only
	// way New can fail there.
	if _, err := dec.NewStream(detRound, scfg); err != nil {
		return mc.Result{}, err
	}
	streams := sync.Pool{New: func() any {
		st, err := dec.NewStream(detRound, scfg)
		if err != nil {
			return (*streamWorker)(nil) // unreachable: geometry validated above
		}
		return &streamWorker{st: st, buf: make([]int, 0, 64)}
	}}
	return mc.Run(ctx, mcCfg, func(_ int, rng *rand.Rand, shots int) (mc.Tally, error) {
		w := streams.Get().(*streamWorker)
		if w == nil {
			return mc.Tally{}, fmt.Errorf("stream construction failed for validated geometry")
		}
		defer streams.Put(w)
		batch := sampler.SampleChunk(rng, shots)
		var st decoder.Stats
		rounds := w.st.NumRounds()
		for shot := 0; shot < shots; shot++ {
			w.st.Reset()
			k := 0
			for r := 0; r < rounds; r++ {
				lo, hi := w.st.RoundRange(r)
				w.buf = batch.AppendShotDetectorsRange(w.buf[:0], shot, lo, hi)
				k += len(w.buf)
				if err := w.st.PushRound(w.buf); err != nil {
					return mc.Tally{}, err
				}
			}
			pred, err := w.st.Finish()
			if err != nil {
				return mc.Tally{}, err
			}
			if k >= decoder.KHistBuckets {
				k = decoder.KHistBuckets - 1
			}
			st.KHist[k]++
			st.Shots++
			if pred != batch.ObservableMask(shot) {
				st.LogicalErrors++
			}
		}
		ss := w.st.TakeStats()
		st.UFShots = ss.UFShots
		st.UFFallbacks = ss.UFFallbacks
		st.WindowCommits = ss.WindowCommits
		return promote(st), nil
	})
}

// EstimateCurve sweeps the physical error rates and returns the curve.
func EstimateCurve(label string, distance int, in Input, ps []float64, cfg Config) (Curve, error) {
	return EstimateCurveContext(context.Background(), label, distance, in, ps, cfg)
}

// EstimateCurveContext sweeps the physical error rates with cancellation.
// Sweep points are independent jobs: they run concurrently, each building
// its own detector error model and decoder, with the worker budget split
// across in-flight points so total parallelism stays near cfg.Workers.
// Results are deterministic for a fixed seed regardless of the split.
func EstimateCurveContext(ctx context.Context, label string, distance int, in Input, ps []float64, cfg Config) (Curve, error) {
	curve := Curve{Label: label, Distance: distance}
	if len(ps) == 0 {
		return curve, nil
	}
	cfg = cfg.WithDefaults()
	pointConc := cfg.Workers
	if pointConc > len(ps) {
		pointConc = len(ps)
	}
	perPoint := cfg.Workers / pointConc
	if perPoint < 1 {
		perPoint = 1
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pts := make([]Point, len(ps))
	errs := make([]error, len(ps))
	sem := make(chan struct{}, pointConc)
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cctx.Err() != nil {
				errs[i] = cctx.Err()
				return
			}
			pc := cfg
			pc.Workers = perPoint
			pt, err := EstimatePointContext(cctx, in, p, pc)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			pts[i] = pt
		}(i, p)
	}
	wg.Wait()
	// Flush the longest completed prefix even on failure: an interrupted
	// sweep still returns the points that finished, aligned with ps, so
	// callers can print or persist partial curves.
	done := 0
	for done < len(ps) && errs[done] == nil {
		done++
	}
	curve.Points = pts[:done]
	for _, err := range errs {
		if err != nil {
			return curve, err
		}
	}
	return curve, nil
}

// Crossing locates the physical error rate where two curves intersect using
// log-log linear interpolation between sweep points, with the convention
// that below threshold the larger-distance curve lies below. It returns
// false when the curves do not cross within the sweep range.
func Crossing(low, high Curve) (float64, bool) {
	if len(low.Points) != len(high.Points) || len(low.Points) < 2 {
		return 0, false
	}
	diff := func(i int) float64 {
		a, b := low.Points[i].Logical, high.Points[i].Logical
		if a <= 0 || b <= 0 {
			// No data at this point; treat the higher-distance curve as
			// below (sub-threshold) when it has strictly fewer errors.
			return float64(high.Points[i].Errors - low.Points[i].Errors)
		}
		return math.Log(b) - math.Log(a)
	}
	for i := 0; i+1 < len(low.Points); i++ {
		d0, d1 := diff(i), diff(i+1)
		if d0 == 0 {
			return low.Points[i].P, true
		}
		if d0 < 0 && d1 >= 0 {
			// Interpolate the zero crossing in log(p).
			if d1 == d0 {
				return low.Points[i].P, true
			}
			t := -d0 / (d1 - d0)
			lp := math.Log(low.Points[i].P) + t*(math.Log(low.Points[i+1].P)-math.Log(low.Points[i].P))
			return math.Exp(lp), true
		}
	}
	return 0, false
}

// Sweep is a convenience range builder: n log-spaced points in [lo, hi].
// It rejects degenerate ranges (n < 2, non-positive lo, hi <= lo), which
// would otherwise silently produce NaN error rates downstream.
func Sweep(lo, hi float64, n int) ([]float64, error) {
	if n < 2 || lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("threshold: invalid sweep range [%g, %g] with %d points", lo, hi, n)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		out[i] = math.Exp(math.Log(lo) + t*(math.Log(hi)-math.Log(lo)))
	}
	return out, nil
}

// PerRoundRate converts a whole-experiment logical error probability into a
// per-round rate via p_total = (1-(1-2*p_round)^rounds)/2 inverted — the
// standard conversion for comparing memories of different durations.
func PerRoundRate(pTotal float64, rounds int) float64 {
	if rounds <= 0 || pTotal <= 0 {
		return 0
	}
	if pTotal >= 0.5 {
		return 0.5
	}
	return (1 - math.Pow(1-2*pTotal, 1/float64(rounds))) / 2
}

// RoundScaling measures the per-round logical error rate at several round
// counts; for a well-formed memory the per-round rates agree within noise,
// which validates that detectors tile correctly in time.
func RoundScaling(build func(rounds int) (Input, error), roundCounts []int, p float64, cfg Config) ([]Point, error) {
	var out []Point
	for _, r := range roundCounts {
		in, err := build(r)
		if err != nil {
			return nil, err
		}
		pt, err := EstimatePoint(in, p, cfg)
		if err != nil {
			return nil, err
		}
		pt.Logical = PerRoundRate(pt.Logical, r)
		out = append(out, pt)
	}
	return out, nil
}
