package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"surfstitch"
	"surfstitch/internal/circuit"
	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/experiment"
	"surfstitch/internal/frame"
	"surfstitch/internal/mc"
	"surfstitch/internal/noise"
	"surfstitch/internal/tableau"
)

// pointInputs fix one threshold point; each op estimates it with its own
// seed.
type pointInputs struct {
	Arch     string  `json:"arch"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Distance int     `json:"distance"`
	Rounds   int     `json:"rounds"`
	P        float64 `json:"p"`
	Shots    int     `json:"shots"`
	Workers  int     `json:"workers"`
	WarmSeed int64   `json:"warm_seed"`
	Seeds    []int64 `json:"seeds"`
}

// maxPointOps bounds the generated seed list; a run of the longest allowed
// window completes far fewer points.
const maxPointOps = 512

// pointWorkload runs surfstitch.EstimateLogicalErrorRate once per op.
type pointWorkload struct {
	in   pointInputs
	arch surfstitch.Architecture
	syn  *surfstitch.Synthesis
	ran  []pointOp
}

// pointOp is one untraced op's outcome, which the replay must reproduce.
type pointOp struct {
	seed          int64
	shots, errors int
}

// newPointDecode is heavy-hexagon d=5 near this repository's measured
// threshold: every shot has many defects, so dense blossom decoding
// dominates and per-point set-up is a minor share.
func newPointDecode(seed int64, sz size) *pointWorkload {
	in := pointInputs{Width: 5, Height: 4, Distance: 5, Rounds: 15, P: 0.002, Shots: 4096, Workers: 2}
	if sz == smoke {
		in.Shots = 256
	}
	return newPoint(surfstitch.HeavyHexagon, in, seed)
}

// newPointSparse is square d=3 well below threshold: most syndromes are
// empty or cached, so frame sampling and the decoder's fast paths carry it.
func newPointSparse(seed int64, sz size) *pointWorkload {
	in := pointInputs{Width: 4, Height: 4, Distance: 3, Rounds: 9, P: 0.0005, Shots: 1 << 20, Workers: 2}
	if sz == smoke {
		in.Shots = 8192
	}
	return newPoint(surfstitch.Square, in, seed)
}

func newPoint(a surfstitch.Architecture, in pointInputs, seed int64) *pointWorkload {
	in.Arch = a.String()
	in.WarmSeed = streamSeed(seed, -1)
	for i := 0; i < maxPointOps; i++ {
		in.Seeds = append(in.Seeds, streamSeed(seed, i))
	}
	return &pointWorkload{in: in, arch: a}
}

// streamSeed derives the i-th input seed from -seed, never 0 (which the
// program reads as "use the default seed").
func streamSeed(seed int64, i int) int64 {
	if s := mc.ChunkSeed(seed, i); s != 0 {
		return s
	}
	return 1
}

func (w *pointWorkload) inputs() any { return w.in }

func (w *pointWorkload) synthesize(ctx context.Context) (*surfstitch.Synthesis, error) {
	dev, err := surfstitch.NewDevice(w.arch, w.in.Width, w.in.Height)
	if err != nil {
		return nil, err
	}
	return surfstitch.Synthesize(ctx, dev, w.in.Distance, surfstitch.Options{})
}

func (w *pointWorkload) estimate(ctx context.Context, seed int64) (surfstitch.Result, error) {
	return surfstitch.EstimateLogicalErrorRate(ctx, w.syn, w.in.P, surfstitch.RunConfig{
		Shots: w.in.Shots, Rounds: w.in.Rounds, Workers: w.in.Workers, Seed: seed,
	})
}

func (w *pointWorkload) setup(ctx context.Context) error {
	var err error
	if w.syn, err = w.synthesize(ctx); err != nil {
		return err
	}
	_, err = w.estimate(ctx, w.in.WarmSeed)
	return err
}

func (w *pointWorkload) close() {}

func (w *pointWorkload) measure(ctx context.Context, window time.Duration, res *result) error {
	res.codes = qualityOf(w.syn.Report())
	start := time.Now()
	for i := 0; i < len(w.in.Seeds) && (i == 0 || time.Since(start) < window); i++ {
		seed := w.in.Seeds[i]
		t0 := time.Now()
		r, err := w.estimate(ctx, seed)
		res.attempted++
		if err != nil {
			res.opFailed(fmt.Errorf("point %d: %w", i, err))
			continue
		}
		res.latencies = append(res.latencies, time.Since(t0))
		res.check(r.Shots == w.in.Shots, "point %d: %d shots, requested %d", i, r.Shots, w.in.Shots)
		res.check(r.Errors >= 0 && 2*r.Errors < r.Shots, "point %d: %d logical errors in %d shots", i, r.Errors, r.Shots)
		w.ran = append(w.ran, pointOp{seed: seed, shots: r.Shots, errors: r.Errors})
	}
	res.elapsed = time.Since(start)
	return nil
}

// pipeline is what one point builds before sampling: the same chain
// EstimateLogicalErrorRate assembles, called layer by layer.
type pipeline struct {
	mem     *experiment.Memory
	noisy   *circuit.Circuit
	dm      *dem.Model
	dec     *decoder.Decoder
	sampler *frame.ChunkedSampler
}

// tracePoint replays one point with a span around each layer's call.
func (w *pointWorkload) tracePoint(ctx context.Context, rec *recorder, op, root int, seed int64) (*pipeline, mc.Result, decoder.Stats, error) {
	pl := &pipeline{}
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			err = rec.around(op, root, name, fn)
		}
	}
	step("experiment.build", func() (e error) {
		pl.mem, e = experiment.NewMemory(w.syn, w.in.Rounds, experiment.Options{SkipVerify: true})
		return e
	})
	step("tableau.check", func() error {
		_, _, e := tableau.Reference(pl.mem.Circuit, 3)
		return e
	})
	step("noise.apply", func() (e error) {
		idle := w.syn.AllQubits()
		var ap noise.Applier = noise.Model{GateError: w.in.P, IdleError: noise.DefaultIdleError, IdleOnly: idle}
		if build := noise.BuilderFor(w.syn.Layout.Dev); build != nil {
			if ap, e = build(w.in.P, noise.DefaultIdleError, idle); e != nil {
				return e
			}
		}
		pl.noisy, e = ap.Apply(pl.mem.Circuit)
		return e
	})
	step("dem.extract", func() (e error) {
		pl.dm, e = dem.FromCircuit(pl.noisy)
		return e
	})
	step("decoder.compile", func() (e error) {
		pl.dec, e = decoder.NewWithOptions(pl.dm, decoder.Options{})
		return e
	})
	step("frame.compile", func() (e error) {
		pl.sampler, e = frame.NewChunkedSampler(pl.noisy)
		return e
	})
	if err != nil {
		return nil, mc.Result{}, decoder.Stats{}, err
	}

	mcID := rec.begin(op, root, "mc.run")
	defer rec.end(mcID)
	scratch := sync.Pool{New: func() any { return pl.dec.NewScratch() }}
	var (
		mu    sync.Mutex
		stats decoder.Stats
	)
	cfg := mc.Config{Shots: w.in.Shots, Workers: w.in.Workers, Seed: mc.PointSeed(seed, w.in.P)}
	r, err := mc.Run(ctx, cfg, func(_ int, rng *rand.Rand, shots int) (mc.Tally, error) {
		s := scratch.Get().(*decoder.Scratch)
		defer scratch.Put(s)
		id := rec.begin(op, mcID, "frame.sample")
		batch := pl.sampler.SampleChunk(rng, shots)
		rec.end(id)
		id = rec.begin(op, mcID, "decoder.decode")
		st, err := pl.dec.DecodeRangeScratch(batch, 0, shots, s)
		rec.end(id)
		mu.Lock()
		stats = stats.Merge(st)
		mu.Unlock()
		return mc.Tally{Shots: st.Shots, Errors: st.LogicalErrors}, err
	})
	return pl, r, stats, err
}

func (w *pointWorkload) replay(ctx context.Context, rec *recorder, res *result) error {
	// Synthesize once more with the replay's registry attached, so the
	// synthesis stage fractions describe this workload's code.
	syn, err := w.synthesize(ctx)
	if err != nil {
		return err
	}
	q, again := qualityOf(w.syn.Report()), qualityOf(syn.Report())
	res.check(again == q, "synthesis is not deterministic: %+v then %+v", q, again)

	var (
		total decoder.Stats
		last  *pipeline
	)
	start := time.Now()
	for i, op := range w.ran {
		root := rec.begin(i, 0, "bench.op")
		pl, r, st, err := w.tracePoint(ctx, rec, i, root, op.seed)
		rec.end(root)
		res.attempted++
		if err != nil {
			res.opFailed(fmt.Errorf("traced point %d: %w", i, err))
			continue
		}
		res.check(r.Shots == op.shots && r.Errors == op.errors,
			"point %d: traced replay gave %d errors in %d shots, untraced %d in %d", i, r.Errors, r.Shots, op.errors, op.shots)
		total = total.Merge(st)
		last = pl
	}
	res.replayElapsed = time.Since(start)
	if last == nil {
		return fmt.Errorf("no point replayed")
	}

	shots, misses := float64(total.Shots), float64(total.CacheMisses)
	res.layer["decoder.blossom_ratio"] = ratio(float64(total.Blossom), shots)
	res.layer["decoder.closed_form_ratio"] = ratio(float64(total.FastK1+total.FastK2), misses)
	res.layer["decoder.cache_hit_ratio"] = ratio(float64(total.CacheHits), float64(total.CacheHits)+misses)
	res.layer["decoder.uf_ratio"] = ratio(float64(total.UFShots), shots)
	res.layer["decoder.logical_error_rate"] = ratio(float64(total.LogicalErrors), shots)
	res.layer["dem.mechanisms"] = float64(len(last.dm.Mechanisms))
	res.layer["mc.idle_ratio"] = idleRatio(rec.spans, w.in.Workers)

	n := min(w.in.Shots, 1024)
	sample, decode, defects, err := last.allocsPerShot(streamSeed(w.in.WarmSeed, 1), n)
	if err != nil {
		return err
	}
	res.layer["frame.allocs_per_shot"] = sample
	res.layer["decoder.allocs_per_shot"] = decode
	res.layer["decoder.mean_defects"] = defects
	return nil
}

// idleRatio is the share of the Monte-Carlo workers' capacity (wall time of
// each mc.run span times workers) not spent inside a chunk's sampling or
// decoding.
func idleRatio(spans []span, workers int) float64 {
	var capacity, busy float64
	for _, s := range spans {
		switch {
		case s.Name == "mc.run":
			capacity += float64(s.End-s.Start) * float64(workers)
		case s.Parent > 0 && spans[s.Parent-1].Name == "mc.run":
			busy += float64(s.End - s.Start)
		}
	}
	return ratio(capacity-busy, capacity)
}

// allocsPerShot samples and decodes n shots on the calling goroutine, after
// one warm-up chunk, and returns the heap allocations per shot of sampling
// and of decoding, and the mean number of defects per shot.
func (pl *pipeline) allocsPerShot(seed int64, n int) (sample, decode, defects float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	s := pl.dec.NewScratch()
	if _, err := pl.dec.DecodeRangeScratch(pl.sampler.SampleChunk(rng, n), 0, n, s); err != nil {
		return 0, 0, 0, err
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batch := pl.sampler.SampleChunk(rng, n)
	runtime.ReadMemStats(&m1)
	_, err = pl.dec.DecodeRangeScratch(batch, 0, n, s)
	runtime.ReadMemStats(&m2)
	if err != nil {
		return 0, 0, 0, err
	}
	var buf []int
	k := 0
	for shot := 0; shot < n; shot++ {
		buf = batch.AppendShotDetectors(buf[:0], shot)
		k += len(buf)
	}
	per := func(a, b runtime.MemStats) float64 { return float64(b.Mallocs-a.Mallocs) / float64(n) }
	return per(m0, m1), per(m1, m2), float64(k) / float64(n), nil
}
