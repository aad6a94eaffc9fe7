package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"surfstitch/internal/stats"
)

// bernoulliChunk returns a ChunkFunc that flips a coin of probability p per
// shot — a stand-in for sample+decode that exercises the engine's RNG
// stream derivation and merging without the quantum stack.
func bernoulliChunk(p float64) ChunkFunc {
	return func(_ int, rng *rand.Rand, shots int) (Tally, error) {
		t := Tally{Shots: shots}
		for i := 0; i < shots; i++ {
			if rng.Float64() < p {
				t.Errors++
			}
		}
		return t, nil
	}
}

func TestMixerDecorrelatesNearbyInputs(t *testing.T) {
	seen := map[int64]bool{}
	for chunk := 0; chunk < 1000; chunk++ {
		s := ChunkSeed(7, chunk)
		if seen[s] {
			t.Fatalf("duplicate chunk seed at chunk %d", chunk)
		}
		seen[s] = true
	}
	// Nearby p values must give unrelated seeds — the failure mode of the
	// old seed^Float64bits(p) derivation was correlated neighboring points.
	a := PointSeed(1, 0.001)
	b := PointSeed(1, 0.002)
	if a == b {
		t.Fatal("nearby points share a seed")
	}
	if diff := popcount64(uint64(a) ^ uint64(b)); diff < 16 {
		t.Errorf("nearby point seeds differ in only %d bits", diff)
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestFixedBudgetDeterministicAcrossWorkers(t *testing.T) {
	base := Config{Shots: 10000, ChunkShots: 256, Seed: 11}
	var want Result
	for i, workers := range []int{1, 4, runtime.NumCPU(), 9} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(context.Background(), cfg, bernoulliChunk(0.03))
		if err != nil {
			t.Fatal(err)
		}
		if got.Shots != 10000 {
			t.Fatalf("workers=%d: shots = %d, want full budget", workers, got.Shots)
		}
		if got.Reason != StopBudget {
			t.Fatalf("workers=%d: reason = %v", workers, got.Reason)
		}
		if i == 0 {
			want = got
			continue
		}
		if got.Tally != want.Tally || got.Chunks != want.Chunks {
			t.Errorf("workers=%d: result %+v differs from workers=1 %+v", workers, got.Tally, want.Tally)
		}
	}
}

// TestChunkStreamsAreChunkSeedSources pins the stream contract: whichever
// worker runs chunk i, and whatever it drew for earlier chunks, chunk i
// draws exactly what a fresh source seeded with ChunkSeed(seed, i) draws.
func TestChunkStreamsAreChunkSeedSources(t *testing.T) {
	const chunks, draws = 9, 5
	for _, workers := range []int{1, 2} {
		got := make([][draws]float64, chunks)
		cfg := Config{Shots: chunks * 64, ChunkShots: 64, Workers: workers, Seed: 5}
		_, err := Run(context.Background(), cfg, func(i int, rng *rand.Rand, shots int) (Tally, error) {
			// Chunks draw different amounts, so a stream that carried over
			// between chunks would show.
			for j := 0; j < i; j++ {
				rng.Intn(7)
			}
			for j := range got[i] {
				got[i][j] = rng.Float64()
			}
			return Tally{Shots: shots}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := rand.New(rand.NewSource(ChunkSeed(5, i)))
			for j := 0; j < i; j++ {
				want.Intn(7)
			}
			for j, v := range got[i] {
				if w := want.Float64(); v != w {
					t.Fatalf("workers=%d chunk %d draw %d: %v, want %v", workers, i, j, v, w)
				}
			}
		}
	}
}

func TestPartialFinalChunk(t *testing.T) {
	var calls []int
	cfg := Config{Shots: 100, ChunkShots: 64, Workers: 1, Seed: 1}
	res, err := Run(context.Background(), cfg, func(_ int, _ *rand.Rand, shots int) (Tally, error) {
		calls = append(calls, shots)
		return Tally{Shots: shots}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 100 || res.Chunks != 2 {
		t.Fatalf("result = %+v, want 100 shots over 2 chunks", res)
	}
	if len(calls) != 2 || calls[0] != 64 || calls[1] != 36 {
		t.Errorf("chunk sizes = %v, want [64 36]", calls)
	}
}

func TestChunkShotsRoundsToWordMultiple(t *testing.T) {
	cfg := Config{ChunkShots: 100}.withDefaults()
	if cfg.ChunkShots != 128 {
		t.Errorf("ChunkShots = %d, want rounded up to 128", cfg.ChunkShots)
	}
}

func TestAdaptiveStopDeterministicAcrossWorkers(t *testing.T) {
	base := Config{Shots: 1 << 20, ChunkShots: 256, Seed: 3, TargetRSE: 0.2}
	var want Result
	for i, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(context.Background(), cfg, bernoulliChunk(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if got.Reason != StopTargetRSE {
			t.Fatalf("workers=%d: reason = %v, want target-rse", workers, got.Reason)
		}
		if got.Shots >= base.Shots {
			t.Fatalf("workers=%d: adaptive run consumed the whole budget", workers)
		}
		if rhw := stats.WilsonRelHalfWidth(got.Errors, got.Shots, 1.96); rhw > base.TargetRSE {
			t.Errorf("workers=%d: stopped at relative half-width %.3f > target %.3f", workers, rhw, base.TargetRSE)
		}
		if i == 0 {
			want = got
			continue
		}
		if got.Tally != want.Tally || got.Chunks != want.Chunks {
			t.Errorf("workers=%d: adaptive result %+v/%d chunks differs from workers=1 %+v/%d",
				workers, got.Tally, got.Chunks, want.Tally, want.Chunks)
		}
	}
}

func TestMaxErrorsStops(t *testing.T) {
	cfg := Config{Shots: 1 << 20, ChunkShots: 128, Workers: 4, Seed: 5, MaxErrors: 50}
	res, err := Run(context.Background(), cfg, bernoulliChunk(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxErrors {
		t.Fatalf("reason = %v, want max-errors", res.Reason)
	}
	if res.Errors < 50 {
		t.Errorf("stopped with %d errors, want >= 50", res.Errors)
	}
	// The overshoot is bounded by one chunk's worth of shots.
	if res.Shots > 50*2+2*cfg.ChunkShots {
		t.Errorf("ran %d shots for 50 errors at p=0.5; stop rule leaking", res.Shots)
	}
}

func TestCancellationPromptNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Config{Shots: 1 << 30, ChunkShots: 64, Workers: 4, Seed: 1},
		func(_ int, rng *rand.Rand, shots int) (Tally, error) {
			time.Sleep(5 * time.Millisecond)
			return Tally{Shots: shots}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Reason != StopCanceled {
		t.Errorf("reason = %v, want canceled", res.Reason)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// Workers must be joined before Run returns; allow the runtime a moment
	// to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestCancelDuringSlowMergeReportsCancellation(t *testing.T) {
	// One worker cancels during chunk 1, then stops on ctx.Err() and closes
	// the results channel while the collector sleeps in Progress. The
	// collector may then see the closed channel before ctx.Done(); Run must
	// still report the cancellation, not a partial tally with a nil error.
	for run := 0; run < 200; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{
			Shots: 64 * 64, ChunkShots: 64, Workers: 1, Seed: 1,
			Progress: func(Progress) { time.Sleep(200 * time.Microsecond) },
		}
		res, err := Run(ctx, cfg, func(chunk int, _ *rand.Rand, shots int) (Tally, error) {
			if chunk == 1 {
				cancel()
			}
			return Tally{Shots: shots}, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v after %d of 64 chunks, want context.Canceled", run, err, res.Chunks)
		}
		if res.Reason != StopCanceled {
			t.Fatalf("run %d: reason = %v, want canceled", run, res.Reason)
		}
	}
}

func TestChunkErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("decode exploded")
	res, err := Run(context.Background(), Config{Shots: 4096, ChunkShots: 64, Workers: 2, Seed: 1},
		func(chunk int, _ *rand.Rand, shots int) (Tally, error) {
			if chunk == 3 {
				return Tally{}, boom
			}
			return Tally{Shots: shots}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped chunk error", err)
	}
	if res.Reason != StopFailed {
		t.Errorf("reason = %v, want failed", res.Reason)
	}
}

func TestProgressMonotonicAndFinal(t *testing.T) {
	var snaps []Progress
	cfg := Config{Shots: 2048, ChunkShots: 256, Workers: 4, Seed: 2,
		Progress: func(p Progress) { snaps = append(snaps, p) }}
	res, err := Run(context.Background(), cfg, bernoulliChunk(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Chunks {
		t.Fatalf("progress calls = %d, want one per merged chunk (%d)", len(snaps), res.Chunks)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Chunks != snaps[i-1].Chunks+1 || snaps[i].Shots < snaps[i-1].Shots {
			t.Fatalf("progress not monotonic at %d: %+v -> %+v", i, snaps[i-1], snaps[i])
		}
	}
	last := snaps[len(snaps)-1]
	if last.Shots != res.Shots || last.Errors != res.Errors || last.TotalChunks != res.Chunks {
		t.Errorf("final progress %+v inconsistent with result %+v", last, res)
	}
}
