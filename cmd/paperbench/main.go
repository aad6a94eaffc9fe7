// Command paperbench regenerates every table and figure of the paper's
// evaluation section in one run (or selectively), printing paper-style rows
// next to the values this reproduction measures.
//
// Usage:
//
//	paperbench                   # everything at quick Monte-Carlo settings
//	paperbench -only table2      # one artifact
//	paperbench -shots 20000      # heavier sampling
//	paperbench -thresholds       # add threshold columns to Table 2 (slow)
//	paperbench -workers 8 -progress            # parallel sampling, live progress
//	paperbench -target-rse 0.1 -max-errors 200 # adaptive early stopping
//
// Monte-Carlo sampling runs on the internal/mc engine; a fixed -seed gives
// bit-identical results at any -workers count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"surfstitch/internal/device"
	"surfstitch/internal/mc"
	"surfstitch/internal/obs"
	"surfstitch/internal/paper"
	"surfstitch/internal/synth"
)

// benchSettings is the resolved flag set recorded in the run manifest.
type benchSettings struct {
	Only       string  `json:"only,omitempty"`
	Shots      int     `json:"shots"`
	Trials     int     `json:"trials"`
	Thresholds bool    `json:"thresholds,omitempty"`
	Workers    int     `json:"workers"`
	TargetRSE  float64 `json:"target_rse,omitempty"`
	MaxErrors  int     `json:"max_errors,omitempty"`
}

func main() {
	var (
		only       = flag.String("only", "", "artifact: table2, table3, table4, fig9a, fig9b, fig10, fig11a, fig11b, ablations, budget, alloc")
		shots      = flag.Int("shots", 4000, "Monte-Carlo shots per point (paper: 100000)")
		seed       = flag.Int64("seed", 1, "sampling seed")
		trials     = flag.Int("trials", 1000, "allocation study trials (paper: 100000)")
		thresholds = flag.Bool("thresholds", false, "estimate Table 2 threshold column (slow)")
		workers    = flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = NumCPU)")
		targRSE    = flag.Float64("target-rse", 0, "stop each sweep point once the Wilson interval's relative half-width reaches this (0 = fixed budget)")
		maxErrs    = flag.Int("max-errors", 0, "stop each sweep point after this many logical errors (0 = fixed budget)")
		progress   = flag.Bool("progress", false, "print live sampling progress to stderr")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/pprof and /debug/vars on this address (e.g. 127.0.0.1:8080)")
		manifestOut = flag.String("manifest-out", "", "write the run manifest (seed, config, git revision, timings, final stats) to this file")
	)
	flag.Parse()
	if err := validateFlags(*only, *shots, *workers, *targRSE, *maxErrs, *trials); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench: invalid flags:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		_, bound, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: serving metrics on http://%s/metrics\n", bound)
	}
	var manifest *obs.Manifest
	if *manifestOut != "" {
		manifest = obs.NewManifest("paperbench", *seed, benchSettings{
			Only: *only, Shots: *shots, Trials: *trials, Thresholds: *thresholds,
			Workers: *workers, TargetRSE: *targRSE, MaxErrors: *maxErrs,
		})
		defer func() {
			if err := manifest.Seal(reg, *manifestOut, false); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: manifest:", err)
			}
		}()
	}

	cfg := paper.Config{
		Shots: *shots, Seed: *seed,
		Workers: *workers, TargetRSE: *targRSE, MaxErrors: *maxErrs,
		Registry: reg,
	}
	if *progress {
		var mu sync.Mutex
		var last time.Time
		cfg.Progress = func(p float64, pr mc.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if time.Since(last) < 250*time.Millisecond && pr.Chunks != pr.TotalChunks {
				return
			}
			last = time.Now()
			fmt.Fprintf(os.Stderr, "  p=%-8.4g chunk %d/%d shots=%-8d errors=%-6d est=%.4g (%.0f shots/s)\n",
				p, pr.Chunks, pr.TotalChunks, pr.Shots, pr.Errors, pr.Estimate, pr.ShotsPerSec)
		}
	}

	run := func(name string, f func() error) {
		if *only != "" && *only != name {
			return
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	run("table2", func() error {
		rows, err := paper.Table2(cfg, *thresholds)
		if err != nil {
			return err
		}
		fmt.Printf("%-30s %-9s %-8s %-7s %-7s %-10s\n",
			"Code", "bridge#", "CNOT#", "steps", "total", "threshold")
		for _, r := range rows {
			th := "-"
			if r.Threshold > 0 {
				th = fmt.Sprintf("%.2f%%", 100*r.Threshold)
			}
			fmt.Printf("%-30s %-9.1f %-8.1f %-7.1f %-7d %-10s\n",
				r.Code, r.AvgBridge, r.AvgCNOT, r.AvgTimeSteps, r.TotalTimeSteps, th)
		}
		return nil
	})

	run("table3", func() error {
		rows, err := paper.Table3()
		if err != nil {
			return err
		}
		fmt.Printf("%-30s %-8s %-9s %-9s %-6s\n", "Code", "data%", "bridge%", "unused%", "total")
		for _, r := range rows {
			fmt.Printf("%-30s %-8.1f %-9.1f %-9.1f %-6d\n",
				r.Code, r.DataPct, r.BridgePct, r.UnusedPct, r.TotalQubits)
		}
		return nil
	})

	run("table4", func() error {
		rows, err := paper.Table4()
		if err != nil {
			return err
		}
		fmt.Printf("%-30s %-4s %-9s %-13s %-9s %-9s\n",
			"Code", "d", "bridge#", "bridge/data", "2q gates", "1q gates")
		for _, r := range rows {
			fmt.Printf("%-30s %-4d %-9d %-13.2f %-9d %-9d\n",
				r.Code, r.Distance, r.BridgeCount, r.BridgeRatio, r.TwoQubit, r.OneQubit)
		}
		return nil
	})

	run("fig9a", func() error { return printPairs(paper.Figure9a(cfg)) })
	run("fig9b", func() error { return printPairs(paper.Figure9b(cfg)) })

	run("fig10", func() error {
		text, err := paper.Figure10()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	})

	run("fig11a", func() error {
		res, err := paper.Figure11a(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("CNOTs per cycle: Surf-Stitch bridge trees %d, revised-SABRE routing %d (%.1fx)\n",
			res.SurfCNOTs, res.RoutedCNOTs, float64(res.RoutedCNOTs)/float64(res.SurfCNOTs))
		fmt.Printf("%-10s %-16s %-16s\n", "p", "surf logical", "routed logical")
		for i := range res.SurfLogical {
			fmt.Printf("%-10.4g %-16.5f %-16.5f\n",
				res.SurfLogical[i].P, res.SurfLogical[i].Logical, res.RouteLogical[i].Logical)
		}
		return nil
	})

	run("fig11b", func() error {
		res, err := paper.Figure11b(cfg, 0.002, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-18s %-18s\n", "idle error", "refined logical", "two-stage logical")
		for _, r := range res {
			fmt.Printf("%-12.4g %-18.5f %-18.5f\n", r.IdleError, r.RefinedLogical, r.TwoStageLogical)
		}
		return nil
	})

	run("ablations", func() error {
		res, err := paper.Ablations(cfg)
		if err != nil {
			return err
		}
		for _, r := range res {
			fmt.Println(r)
		}
		fmt.Println("(tree-method equality means the all-roots star search already")
		fmt.Println(" subsumes path merging; hook orientation and decoder peeling are")
		fmt.Println(" the load-bearing design choices — see EXPERIMENTS.md)")
		return nil
	})

	run("budget", func() error {
		s, err := synthHeavySquare()
		if err != nil {
			return err
		}
		entries, err := paper.NoiseBudget(s, 0.001, cfg)
		if err != nil {
			return err
		}
		fmt.Print(paper.FormatBudget(entries))
		return nil
	})

	run("alloc", func() error {
		res, err := paper.AllocationStudy(*trials, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-8s %-8s\n", "allocator", "trials", "valid")
		for _, r := range res {
			fmt.Printf("%-18s %-8d %-8d\n", r.Name, r.Trials, r.Valid)
		}
		return nil
	})
}

// artifacts are the -only selector values, matching the run() calls below.
var artifacts = map[string]bool{
	"table2": true, "table3": true, "table4": true,
	"fig9a": true, "fig9b": true, "fig10": true, "fig11a": true, "fig11b": true,
	"ablations": true, "budget": true, "alloc": true,
}

// validateFlags rejects flag values that would otherwise degrade the run
// silently: a typo'd -only previously matched nothing and exited 0 as if
// every artifact had been produced.
func validateFlags(only string, shots, workers int, targRSE float64, maxErrs, trials int) error {
	switch {
	case only != "" && !artifacts[only]:
		return fmt.Errorf("-only %q is not a known artifact (table2|table3|table4|fig9a|fig9b|fig10|fig11a|fig11b|ablations|budget|alloc)", only)
	case shots <= 0:
		return fmt.Errorf("-shots must be positive, got %d", shots)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = NumCPU), got %d", workers)
	case targRSE < 0 || targRSE != targRSE:
		return fmt.Errorf("-target-rse must be > 0 to enable adaptive stopping (0 = fixed budget), got %g", targRSE)
	case maxErrs < 0:
		return fmt.Errorf("-max-errors must be >= 0 (0 = fixed budget), got %d", maxErrs)
	case trials <= 0:
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	return nil
}

func synthHeavySquare() (*synth.Synthesis, error) {
	_, layout, err := synth.FitDevice(device.KindHeavySquare, 3, synth.ModeDefault)
	if err != nil {
		return nil, err
	}
	return synth.SynthesizeOnLayout(context.Background(), layout, synth.Options{})
}

func printPairs(pairs []paper.CurvePair, err error) error {
	if err != nil {
		return err
	}
	for _, pair := range pairs {
		fmt.Printf("%s\n", pair.Name)
		fmt.Printf("  %-10s %-14s %-14s\n", "p", "d=3 logical", "d=5 logical")
		for i := range pair.D3.Points {
			fmt.Printf("  %-10.4g %-14.5f %-14.5f\n",
				pair.D3.Points[i].P, pair.D3.Points[i].Logical, pair.D5.Points[i].Logical)
		}
		if pair.Threshold > 0 {
			fmt.Printf("  threshold: %.4f (%.2f%%)\n", pair.Threshold, 100*pair.Threshold)
		} else {
			fmt.Printf("  threshold: no crossing in sweep range\n")
		}
	}
	return nil
}
