package paper

import (
	"fmt"

	"surfstitch/internal/decoder"
	"surfstitch/internal/device"
	"surfstitch/internal/obs"
	"surfstitch/internal/stats"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
)

// AblationResult compares a design choice against its ablated variant.
type AblationResult struct {
	Name     string
	Baseline float64 // with the design choice (the shipped configuration)
	Ablated  float64 // without it
	Unit     string
}

func (r AblationResult) String() string {
	return fmt.Sprintf("%-28s baseline %.5g vs ablated %.5g (%s)", r.Name, r.Baseline, r.Ablated, r.Unit)
}

// AblationTreeMethod measures the benefit of the branching-tree heuristic
// (Algorithm 2's path merging, motivated by the paper's Figure 6): total
// bridge-tree CNOTs per error-detection cycle with and without it, on the
// heavy-hexagon architecture where data qubits sit far apart.
func AblationTreeMethod() (AblationResult, error) {
	res := AblationResult{Name: "branching-tree heuristic", Unit: "CNOTs/cycle"}
	_, layout, err := synth.FitDevice(device.KindHeavyHexagon, 3, synth.ModeDefault)
	if err != nil {
		return res, err
	}
	both, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		return res, err
	}
	starOnly, err := synth.SynthesizeOnLayout(layout, synth.Options{StarOnlyTrees: true})
	if err != nil {
		return res, err
	}
	sum := func(s *synth.Synthesis) (n int) {
		for _, p := range s.Plans {
			n += p.NumCNOTs()
		}
		return
	}
	res.Baseline = float64(sum(both))
	res.Ablated = float64(sum(starOnly))
	return res, nil
}

// ablationP is the physical error rate of the logical-rate ablations.
const ablationP = 0.002

// ablationPoint estimates the logical error rate of a memory at ablationP
// on the Monte-Carlo engine, decoding with the given options.
func ablationPoint(cfg Config, in threshold.Input, opts decoder.Options) (threshold.Point, error) {
	tc := cfg.thresholdConfig()
	tc.Decoder = opts
	return threshold.EstimatePointContext(cfg.ctx(), in, ablationP, tc)
}

// heavySquareD5 assembles the distance-5 heavy-square memory the decoder
// ablations measure.
func heavySquareD5(cfg Config) (threshold.Input, error) {
	s, err := CodeSpec{Kind: device.KindHeavySquare}.BuildContext(cfg.ctx(), 5)
	if err != nil {
		return threshold.Input{}, err
	}
	return memoryInput(s)
}

// decoderAblation measures the distance-5 heavy-square memory with the
// default decoder (the baseline) and with the ablated decoder options, on
// the same seeded sample streams.
func decoderAblation(cfg Config, ablated decoder.Options) (base, abl threshold.Point, err error) {
	in, err := heavySquareD5(cfg)
	if err != nil {
		return base, abl, err
	}
	if base, err = ablationPoint(cfg, in, decoder.Options{}); err != nil {
		return base, abl, err
	}
	abl, err = ablationPoint(cfg, in, ablated)
	return base, abl, err
}

// AblationHookOrientation measures the hook-orientation rule discovered
// during this reproduction: the distance-5 heavy-square code on a 5x4
// tiling (benign horizontal X hooks) versus the transposed 4x5 tiling
// (vertical hooks aligned with the logical X operator), as logical error
// rates at a fixed physical rate.
func AblationHookOrientation(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	res := AblationResult{Name: "hook orientation", Unit: "logical error rate @ p=0.002"}
	rate := func(dev *device.Device) (float64, error) {
		s, err := synth.Synthesize(cfg.ctx(), dev, 5, synth.Options{})
		if err != nil {
			return 0, err
		}
		in, err := memoryInput(s)
		if err != nil {
			return 0, err
		}
		pt, err := ablationPoint(cfg, in, decoder.Options{})
		return pt.Logical, err
	}
	var err error
	if res.Baseline, err = rate(device.HeavySquare(5, 4)); err != nil {
		return res, err
	}
	res.Ablated, err = rate(device.HeavySquare(4, 5))
	return res, err
}

// AblationDecoderPeeling measures the elementary-edge peeling of the
// decoder's hyperedge decomposition against the naive consecutive-pair
// chaining, as distance-5 heavy-square logical error rates.
func AblationDecoderPeeling(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	res := AblationResult{Name: "decoder hyperedge peeling", Unit: "logical error rate @ p=0.002"}
	base, abl, err := decoderAblation(cfg, decoder.Options{NaiveDecomposition: true})
	res.Baseline, res.Ablated = base.Logical, abl.Logical
	return res, err
}

// AblationDecoderUnionFind measures the almost-linear union-find decoder
// against the exact blossom on the k>=3 tail: distance-5 heavy-square
// logical error rates at p=0.002. This is a bounded-accuracy check, not an
// equality: union-find corrections are valid but may exceed the minimum
// weight, so the two rates must agree within their z=3 Wilson intervals
// rather than bit-for-bit.
func AblationDecoderUnionFind(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	res := AblationResult{Name: "decoder union-find (k>=3)", Unit: "logical error rate @ p=0.002 (Wilson z=3)"}
	// The engaged check reads the decoder_uf_total delta: on the caller's
	// registry when one is set, otherwise on a private one.
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	ufTotal := cfg.Registry.Counter("decoder_uf_total")
	before := ufTotal.Value()
	base, abl, err := decoderAblation(cfg, decoder.Options{UnionFind: true})
	res.Baseline, res.Ablated = base.Logical, abl.Logical
	if err != nil {
		return res, err
	}
	if ufTotal.Value() == before {
		return res, fmt.Errorf("paper: union-find ablation never engaged the union-find path (no k>=3 shots at %d shots)", abl.Shots)
	}
	bLo, bHi := stats.WilsonInterval(base.Errors, base.Shots, 3)
	uLo, uHi := stats.WilsonInterval(abl.Errors, abl.Shots, 3)
	if bLo > uHi || uLo > bHi {
		return res, fmt.Errorf("paper: union-find LER %.6g [%.6g,%.6g] outside the blossom's Wilson bound %.6g [%.6g,%.6g]",
			res.Ablated, uLo, uHi, res.Baseline, bLo, bHi)
	}
	return res, nil
}

// Ablations runs every design-choice ablation.
func Ablations(cfg Config) ([]AblationResult, error) {
	tree, err := AblationTreeMethod()
	if err != nil {
		return nil, err
	}
	hook, err := AblationHookOrientation(cfg)
	if err != nil {
		return nil, err
	}
	peel, err := AblationDecoderPeeling(cfg)
	if err != nil {
		return nil, err
	}
	ufres, err := AblationDecoderUnionFind(cfg)
	if err != nil {
		return nil, err
	}
	return []AblationResult{tree, hook, peel, ufres}, nil
}
