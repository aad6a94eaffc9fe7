package surfstitch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// ConfigHash returns the stable content-address of a computation request:
// the SHA-256 (lowercase hex) of a canonical JSON description of everything
// that determines the result — the device's coupling graph and calibration
// overrides, the code distance, the synthesis options, the physical error
// rates, and the semantically relevant RunConfig fields.
//
// The hash deliberately excludes everything that does not change the
// numbers: the device's display name, RunConfig.Workers (results are
// bit-identical at any worker count), RunConfig.Registry, and progress
// hooks. Zero-valued RunConfig fields are normalized to the engine defaults
// they resolve to (Shots 2000, the fixed default seed, the paper's idle
// rate, Rounds 3*distance), so "defaults spelled out" and "defaults left
// zero" address the same cache entry.
//
// kind names the computation ("synthesize", "estimate", "curve", ...) so
// different result shapes over identical inputs never collide. The canonical
// form is frozen by golden-value tests: changing it invalidates every
// content-addressed cache, so it must only ever be extended deliberately.
func ConfigHash(kind string, dev *Device, distance int, opts Options, ps []float64, cfg RunConfig) (string, error) {
	return contentHash(kind, dev, opts, ps, cfg, func() (map[string]any, error) {
		if distance < 2 {
			return nil, fmt.Errorf("%w: code distance %d must be at least 2", ErrInvalidConfig, distance)
		}
		return map[string]any{
			"kind":     kind,
			"distance": distance,
			"run":      canonicalRun(cfg, distance),
		}, nil
	})
}

// contentHash is the canonical envelope both content hashes share. It
// checks the kind and the device, lets subject validate the request and
// describe it (its kind, the code it addresses and the run), checks the run
// config and the error rates, adds the canonical device, synthesis options
// and error rates, and returns the SHA-256 (lowercase hex) of the
// document's JSON encoding.
func contentHash(kind string, dev *Device, opts Options, ps []float64, cfg RunConfig, subject func() (map[string]any, error)) (string, error) {
	if kind == "" {
		return "", fmt.Errorf("%w: empty hash kind", ErrInvalidConfig)
	}
	if dev == nil {
		return "", fmt.Errorf("%w: nil device", ErrInvalidConfig)
	}
	doc, err := subject()
	if err != nil {
		return "", err
	}
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	for _, p := range ps {
		if p <= 0 || p >= 1 {
			return "", fmt.Errorf("%w: physical error rate %g outside (0, 1)", ErrInvalidConfig, p)
		}
	}
	doc["device"] = canonicalDevice(dev)
	doc["options"] = map[string]any{
		"mode":            opts.Mode.String(),
		"no_refine":       opts.NoRefine,
		"star_only_trees": opts.StarOnlyTrees,
		"co_optimize":     opts.CoOptimize,
		"degrade":         opts.Degrade,
	}
	doc["ps"] = append([]float64{}, ps...)
	// json.Marshal sorts map keys, so the encoding is canonical: one byte
	// stream per semantic request, independent of Go struct layout.
	blob, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("%w: canonicalizing request: %v", ErrInvalidConfig, err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalDevice projects a device onto its semantic content: qubit
// coordinates, couplings (endpoint-ordered and sorted), and calibration
// error-rate overrides. Defects are covered implicitly — WithDefects bakes
// dead qubits and broken couplers into the graph and overrides — and the
// display name is excluded: renaming a chip does not change its physics.
func canonicalDevice(dev *Device) map[string]any {
	qubits := make([][2]int, dev.Len())
	var qerr [][2]any
	for q := 0; q < dev.Len(); q++ {
		c := dev.Coord(q)
		qubits[q] = [2]int{c.X, c.Y}
		if r, ok := dev.QubitErrorRate(q); ok {
			qerr = append(qerr, [2]any{q, r})
		}
	}
	edges := dev.Graph().Edges()
	for i, e := range edges {
		if e[0] > e[1] {
			edges[i] = [2]int{e[1], e[0]}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	var cerr [][3]any
	for _, e := range edges {
		if r, ok := dev.CouplerErrorRate(e[0], e[1]); ok {
			cerr = append(cerr, [3]any{e[0], e[1], r})
		}
	}
	out := map[string]any{
		"qubits":    qubits,
		"couplings": edges,
	}
	// Override lists appear only when present so pristine devices keep the
	// compact (and already-golden) form.
	if len(qerr) > 0 {
		out["qubit_errors"] = qerr
	}
	if len(cerr) > 0 {
		out["coupler_errors"] = cerr
	}
	// Likewise the calibration snapshot: it changes noise channels, routing
	// and decoder weights, so it must separate cache entries — but only
	// appears when attached, keeping uncalibrated hashes frozen.
	if cal := dev.Calibration(); cal != nil {
		var qcal [][5]any
		for _, qc := range cal.Qubits {
			q, _ := dev.QubitAt(qc.At)
			qcal = append(qcal, [5]any{q, qc.T1Us, qc.T2Us, qc.Fidelity1Q, qc.ReadoutError})
		}
		var ccal [][3]any
		for _, cc := range cal.Couplers {
			a, _ := dev.QubitAt(cc.Between[0])
			b, _ := dev.QubitAt(cc.Between[1])
			if a > b {
				a, b = b, a
			}
			ccal = append(ccal, [3]any{a, b, cc.Fidelity2Q})
		}
		sort.Slice(qcal, func(i, j int) bool { return qcal[i][0].(int) < qcal[j][0].(int) })
		sort.Slice(ccal, func(i, j int) bool {
			if ccal[i][0].(int) != ccal[j][0].(int) {
				return ccal[i][0].(int) < ccal[j][0].(int)
			}
			return ccal[i][1].(int) < ccal[j][1].(int)
		})
		out["calibration"] = map[string]any{
			"qubits":   qcal,
			"couplers": ccal,
		}
	}
	return out
}

// canonicalRun normalizes a RunConfig to the values the estimation engine
// actually resolves, dropping the non-semantic fields (Workers, Registry).
// Shots, seed and idle rate come from the engine's own defaults, so a
// zero field and its resolved value always share one content address.
func canonicalRun(cfg RunConfig, distance int) map[string]any {
	tc := cfg.thresholdConfig().WithDefaults()
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 3 * distance
	}
	out := map[string]any{
		"shots":      tc.Shots,
		"rounds":     rounds,
		"idle_error": tc.IdleError,
		"no_idle":    cfg.NoIdle,
		"seed":       tc.Seed,
		"basis":      cfg.Basis.String(),
		"target_rse": cfg.TargetRSE,
		"max_errors": cfg.MaxErrors,
	}
	// The decoder choice changes the numbers, so it separates cache entries —
	// but the key appears only when set, keeping all blossom hashes frozen.
	if cfg.UnionFind {
		out["union_find"] = true
	}
	return out
}

// LayoutConfigHash is ConfigHash for multi-patch lattice-surgery requests:
// the content-address covers the device, the normalized layout envelope
// (patch grid cells and distances, surgery ops, three-phase round counts),
// the synthesis options, the physical error rates, and the semantically
// relevant RunConfig fields. Patch names are excluded (renaming a patch does
// not change its physics), as are RunConfig.Rounds and Basis, which layouts
// derive from the spec. The kind is namespaced under "surgery/" so layout
// requests can never collide with single-patch ones.
func LayoutConfigHash(kind string, dev *Device, layout LayoutSpec, opts Options, ps []float64, cfg RunConfig) (string, error) {
	return contentHash(kind, dev, opts, ps, cfg, func() (map[string]any, error) {
		norm, err := layout.Normalized()
		if err != nil {
			return nil, err
		}
		patches := make([][3]int, len(norm.Patches))
		for i, pt := range norm.Patches {
			patches[i] = [3]int{pt.Row, pt.Col, pt.Distance}
		}
		ops := make([][3]any, len(norm.Ops))
		for i, op := range norm.Ops {
			ops[i] = [3]any{op.A, op.B, op.Joint.String()}
		}
		run := canonicalRun(cfg, norm.Distance())
		delete(run, "rounds") // the layout's round counts are authoritative
		delete(run, "basis")  // per-patch bases follow the surgery ops
		return map[string]any{
			"kind": "surgery/" + kind,
			"layout": map[string]any{
				"patches": patches,
				"ops":     ops,
				"rounds":  [3]int{norm.PreRounds, norm.MergeRounds, norm.PostRounds},
			},
			"run": run,
		}, nil
	})
}
