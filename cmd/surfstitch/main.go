// Command surfstitch synthesizes a rotated surface code onto a
// superconducting architecture and prints the result: the data qubit
// layout, the first stabilizers with their bridge trees (Figure 10 style),
// the measurement schedule, and the Table 2 metrics.
//
// Usage:
//
//	surfstitch -arch heavy-hexagon -w 4 -h 5 -d 3
//	surfstitch -arch square -d 3 -mode four -ascii
//	surfstitch -arch heavy-square -d 5 -fit
//	surfstitch -arch square -w 8 -h 4 -d 3 -defects random:0.03
//	surfstitch -arch square -w 8 -h 4 -d 3 -defects faults.json -json
//	surfstitch -arch square -w 8 -h 4 -d 3 -calibration median:7
//
// SIGINT/SIGTERM cancel the run context: the synthesis search stops at the
// next budget check and the command exits with status 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"surfstitch/internal/circuit"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/obs"
	"surfstitch/internal/render"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
	"surfstitch/internal/verify"
)

// synthSettings is the resolved flag set recorded in the run manifest.
type synthSettings struct {
	Arch        string `json:"arch,omitempty"`
	Preset      string `json:"preset,omitempty"`
	W           int    `json:"w"`
	H           int    `json:"h"`
	Distance    int    `json:"d"`
	Mode        string `json:"mode"`
	Fit         bool   `json:"fit,omitempty"`
	NoRefine    bool   `json:"norefine,omitempty"`
	Defects     string `json:"defects,omitempty"`
	Calibration string `json:"calibration,omitempty"`
	Layout      string `json:"layout,omitempty"`
}

func main() {
	var (
		arch     = flag.String("arch", "heavy-hexagon", "architecture: square, hexagon, octagon, heavy-square, heavy-hexagon")
		w        = flag.Int("w", 4, "tiles horizontally")
		h        = flag.Int("h", 4, "tiles vertically")
		d        = flag.Int("d", 3, "code distance (odd, >= 3)")
		mode     = flag.String("mode", "default", "syndrome rectangle mode: default or four")
		fit      = flag.Bool("fit", false, "ignore -w/-h and find the smallest supporting tiling")
		ascii    = flag.Bool("ascii", false, "print the device as ASCII art")
		stabs    = flag.Int("stabs", 8, "number of stabilizers to describe")
		noRef    = flag.Bool("norefine", false, "skip schedule refinement (two-stage X/Z schedule)")
		asJSON   = flag.Bool("json", false, "emit the synthesis report as JSON instead of text")
		svgOut   = flag.String("svg", "", "write an SVG rendering of the synthesis to this file")
		preset   = flag.String("preset", "", "use a chip preset instead of -arch/-w/-h: falcon-like-27q, hummingbird-like-65q, aspen-like-32q, sycamore-like-54q")
		doVerify = flag.Bool("verify", false, "run end-to-end verification (determinism, single-fault property, hook audit)")
		circOut  = flag.String("circuit", "", "write the memory-experiment circuit (stim-flavoured text) to this file")
		rounds   = flag.Int("rounds", 0, "error-detection rounds for -circuit (default 3*d)")
		layoutIn = flag.String("layout", "", "synthesize a multi-patch lattice-surgery layout instead of one patch: inline JSON or @file with {\"patches\": [{\"name\", \"row\", \"col\", \"distance\"}], \"ops\": [{\"a\", \"b\", \"joint\": \"zz\"|\"xx\"}]}")
		defects  = flag.String("defects", "", "impose device defects: a DefectSet JSON file, or <generator>:<density>[:<seed>] with generator random, clustered or edge (e.g. random:0.03)")
		calArg   = flag.String("calibration", "", "attach a calibration snapshot: a Calibration JSON file, or <snapshot>[:<seed>] with snapshot good, median or bad (e.g. median:7); synthesis then minimizes the calibration-weighted expected error")

		traceOut    = flag.String("trace-out", "", "write JSONL trace spans of the synthesis stages to this file")
		manifestOut = flag.String("manifest-out", "", "write the run manifest (config, git revision, timings, stage stats) to this file")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Observability: stage spans land in the registry (and, with -trace-out,
	// in a JSONL file); the manifest snapshots both at exit.
	reg := obs.NewRegistry()
	ctx = obs.ContextWithRegistry(ctx, reg)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		ctx = obs.ContextWithTracer(ctx, obs.NewTracer(f))
	}
	var manifest *obs.Manifest
	if *manifestOut != "" {
		manifest = obs.NewManifest("surfstitch", 0, synthSettings{
			Arch: *arch, Preset: *preset, W: *w, H: *h, Distance: *d,
			Mode: *mode, Fit: *fit, NoRefine: *noRef, Defects: *defects,
			Calibration: *calArg, Layout: *layoutIn,
		})
		defer func() {
			if err := manifest.Seal(reg, *manifestOut, false); err != nil {
				fmt.Fprintln(os.Stderr, "surfstitch: manifest:", err)
			}
		}()
	}

	// With -json, stdout carries only the report; commentary goes to stderr.
	info := os.Stdout
	if *asJSON {
		info = os.Stderr
	}

	m := synth.ModeDefault
	if *mode == "four" {
		m = synth.ModeFour
	} else if *mode != "default" {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	var dev *device.Device
	if *preset != "" {
		p, err := device.Preset(*preset)
		if err != nil {
			fatal(err)
		}
		dev = p
	} else if *fit {
		kind, err := device.ParseKind(*arch)
		if err != nil {
			fatal(err)
		}
		fd, _, err := synth.FitDevice(kind, *d, m)
		if err != nil {
			fatal(err)
		}
		dev = fd
		fmt.Fprintf(info, "smallest supporting device: %v\n", dev)
	} else {
		kind, err := device.ParseKind(*arch)
		if err != nil {
			fatal(err)
		}
		dev = device.ByKind(kind, *w, *h)
	}

	degraded := false
	if *defects != "" {
		ds, err := loadDefects(dev, *defects)
		if err != nil {
			fatal(err)
		}
		dd, err := dev.WithDefects(ds)
		if err != nil {
			fatal(err)
		}
		dead, broken, derated := ds.Counts()
		fmt.Fprintf(info, "defects: %d dead qubits, %d broken couplers, %d derated elements -> %v\n",
			dead, broken, derated, dd)
		dev = dd
		degraded = true
	}
	if *calArg != "" {
		cal, err := device.LoadCalibration(dev, *calArg)
		if err != nil {
			fatal(err)
		}
		cd, err := dev.WithCalibration(cal)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "calibration: %s (reference error rate %.3g) — routing minimizes calibration-weighted error\n",
			cal.Name, noise.ReferenceRate(cal))
		dev = cd
	}
	if *ascii {
		fmt.Println(dev.ASCII())
	}

	opts := synth.Options{Mode: m, NoRefine: *noRef}
	if *layoutIn != "" {
		runLayout(ctx, dev, opts, *layoutIn, *asJSON, *doVerify, *circOut)
		return
	}
	var s *synth.Synthesis
	var err error
	if degraded {
		s, err = synth.SynthesizeDegraded(ctx, dev, *d, opts)
	} else {
		s, err = synth.Synthesize(ctx, dev, *d, opts)
	}
	if err != nil {
		if errors.Is(err, synth.ErrBudgetExceeded) {
			interrupted(err)
		}
		fatal(err)
	}
	if dg := s.Degradation; dg != nil {
		fmt.Fprintln(info, dg)
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(render.Synthesis(s)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}

	// Static distance certification: exact minimum undetectable-logical
	// fault count over both bases. Cheap (no simulation), so every run gets
	// the certificate — in the JSON report, the metrics registry (and thus
	// the manifest), and the text output.
	cert, err := verify.CertifiedDistance(s)
	if err != nil {
		fatal(err)
	}
	reg.Gauge("distance_certified").Set(float64(cert))
	claimed := s.Layout.Code.Distance()
	if s.Degradation != nil {
		claimed = s.Degradation.EffectiveDistance
	}

	if *asJSON {
		blob, err := json.MarshalIndent(struct {
			synth.Report
			CertifiedDistance int `json:"certified_distance"`
		}{s.Report(), cert}, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
		return
	}
	fmt.Print(s.Describe(*stabs))
	fmt.Printf("certified fault distance: %d (claimed %d)\n", cert, claimed)
	if *doVerify {
		fmt.Println()
		fmt.Print(verify.Synthesis(s, verify.Options{}))
	}
	if *circOut != "" {
		r := *rounds
		if r == 0 {
			r = 3 * *d
		}
		mem, err := experiment.NewMemory(s, r, experiment.Options{})
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*circOut, []byte(circuit.Format(mem.Circuit)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d qubits, %d moments, %d detectors)\n",
			*circOut, mem.Circuit.NumQubits, len(mem.Circuit.Moments), len(mem.Circuit.Detectors))
	}
	met := s.Metrics()
	fmt.Printf("\nTable-2 metrics (bulk X stabilizers):\n")
	fmt.Printf("  avg bridge qubits: %.1f\n", met.AvgBridgeQubits)
	fmt.Printf("  avg CNOTs:         %.1f\n", met.AvgCNOTs)
	fmt.Printf("  avg time steps:    %.1f\n", met.AvgTimeSteps)
	fmt.Printf("  total time steps:  %d\n", met.TotalTimeSteps)
	u := s.Utilization()
	fmt.Printf("qubit utilization: %d data (%.1f%%), %d bridge (%.1f%%), %d unused (%.1f%%) of %d\n",
		u.DataQubits, u.DataPercent(), u.BridgeQubits, u.BridgePercent(),
		u.UnusedQubits, u.UnusedPercent(), u.TotalQubits)
}

// layoutFile is the -layout JSON schema (inline or @file).
type layoutFile struct {
	Patches []struct {
		Name     string `json:"name,omitempty"`
		Row      int    `json:"row,omitempty"`
		Col      int    `json:"col,omitempty"`
		Distance int    `json:"distance"`
	} `json:"patches"`
	Ops []struct {
		A     int    `json:"a"`
		B     int    `json:"b"`
		Joint string `json:"joint"`
	} `json:"ops,omitempty"`
	PreRounds   int `json:"pre_rounds,omitempty"`
	MergeRounds int `json:"merge_rounds,omitempty"`
	PostRounds  int `json:"post_rounds,omitempty"`
}

// loadLayout parses the -layout argument: inline JSON, or @path to a file.
func loadLayout(arg string) (surgery.Spec, error) {
	blob := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		var err error
		blob, err = os.ReadFile(arg[1:])
		if err != nil {
			return surgery.Spec{}, err
		}
	}
	var lf layoutFile
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lf); err != nil {
		return surgery.Spec{}, fmt.Errorf("parsing layout: %v", err)
	}
	var spec surgery.Spec
	spec.PreRounds, spec.MergeRounds, spec.PostRounds = lf.PreRounds, lf.MergeRounds, lf.PostRounds
	for _, p := range lf.Patches {
		spec.Patches = append(spec.Patches, surgery.PatchSpec{
			Name: p.Name, Row: p.Row, Col: p.Col, Distance: p.Distance,
		})
	}
	for _, op := range lf.Ops {
		var j surgery.Joint
		switch op.Joint {
		case "zz":
			j = surgery.JointZZ
		case "xx":
			j = surgery.JointXX
		default:
			return surgery.Spec{}, fmt.Errorf("unknown joint %q (want zz or xx)", op.Joint)
		}
		spec.Ops = append(spec.Ops, surgery.Op{A: op.A, B: op.B, Joint: j})
	}
	return spec, nil
}

// layoutPatchReport is one row of the -json patches array.
type layoutPatchReport struct {
	Name              string             `json:"name"`
	Row               int                `json:"row"`
	Col               int                `json:"col"`
	Distance          int                `json:"distance"`
	CertifiedDistance int                `json:"certified_distance"`
	Degradation       *synth.Degradation `json:"degradation,omitempty"`
}

// layoutReport is the -layout -json output schema.
type layoutReport struct {
	SchemaVersion int                 `json:"schema_version"`
	Device        string              `json:"device"`
	Patches       []layoutPatchReport `json:"patches"`
	Ops           []string            `json:"ops,omitempty"`
	PreRounds     int                 `json:"pre_rounds"`
	MergeRounds   int                 `json:"merge_rounds"`
	PostRounds    int                 `json:"post_rounds"`
	Qubits        int                 `json:"qubits"`
	Moments       int                 `json:"moments"`
	Detectors     int                 `json:"detectors"`
	Observables   int                 `json:"observables"`
	JointObs      int                 `json:"joint_observables"`
}

// runLayout is the multi-patch path of the command: pack the layout,
// assemble the combined lattice-surgery circuit, certify each patch, and
// report (text or JSON).
func runLayout(ctx context.Context, dev *device.Device, opts synth.Options, arg string, asJSON, doVerify bool, circOut string) {
	spec, err := loadLayout(arg)
	if err != nil {
		fatal(err)
	}
	p, err := surgery.Pack(ctx, dev, spec, opts)
	if err != nil {
		if errors.Is(err, synth.ErrBudgetExceeded) {
			interrupted(err)
		}
		fatal(err)
	}
	e, err := surgery.NewExperiment(p, surgery.Options{})
	if err != nil {
		fatal(err)
	}
	rep := layoutReport{
		SchemaVersion: 1,
		Device:        dev.Name(),
		PreRounds:     p.Spec.PreRounds,
		MergeRounds:   p.Spec.MergeRounds,
		PostRounds:    p.Spec.PostRounds,
		Qubits:        len(p.AllQubits()),
		Moments:       len(e.Circuit.Moments),
		Detectors:     len(e.Circuit.Detectors),
		Observables:   len(e.Circuit.Observables),
		JointObs:      e.NumJointObs(),
	}
	for pi, syn := range p.Patches {
		cert, err := verify.CertifiedDistance(syn)
		if err != nil {
			fatal(err)
		}
		ps := p.Spec.Patches[pi]
		rep.Patches = append(rep.Patches, layoutPatchReport{
			Name: ps.Name, Row: ps.Row, Col: ps.Col, Distance: ps.Distance,
			CertifiedDistance: cert, Degradation: syn.Degradation,
		})
	}
	for _, op := range p.Spec.Ops {
		rep.Ops = append(rep.Ops, fmt.Sprintf("%v(%s,%s)",
			op.Joint, p.Spec.Patches[op.A].Name, p.Spec.Patches[op.B].Name))
	}

	if asJSON {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
	} else {
		fmt.Printf("layout: %d patches, %d surgery ops on %s\n", len(rep.Patches), len(rep.Ops), rep.Device)
		for _, pr := range rep.Patches {
			fmt.Printf("  patch %q at (%d,%d): distance %d, certified fault distance %d\n",
				pr.Name, pr.Row, pr.Col, pr.Distance, pr.CertifiedDistance)
		}
		for _, op := range rep.Ops {
			fmt.Printf("  op %s\n", op)
		}
		fmt.Printf("rounds: %d separate + %d merged + %d separate\n", rep.PreRounds, rep.MergeRounds, rep.PostRounds)
		fmt.Printf("circuit: %d qubits, %d moments, %d detectors, %d observables (%d joint)\n",
			rep.Qubits, rep.Moments, rep.Detectors, rep.Observables, rep.JointObs)
	}
	if doVerify {
		fmt.Println()
		fmt.Print(verify.Layout(p, verify.Options{}))
	}
	if circOut != "" {
		if err := os.WriteFile(circOut, []byte(circuit.Format(e.Circuit)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", circOut)
	}
}

// loadDefects parses the -defects argument: either a generator spec
// "<name>:<density>[:<seed>]" or a path to a DefectSet JSON file.
func loadDefects(dev *device.Device, arg string) (device.DefectSet, error) {
	if name, rest, ok := strings.Cut(arg, ":"); ok && isGenerator(name) {
		densityStr, seedStr, hasSeed := strings.Cut(rest, ":")
		density, err := strconv.ParseFloat(densityStr, 64)
		if err != nil {
			return device.DefectSet{}, fmt.Errorf("bad defect density %q: %v", densityStr, err)
		}
		seed := int64(1)
		if hasSeed {
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return device.DefectSet{}, fmt.Errorf("bad defect seed %q: %v", seedStr, err)
			}
		}
		return device.GenerateDefects(dev, name, density, seed)
	}
	blob, err := os.ReadFile(arg)
	if err != nil {
		return device.DefectSet{}, err
	}
	var ds device.DefectSet
	if err := ds.UnmarshalJSON(blob); err != nil {
		return device.DefectSet{}, err
	}
	return ds, nil
}

func isGenerator(name string) bool {
	for _, g := range device.GeneratorNames() {
		if g == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "surfstitch:", err)
	os.Exit(1)
}

// interrupted reports a canceled run and exits with the conventional
// 128+SIGINT status.
func interrupted(err error) {
	fmt.Fprintln(os.Stderr, "surfstitch: interrupted:", err)
	os.Exit(130)
}
