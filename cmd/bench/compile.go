package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"surfstitch"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/surgery"
)

// archs pairs each architecture family with its device kind, under which
// internal/devicetest records a minimal tiling per distance.
var archs = []struct {
	arch surfstitch.Architecture
	kind device.Kind
}{
	{surfstitch.Square, device.KindSquare},
	{surfstitch.Hexagon, device.KindHexagon},
	{surfstitch.Octagon, device.KindOctagon},
	{surfstitch.HeavySquare, device.KindHeavySquare},
	{surfstitch.HeavyHexagon, device.KindHeavyHexagon},
}

// compileItem is one entry of the compile set: a code (Synthesize,
// CertifiedDistance, and Verify when Verify is set) or a two-patch ZZ
// lattice-surgery layout (SynthesizeLayout, VerifyLayout).
type compileItem struct {
	Arch     string `json:"arch"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Distance int    `json:"distance"`
	Verify   bool   `json:"verify,omitempty"`
	Layout   bool   `json:"layout,omitempty"`
	arch     surfstitch.Architecture
}

// compileInputs are the compile set, the warm-up item, and one seeded
// order of the set per pass.
type compileInputs struct {
	Items  []compileItem `json:"items"`
	Warm   int           `json:"warm"`
	Passes [][]int       `json:"passes"`
}

// maxPasses bounds the generated pass orders; a pass takes seconds.
const maxPasses = 64

// compileWorkload compiles the whole set once per pass, serially, and
// measures whole passes so every run compiles the same mix.
type compileWorkload struct {
	in     compileInputs
	devs   []*surfstitch.Device
	first  []*compileOutcome // per item, from its first untraced compile
	passes int               // untraced passes run
}

// compileOutcome is what the checks and the replay compare for one item.
type compileOutcome struct {
	Quality       quality // codes only
	Certified     []int   // every certificate: the code's, or each patch's
	Deterministic bool    // tableau determinism, where verified
	SingleFaults  int
	Misdecoded    int
}

// quality is the size of a synthesized code, or a sum over codes:
// two-qubit gates per syndrome cycle, schedule steps per cycle, and data
// plus bridge qubits.
type quality struct{ Gates, Steps, Qubits float64 }

// qualityOf reads a code's size from its synthesis report, the form the
// daemon returns too.
func qualityOf(r surfstitch.SynthReport) quality {
	q := quality{Steps: float64(r.Metrics.TotalTimeSteps), Qubits: float64(r.Utilization.Data + r.Utilization.Bridge)}
	for _, s := range r.Stabilizers {
		q.Gates += float64(s.CNOTs)
	}
	return q
}

func (q quality) plus(o quality) quality {
	return quality{q.Gates + o.Gates, q.Steps + o.Steps, q.Qubits + o.Qubits}
}

// newCompile is every architecture at d=3/5/7 on its minimal tiling,
// verified end to end at d<=5, plus a two-patch ZZ layout at d=3 and d=5.
func newCompile(seed int64, sz size) *compileWorkload {
	codes, layouts, warmD := []int{3, 5, 7}, []int{3, 5}, 5
	if sz == smoke {
		codes, layouts, warmD = []int{3}, []int{3}, 3
	}
	var in compileInputs
	for _, d := range codes {
		for _, a := range archs {
			w, h, _ := devicetest.Sizes(a.kind, d)
			if a.arch == surfstitch.Hexagon && d == warmD {
				in.Warm = len(in.Items)
			}
			in.Items = append(in.Items, compileItem{Arch: a.arch.String(), Width: w, Height: h, Distance: d, Verify: d <= 5, arch: a.arch})
		}
	}
	for _, d := range layouts {
		in.Items = append(in.Items, compileItem{Arch: "square", Width: 4 * d, Height: 5*d - 1, Distance: d, Layout: true, arch: surfstitch.Square})
	}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < maxPasses; p++ {
		in.Passes = append(in.Passes, rng.Perm(len(in.Items)))
	}
	return &compileWorkload{in: in}
}

func (w *compileWorkload) inputs() any { return w.in }

func (w *compileWorkload) setup(ctx context.Context) error {
	w.devs = w.devs[:0]
	for _, it := range w.in.Items {
		dev, err := surfstitch.NewDevice(it.arch, it.Width, it.Height)
		if err != nil {
			return err
		}
		w.devs = append(w.devs, dev)
	}
	w.first = make([]*compileOutcome, len(w.in.Items))
	_, err := w.compile(ctx, nil, 0, 0, w.in.Warm)
	return err
}

func (w *compileWorkload) close() {}

// twoPatchZZ is a vertical pair of distance-d patches joined by a ZZ merge.
func twoPatchZZ(d int) surfstitch.LayoutSpec {
	return surfstitch.LayoutSpec{
		Patches: []surfstitch.PatchSpec{{Name: "a", Row: 0, Col: 0, Distance: d}, {Name: "b", Row: 1, Col: 0, Distance: d}},
		Ops:     []surfstitch.SurgeryOp{{A: 0, B: 1, Joint: surfstitch.JointZZ}},
	}
}

// compile runs one item through the public entry points, with spans when
// rec is set. The traced replay times a layout's packing and its experiment
// assembly apart, the two steps SynthesizeLayout performs.
func (w *compileWorkload) compile(ctx context.Context, rec *recorder, op, root, idx int) (*compileOutcome, error) {
	it, dev := w.in.Items[idx], w.devs[idx]
	out := &compileOutcome{}
	if !it.Layout {
		var syn *surfstitch.Synthesis
		if err := rec.around(op, root, "synth.synthesize", func() (err error) {
			syn, err = surfstitch.Synthesize(ctx, dev, it.Distance, surfstitch.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		out.Quality = qualityOf(syn.Report())
		var cert int
		if err := rec.around(op, root, "distance.certify", func() (err error) {
			cert, err = surfstitch.CertifiedDistance(syn)
			return err
		}); err != nil {
			return nil, err
		}
		out.Certified = []int{cert}
		if it.Verify {
			id := rec.begin(op, root, "verify.verify")
			rep := surfstitch.Verify(syn)
			rec.end(id)
			out.Certified = append(out.Certified, rep.CertifiedDistance)
			out.Deterministic = rep.Deterministic
			out.SingleFaults, out.Misdecoded = rep.SingleFaultTotal, rep.SingleFaultMisdecoded
		}
		return out, nil
	}

	spec := twoPatchZZ(it.Distance)
	var ls *surfstitch.LayoutSynthesis
	if rec == nil {
		var err error
		if ls, err = surfstitch.SynthesizeLayout(ctx, dev, spec, surfstitch.Options{}); err != nil {
			return nil, err
		}
	} else {
		ls = &surfstitch.LayoutSynthesis{}
		if err := rec.around(op, root, "surgery.pack", func() (err error) {
			ls.Placement, err = surgery.Pack(ctx, dev, spec, surfstitch.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		if err := rec.around(op, root, "surgery.experiment", func() (err error) {
			ls.Experiment, err = surgery.NewExperiment(ls.Placement, surgery.Options{})
			return err
		}); err != nil {
			return nil, err
		}
	}
	id := rec.begin(op, root, "surgery.verify")
	rep := surfstitch.VerifyLayout(ls)
	rec.end(id)
	for _, pr := range rep.Patches {
		out.Certified = append(out.Certified, pr.CertifiedDistance)
	}
	out.Deterministic = rep.Deterministic
	out.SingleFaults, out.Misdecoded = rep.SingleFaultTotal, rep.SingleFaultMisdecoded
	return out, nil
}

// check holds an item's outcome against its claims: every certificate
// equals the distance asked for, verified circuits are deterministic, and
// the item compiles to the same outcome every time. Verify's pass/fail
// verdict is not a check: its single-fault misdecode allowance fails on
// two items of the set at this revision, which verify.misdecoded reports.
func (w *compileWorkload) check(res *result, idx int, out *compileOutcome) {
	it := w.in.Items[idx]
	name := fmt.Sprintf("%s d=%d", it.Arch, it.Distance)
	if it.Layout {
		name = fmt.Sprintf("2-patch ZZ layout d=%d", it.Distance)
		res.check(len(out.Certified) == 2, "%s: %d patch certificates, want 2", name, len(out.Certified))
	}
	for _, c := range out.Certified {
		res.check(c == it.Distance, "%s: certified distance %d", name, c)
	}
	if it.Verify || it.Layout {
		res.check(out.Deterministic, "%s: detectors are not deterministic", name)
	}
	if w.first[idx] == nil {
		w.first[idx] = out
		return
	}
	res.check(reflect.DeepEqual(out, w.first[idx]), "%s: compiled to %+v, earlier %+v", name, *out, *w.first[idx])
}

// pass compiles the whole set once, in pass p's order: one op. With rec set
// the pass is the op's root span and each call a span under it.
func (w *compileWorkload) pass(ctx context.Context, rec *recorder, p int, res *result) {
	root := rec.begin(p, 0, "bench.op")
	defer rec.end(root)
	res.attempted++
	for _, idx := range w.in.Passes[p] {
		out, err := w.compile(ctx, rec, p, root, idx)
		if err != nil {
			res.opFailed(fmt.Errorf("pass %d, compile item %d: %w", p, idx, err))
			return
		}
		w.check(res, idx, out)
	}
}

// measure times whole passes: the items of a pass differ in cost more than
// tenfold, so a percentile over items would fall in a gap between clusters
// of them, while every pass compiles the same mix.
func (w *compileWorkload) measure(ctx context.Context, window time.Duration, res *result) error {
	start := time.Now()
	for p := 0; p < len(w.in.Passes) && (p == 0 || time.Since(start) < window); p++ {
		t0 := time.Now()
		failed := res.failed
		w.pass(ctx, nil, p, res)
		if res.failed == failed {
			res.latencies = append(res.latencies, time.Since(t0))
		}
		w.passes++
	}
	res.elapsed = time.Since(start)
	for _, out := range w.first {
		if out != nil {
			res.codes = res.codes.plus(out.Quality)
		}
	}
	return nil
}

func (w *compileWorkload) replay(ctx context.Context, rec *recorder, res *result) error {
	start := time.Now()
	for p := 0; p < w.passes; p++ {
		w.pass(ctx, rec, p, res)
	}
	res.replayElapsed = time.Since(start)

	var faults, misdecoded int
	for _, out := range w.first {
		if out != nil {
			faults += out.SingleFaults
			misdecoded += out.Misdecoded
		}
	}
	res.layer["verify.single_faults"] = float64(faults)
	res.layer["verify.misdecoded"] = float64(misdecoded)
	return nil
}
