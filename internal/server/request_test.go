package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"surfstitch"
)

func validEstimateRequest() Request {
	return Request{
		Device:   DeviceSpec{Arch: "square", Width: 4, Height: 4},
		Distance: 3,
		P:        0.002,
		Run:      RunSpec{Shots: 100, Seed: 7},
	}
}

func TestCompileResolvesEngineTypes(t *testing.T) {
	c, err := compile(KindEstimate, validEstimateRequest())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.dev == nil || c.key == "" {
		t.Fatalf("compiled = %+v", c)
	}
	if len(c.ps) != 1 || c.ps[0] != 0.002 {
		t.Fatalf("ps = %v", c.ps)
	}
	// The key is exactly the public ConfigHash of the same inputs.
	want, err := surfstitch.ConfigHash(KindEstimate, c.dev, 3, c.opts, c.ps, c.cfg)
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	if c.key != want {
		t.Fatalf("key %s != ConfigHash %s", c.key, want)
	}
}

func TestCompileDefects(t *testing.T) {
	req := validEstimateRequest()
	// Density high enough that a small tiling actually loses hardware; tiny
	// densities round to an empty defect set on a 4x4 device.
	req.Defects = &DefectSpec{Generator: "random", Density: 0.2, Seed: 5}
	c1, err := compile(KindEstimate, req)
	if err != nil {
		t.Fatalf("compile with defects: %v", err)
	}
	c2, err := compile(KindEstimate, validEstimateRequest())
	if err != nil {
		t.Fatalf("compile pristine: %v", err)
	}
	if c1.key == c2.key {
		t.Fatal("defective and pristine devices share a cache key")
	}
}

// surgeryRequest turns an estimate request into a valid two-patch ZZ
// surgery request, then applies mutate to its layout.
func surgeryRequest(mutate func(*LayoutSpecWire)) func(*Request) {
	return func(r *Request) {
		r.Distance, r.P = 0, 0
		r.Device = DeviceSpec{Arch: "square", Width: 8, Height: 10}
		r.Layout = &LayoutSpecWire{
			Patches: []PatchSpecWire{{Name: "a", Distance: 3}, {Name: "b", Row: 1, Distance: 3}},
			Ops:     []SurgeryOpWire{{A: 0, B: 1, Joint: "zz"}},
		}
		mutate(r.Layout)
	}
}

func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name   string
		kind   string
		mutate func(*Request)
	}{
		{"unknown kind", "mystery", func(r *Request) {}},
		{"two device sources", KindEstimate, func(r *Request) { r.Device.Preset = "guadalupe" }},
		{"no device source", KindEstimate, func(r *Request) { r.Device = DeviceSpec{} }},
		{"bad arch", KindEstimate, func(r *Request) { r.Device.Arch = "moebius" }},
		{"estimate without p", KindEstimate, func(r *Request) { r.P = 0 }},
		{"estimate p out of range", KindEstimate, func(r *Request) { r.P = 1.5 }},
		{"estimate with ps", KindEstimate, func(r *Request) { r.Ps = []float64{0.1} }},
		{"synthesize with p", KindSynthesize, func(r *Request) {}},
		{"curve without ps", KindCurve, func(r *Request) { r.P = 0 }},
		{"curve with p", KindCurve, func(r *Request) { r.Ps = []float64{0.01} }},
		{"curve duplicate ps", KindCurve, func(r *Request) { r.P = 0; r.Ps = []float64{0.01, 0.01} }},
		{"bad mode", KindEstimate, func(r *Request) { r.Options.Mode = "seven" }},
		{"bad basis", KindEstimate, func(r *Request) { r.Run.Basis = "Y" }},
		{"negative timeout", KindEstimate, func(r *Request) { r.TimeoutSeconds = -1 }},
		{"negative shots", KindEstimate, func(r *Request) { r.Run.Shots = -1 }},
		{"distance too small", KindEstimate, func(r *Request) { r.Distance = 1 }},
		{"bad defect generator", KindEstimate, func(r *Request) {
			r.Defects = &DefectSpec{Generator: "gamma-ray", Density: 0.1}
		}},
		// Oversized requests fail before anything is built.
		{"1000x1000 tiling", KindEstimate, func(r *Request) { r.Device.Width, r.Device.Height = 1000, 1000 }},
		{"distance too large", KindEstimate, func(r *Request) { r.Distance = 1001 }},
		{"too many shots", KindEstimate, func(r *Request) { r.Run.Shots = 1 << 40 }},
		{"too many rounds", KindEstimate, func(r *Request) { r.Run.Rounds = 100_000 }},
		{"too many sweep points", KindCurve, func(r *Request) {
			r.P, r.Ps = 0, make([]float64, 1000)
			for i := range r.Ps {
				r.Ps[i] = float64(i+1) / 2000
			}
		}},
		{"too many patches", KindSurgery, surgeryRequest(func(l *LayoutSpecWire) {
			for i := 2; i < 100; i++ {
				l.Patches = append(l.Patches, PatchSpecWire{Row: i, Distance: 3})
			}
		})},
		{"patch distance too large", KindSurgery, surgeryRequest(func(l *LayoutSpecWire) { l.Patches[1].Distance = 1001 })},
		{"too many merge rounds", KindSurgery, surgeryRequest(func(l *LayoutSpecWire) { l.MergeRounds = 100_000 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := validEstimateRequest()
			tc.mutate(&req)
			_, err := compile(tc.kind, req)
			if err == nil {
				t.Fatal("compile accepted an invalid request")
			}
			if status := statusFor(err); status != http.StatusBadRequest {
				t.Fatalf("statusFor(%v) = %d, want 400", err, status)
			}
		})
	}
}

// FuzzCompileRequest decodes arbitrary bytes the way the submit handler
// does and compiles them as every job kind: compile must never panic, and
// every error it returns must map to 400.
func FuzzCompileRequest(f *testing.F) {
	for _, body := range []map[string]any{
		squareReq(nil),
		squareReq(map[string]any{"p": 0.002, "run": map[string]any{"shots": 400, "seed": 7}}),
		slowEstimate(),
		curveReq(),
		surgeryReq(nil),
		surgeryReq(map[string]any{"p": 0.002, "run": map[string]any{"shots": 256, "max_errors": 10, "seed": 5}}),
		squareReq(map[string]any{
			"p":           0.001,
			"defects":     map[string]any{"generator": "random", "density": 0.2, "seed": 5},
			"calibration": map[string]any{"preset": "median", "seed": 3},
			"options":     map[string]any{"mode": "four"},
		}),
		{"device": map[string]any{"preset": "guadalupe"}, "distance": 3},
		{"device": map[string]any{"arch": "square", "width": 1000, "height": 1000}, "distance": 3},
	} {
		blob, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // the handler answers these 400 bad_request before compile
		}
		for _, kind := range []string{KindSynthesize, KindEstimate, KindCurve, KindSurgery} {
			if _, err := compile(kind, req); err != nil && statusFor(err) != http.StatusBadRequest {
				t.Fatalf("compile(%s, %s) = %v: status %d, want 400", kind, body, err, statusFor(err))
			}
		}
	})
}

func TestStatusForTaxonomy(t *testing.T) {
	wrap := func(sentinel error) error { return fmt.Errorf("context: %w", sentinel) }
	cases := []struct {
		err  error
		want int
		kind string
	}{
		{nil, http.StatusOK, ""},
		{wrap(surfstitch.ErrInvalidConfig), http.StatusBadRequest, "invalid_config"},
		{wrap(surfstitch.ErrBadDefect), http.StatusBadRequest, "bad_defect"},
		{wrap(surfstitch.ErrNoPlacement), http.StatusUnprocessableEntity, "no_placement"},
		{wrap(surfstitch.ErrDisconnected), http.StatusUnprocessableEntity, "disconnected"},
		{wrap(context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline_exceeded"},
		{wrap(surfstitch.ErrBudgetExceeded), http.StatusInternalServerError, "budget_exceeded"},
		{errors.New("boom"), http.StatusInternalServerError, "internal"},
		{wrap(context.Canceled), http.StatusInternalServerError, "cancelled"},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
		if got := errorKind(tc.err); got != tc.kind {
			t.Errorf("errorKind(%v) = %q, want %q", tc.err, got, tc.kind)
		}
	}
}

func TestCompileCacheKeyIgnoresTimeout(t *testing.T) {
	a, err := compile(KindEstimate, validEstimateRequest())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	req := validEstimateRequest()
	req.TimeoutSeconds = 30
	b, err := compile(KindEstimate, req)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if a.key != b.key {
		t.Fatal("timeout_seconds leaked into the cache key")
	}
	if b.timeout == 0 {
		t.Fatal("timeout_seconds not compiled into a deadline")
	}
}
