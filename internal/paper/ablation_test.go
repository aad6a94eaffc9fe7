package paper

import (
	"context"
	"errors"
	"testing"

	"surfstitch/internal/obs"
)

func TestAblationTreeMethod(t *testing.T) {
	res, err := AblationTreeMethod()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Baseline > res.Ablated {
		t.Errorf("branching-tree heuristic should not increase CNOTs: %v", res)
	}
}

func TestAblationHookOrientation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	res, err := AblationHookOrientation(Config{Shots: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Baseline >= res.Ablated {
		t.Errorf("benign hook orientation should reduce the logical error rate: %v", res)
	}
}

func TestAblationDecoderPeeling(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	res, err := AblationDecoderPeeling(Config{Shots: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Baseline >= res.Ablated {
		t.Errorf("peeling decomposition should reduce the logical error rate: %v", res)
	}
}

func TestAblationDecoderUnionFind(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	// A caller's registry receives the union-find counter the engaged check
	// reads, rather than being swapped for a private one.
	reg := obs.NewRegistry()
	res, err := AblationDecoderUnionFind(Config{Shots: 4000, Seed: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if reg.Counter("decoder_uf_total").Value() == 0 {
		t.Error("decoder_uf_total stayed zero on the caller's registry")
	}
}

func TestAblationsHonorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Ablations(Config{Shots: 4000, Seed: 3, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ablations on a canceled context: err = %v, want context.Canceled", err)
	}
}
