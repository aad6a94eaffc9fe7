package matching

import (
	"math/rand"
	"testing"
)

func randomCompleteGraph(n int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{u, v, int64(rng.Intn(1000))})
		}
	}
	return edges
}

// BenchmarkMWPM measures minimum-weight perfect matching on complete graphs
// of the defect sizes seen while decoding (the inner loop of Figure 9),
// through the allocating entry point and on one reused Scratch, the path
// the decoder takes.
func BenchmarkMWPM(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		edges := randomCompleteGraph(n, int64(n))
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MinWeightPerfectMatching(n, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("scratch/"+sizeName(n), func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.MinWeightPerfectMatching(n, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMaxWeightMatchingSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 100
	var edges []Edge
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{u, v, int64(rng.Intn(100))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightMatching(n, edges, false)
	}
}

func sizeName(n int) string {
	return string(rune('0'+n/10%10)) + string(rune('0'+n%10)) + "nodes"
}
