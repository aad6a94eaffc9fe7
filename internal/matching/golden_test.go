package matching

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// goldenMatchingDigest is the SHA-256 of every mate array goldenDigest
// produces. It pins the matcher's exact trajectory, tie-breaks included: a
// change that makes the blossom algorithm return another of several
// optimal matchings moves it.
const goldenMatchingDigest = "b94fb9061034472b975f7443ed61ab360c175a1b4fc973ea11004d85c880c9ee"

// goldenGraph draws one seeded random graph: n in [2, 41], edge density in
// [0.1, 1.0] and integer weights from a range drawn per graph, some as
// narrow as {0, 1} and some shifted negative, so equal-weight ties and
// skipped negative edges are common.
func goldenGraph(rng *rand.Rand) (int, []Edge) {
	n := 2 + rng.Intn(40)
	density := 0.1 + 0.9*rng.Float64()
	spans := []int{1, 1, 2, 3, 5, 10, 100, 1000}
	span := spans[rng.Intn(len(spans))]
	shift := 0
	if rng.Intn(4) == 0 {
		shift = span / 2
	}
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{u, v, int64(rng.Intn(span+1) - shift)})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return n, edges
}

func hashMates(h hash.Hash, mate []int) {
	var buf [4]byte
	for _, m := range mate {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(m)))
		h.Write(buf[:])
	}
}

// goldenDigest runs the matcher over 3000 seeded random graphs: both
// cardinality modes of MaxWeightMatching, and for even n the minimum-weight
// perfect matching on one Scratch reused across every graph (the decoder's
// path), whose infeasible cases hash as a marker.
func goldenDigest() string {
	rng := rand.New(rand.NewSource(20))
	h := sha256.New()
	var s Scratch
	for g := 0; g < 3000; g++ {
		n, edges := goldenGraph(rng)
		hashMates(h, MaxWeightMatching(n, edges, false))
		hashMates(h, MaxWeightMatching(n, edges, true))
		if n%2 == 0 {
			mate, err := s.MinWeightPerfectMatching(n, edges)
			if err != nil {
				mate = []int{-2}
			}
			hashMates(h, mate)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestMatchingGoldenDigest(t *testing.T) {
	if got := goldenDigest(); got != goldenMatchingDigest {
		t.Fatalf("matching digest %s, want %s: the matcher's trajectory changed", got, goldenMatchingDigest)
	}
}
