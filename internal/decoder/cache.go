package decoder

import "sync"

// cacheSize bounds every decoder's syndrome cache in entries. At
// sub-threshold error rates the number of distinct sparse syndromes a run
// actually produces is far below this, so the bound exists to cap
// worst-case memory near threshold, not to force eviction churn.
const cacheSize = 1 << 16

// synCache is the bounded syndrome→observable-mask cache. It exploits the
// fact that low-p shots repeat sparse syndromes: the same one- or
// two-defect sets recur constantly, and even their blossom-sized
// combinations repeat. The structure is read-mostly — gets take a read
// lock; inserts stop once the bound is reached, pinning the earliest-seen
// syndromes, which at low physical error rates are exactly the frequent
// sparse ones. Every decoder owns its cache privately and answers misses by
// one decode route fixed at compile time, so the defect set alone is the
// key.
type synCache struct {
	mu  sync.RWMutex
	m   map[string]uint64
	max int
}

func newSynCache(max int) *synCache {
	return &synCache{m: make(map[string]uint64), max: max}
}

// get looks up an encoded defect-set key. The string conversion in the map
// index does not allocate (the compiler's map-lookup special case), so hits
// are allocation-free.
func (c *synCache) get(key []byte) (uint64, bool) {
	c.mu.RLock()
	v, ok := c.m[string(key)]
	c.mu.RUnlock()
	return v, ok
}

// put inserts a result unless the cache is full. Racing inserts for the
// same syndrome store the same value (decoding is deterministic), so the
// cache never changes a decode result — only whether it was recomputed.
func (c *synCache) put(key []byte, v uint64) {
	c.mu.Lock()
	if len(c.m) < c.max {
		c.m[string(key)] = v
	}
	c.mu.Unlock()
}

func (c *synCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// appendSyndromeKey encodes a sorted defect set as fixed-width 4-byte
// little-endian words: fixed width means distinct sets can never collide,
// and the sorted order (WordDetectors and ShotDetectors emit detectors in
// index order) makes the key canonical.
func appendSyndromeKey(dst []byte, defects []int) []byte {
	for _, d := range defects {
		dst = append(dst, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return dst
}
