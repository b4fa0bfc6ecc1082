package server

import (
	"sync"

	"sliceline/internal/core"
)

// cacheKey identifies a result: the dataset's content address, the
// result-affecting configuration signature, and the lattice depth cap.
// MaxLevel is outside core.ConfigSignature (checkpoint resume legitimately
// extends it) but two runs with different depth caps return different
// Results, so the cache keys on it explicitly; likewise the job mode, the
// baseline dataset signature (diff jobs) and the resolved significance level
// (it flips per-slice Significant markers) are outside the core signature
// but result-affecting, so they key explicitly too. Execution-plan fields
// (BlockSize, evaluator, PriorityEnumeration-chunking) are equivalent by
// design: a cached local result satisfies an identical distributed
// submission. Local plans are bit-identical; only the row-partitioned
// distributed evaluator may differ in the last ULPs of summed statistics. Anytime results never enter the cache at all — they
// depend on wall-clock budgets.
type cacheKey struct {
	dataSig  uint64
	cfgSig   uint64
	maxLevel int
	mode     string
	baseSig  uint64  // baseline dataset signature; 0 outside diff mode
	sigLevel float64 // resolved FDR level behind Slice.Significant
}

// cacheEntry pairs the decoded result with its rendered JSON so repeated
// fetches never re-marshal.
type cacheEntry struct {
	res  *core.Result
	json []byte
}

// resultCache maps (dataset, config) to completed results. Entries are
// immutable; a dataset's results are only as large as its top-K plus level
// stats, so no eviction is implemented — the registry, not the cache, owns
// the big allocations.
type resultCache struct {
	mu sync.RWMutex
	m  map[cacheKey]cacheEntry
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[cacheKey]cacheEntry)}
}

func (c *resultCache) get(k cacheKey) (cacheEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.m[k]
	return e, ok
}

func (c *resultCache) put(k cacheKey, res *core.Result, js []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		c.m[k] = cacheEntry{res: res, json: js}
	}
}

func (c *resultCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
