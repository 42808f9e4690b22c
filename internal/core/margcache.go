package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"waitfreebn/internal/obs"
)

// Metric names published by the marginal cache. Documented in README.md
// ("Observability"); keep the two in sync.
const (
	metricCacheHits         = "core_marg_cache_hits_total"
	metricCacheSupersetHits = "core_marg_cache_superset_hits_total"
	metricCacheMisses       = "core_marg_cache_misses_total"
	metricCacheEvictions    = "core_marg_cache_evictions_total"
	metricCacheCells        = "core_marg_cache_cells"
	metricCacheEntries      = "core_marg_cache_entries"
)

// maxFusedScanCells bounds the total cell count of one fused
// MarginalizeManyCtx batch issued by the cached entry point. The fused scan
// allocates a partial array of that many cells per worker, so the bound
// keeps peak memory at p × maxFusedScanCells × 8 bytes regardless of how
// many marginals a wave requests; larger batches are split into several
// scans. CI-test marginals are tiny (≤ r^(MaxCondSet+2) cells), so in
// practice a whole wave fits in one scan.
const maxFusedScanCells = 1 << 18

// CacheStats is a point-in-time snapshot of a MarginalCache's counters,
// reported by structure.Result and the CLIs.
type CacheStats struct {
	Hits uint64 `json:"hits"`
	// SupersetHits counts the hits (included in Hits) served by projecting
	// a cached superset of the requested variable set.
	SupersetHits uint64 `json:"superset_hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	// EpochEvictions counts entries dropped because their freeze-epoch stamp
	// no longer matched the table being queried (epoch-swap invalidation).
	EpochEvictions uint64 `json:"epoch_evictions"`
	Entries        int    `json:"entries"`
	Cells          int64  `json:"cells"`
	MaxCells       int64  `json:"max_cells"`
}

// HitRate returns hits / (hits + misses), or 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the stats as a single human-readable line.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d (%d superset) misses=%d (%.1f%% hit rate) entries=%d cells=%d/%d evictions=%d epoch-evictions=%d",
		s.Hits, s.SupersetHits, s.Misses, 100*s.HitRate(), s.Entries, s.Cells, s.MaxCells, s.Evictions, s.EpochEvictions)
}

// MarginalCache memoizes marginal tables by their variable set so repeated
// conditioning sets across CI-test pairs are served from memory instead of
// rescanning the potential table. Keys are the sorted variable set, so
// I(x;y|Z) and I(y;x|Z) (and any other axis order over the same variables)
// share one entry; consumers get their requested layout back via Project.
// A varset with no entry of its own is still served from memory when a
// cached entry of the same epoch covers it: the smallest such superset is
// projected, and the projection is cached under its own key. The cache is
// bounded by total cell count and evicts whole entries FIFO. All methods
// are safe for concurrent use; the nil *MarginalCache is the disabled cache
// (every lookup misses, every insert is dropped).
type MarginalCache struct {
	mu       sync.Mutex
	maxCells int64
	cells    int64
	entries  map[string]cacheEntry
	fifo     []string

	hits, supersetHits, misses, evictions, epochEvictions uint64

	// obs handles, hoisted at construction (nil when disabled).
	mHits, mSupersetHits, mMisses, mEvictions *obs.Counter
	mCells, mEntries                          *obs.Gauge
}

// NewMarginalCache returns a cache bounded to maxCells total table cells
// (≈ 8·maxCells bytes of counts). A non-nil registry receives the
// core_marg_cache_* metrics; nil disables instrumentation.
func NewMarginalCache(maxCells int, reg *obs.Registry) *MarginalCache {
	if maxCells <= 0 {
		panic(fmt.Sprintf("core: NewMarginalCache with maxCells = %d", maxCells))
	}
	c := &MarginalCache{maxCells: int64(maxCells), entries: make(map[string]cacheEntry)}
	if reg != nil {
		reg.Help(metricCacheHits, "marginal-cache lookups served from memory")
		reg.Help(metricCacheSupersetHits, "marginal-cache hits served by projecting a cached superset")
		reg.Help(metricCacheMisses, "marginal-cache lookups that required a table scan")
		reg.Help(metricCacheCells, "table cells currently held by the marginal cache")
		c.mHits = reg.Counter(metricCacheHits)
		c.mSupersetHits = reg.Counter(metricCacheSupersetHits)
		c.mMisses = reg.Counter(metricCacheMisses)
		c.mEvictions = reg.Counter(metricCacheEvictions)
		c.mCells = reg.Gauge(metricCacheCells)
		c.mEntries = reg.Gauge(metricCacheEntries)
	}
	return c
}

// Stats returns a snapshot of the cache counters. The nil cache reports
// the zero value.
func (c *MarginalCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:           c.hits,
		SupersetHits:   c.supersetHits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		EpochEvictions: c.epochEvictions,
		Entries:        len(c.entries),
		Cells:          c.cells,
		MaxCells:       c.maxCells,
	}
}

// cacheEntry stamps a cached marginal with the freeze epoch of the table it
// was computed from: a lookup under a different epoch is a miss that evicts
// the stale entry in place, so an epoch swap invalidates lazily — entry by
// entry as each is next touched — instead of wholesale.
type cacheEntry struct {
	mg    *Marginal
	epoch uint64
	mask  uint64 // varMask(mg.Vars): a necessary condition for covering a varset
}

// varMask folds a variable set into 64 bits, variable v setting bit v mod
// 64. A set can only cover another if its mask covers the other's mask, so
// the superset search rejects almost every entry with one AND; only
// surviving candidates get the exact membership check.
func varMask(vars []int) uint64 {
	var m uint64
	for _, v := range vars {
		m |= 1 << (uint(v) & 63)
	}
	return m
}

// covers reports whether the sorted variable set sup contains every
// variable of the sorted set sub.
func covers(sup, sub []int) bool {
	i := 0
	for _, v := range sub {
		for i < len(sup) && sup[i] < v {
			i++
		}
		if i == len(sup) || sup[i] != v {
			return false
		}
	}
	return true
}

// lookup resolves a sorted varset at the given freeze epoch. An entry of
// its own is returned as is; failing that, the smallest entry of the same
// epoch that covers canon is returned with superset set, for the caller to
// project. A stamp mismatch on the varset's own entry evicts it in place;
// stale supersets are skipped, never projected. Counts hits (superset hits
// among them) and misses.
func (c *MarginalCache) lookup(key string, canon []int, epoch uint64) (mg *Marginal, superset bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	ent, ok := c.entries[key]
	if ok && ent.epoch != epoch {
		// Stale epoch: drop it now rather than waiting for FIFO pressure.
		// Its fifo slot stays behind; the eviction loop tolerates victims
		// that are already gone.
		c.cells -= int64(len(ent.mg.Counts))
		delete(c.entries, key)
		c.epochEvictions++
		ok = false
	}
	if ok {
		mg = ent.mg
	} else {
		mask := varMask(canon)
		for _, e := range c.entries {
			if e.epoch != epoch || e.mask&mask != mask || len(e.mg.Vars) <= len(canon) ||
				(mg != nil && len(e.mg.Counts) >= len(mg.Counts)) || !covers(e.mg.Vars, canon) {
				continue
			}
			mg = e.mg
		}
		superset = mg != nil
	}
	if mg != nil {
		c.hits++
	} else {
		c.misses++
	}
	if superset {
		c.supersetHits++
	}
	c.mu.Unlock()
	if mg == nil {
		c.mMisses.Inc()
		return nil, false
	}
	c.mHits.Inc()
	if superset {
		c.mSupersetHits.Inc()
	}
	return mg, superset
}

// put inserts a canonical marginal stamped with its table's freeze epoch,
// evicting FIFO until it fits. Entries larger than the whole budget are not
// cached.
func (c *MarginalCache) put(key string, epoch uint64, mg *Marginal) {
	if c == nil || int64(len(mg.Counts)) > c.maxCells {
		return
	}
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok && ent.epoch == epoch {
		c.mu.Unlock()
		return
	} else if ok {
		// Same varset computed at a newer epoch: replace the stale entry.
		c.cells -= int64(len(ent.mg.Counts))
		delete(c.entries, key)
		c.epochEvictions++
	}
	evicted := uint64(0)
	for c.cells+int64(len(mg.Counts)) > c.maxCells && len(c.fifo) > 0 {
		victim := c.fifo[0]
		c.fifo = c.fifo[1:]
		if old, ok := c.entries[victim]; ok {
			c.cells -= int64(len(old.mg.Counts))
			delete(c.entries, victim)
			evicted++
		}
	}
	c.entries[key] = cacheEntry{mg: mg, epoch: epoch, mask: varMask(mg.Vars)}
	c.fifo = append(c.fifo, key)
	c.cells += int64(len(mg.Counts))
	c.evictions += evicted
	cells, entries := c.cells, len(c.entries)
	c.mu.Unlock()
	c.mEvictions.Add(evicted)
	c.mCells.Set(float64(cells))
	c.mEntries.Set(float64(entries))
}

// AppendVarsetKey appends the canonical cache-key encoding of vars — which
// must already be sorted ascending — to dst and returns the extended slice.
// It is the allocation-free form of varsetKey for callers that keep their
// own key scratch (the serve read hot path); pair with GetSorted.
func AppendVarsetKey(dst []byte, vars ...int) []byte {
	for _, v := range vars {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// GetSorted returns the cached canonical marginal for the sorted varset
// whose AppendVarsetKey encoding is key, at the given freeze epoch, or nil.
// The hit path performs no heap allocation (the map index on string(key)
// compiles to an allocation-free lookup), which is what lets the serve
// layer answer a repeated marginal query without touching the allocator.
// Semantics match the unexported get: a stale-epoch entry is evicted in
// place and counted as a miss.
func (c *MarginalCache) GetSorted(key []byte, epoch uint64) *Marginal {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ent, ok := c.entries[string(key)]
	if ok && ent.epoch != epoch {
		c.cells -= int64(len(ent.mg.Counts))
		delete(c.entries, string(key))
		c.epochEvictions++
		ok = false
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		c.mHits.Inc()
		return ent.mg
	}
	c.mMisses.Inc()
	return nil
}

// varsetKey encodes a canonical (sorted) variable set as a map key.
func varsetKey(vars []int) string {
	buf := make([]byte, 0, 2*len(vars)+1)
	for _, v := range vars {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return string(buf)
}

// sortedVarset returns vars sorted ascending, reusing vars itself when it
// is already sorted.
func sortedVarset(vars []int) []int {
	if sort.IntsAreSorted(vars) {
		return vars
	}
	s := append([]int(nil), vars...)
	sort.Ints(s)
	return s
}

// MarginalizeManyCached computes marginals for several variable subsets —
// in the exact axis order each subset requests — deduplicating the scans
// through the cache. See MarginalizeManyCachedCtx.
//
// Deprecated: use MarginalizeManyCachedCtx.
func (t *PotentialTable) MarginalizeManyCached(varsets [][]int, p int, cache *MarginalCache) []*Marginal {
	out, err := t.MarginalizeManyCachedCtx(context.Background(), varsets, p, cache)
	mustScan(err)
	return out
}

// MarginalizeManyCachedCtx is the fused, cached marginalization entry point
// the learner's CI search and the serve read path run on. It resolves each
// requested varset against the cache under its canonical (sorted) key —
// its own entry, else a projection of the smallest cached superset from
// the same epoch, which is then cached under its own key — dedupes the
// misses, including requests within the same call that share a variable
// set, computes them with as few fused MarginalizeManyCtx scans as the
// maxFusedScanCells budget allows, inserts the canonical results into the
// cache, and returns every marginal projected to its requested axis order.
//
// Results are bit-identical to calling MarginalizeManyCtx directly: counts
// are exact integers and Project is an exact integer sum-out. A nil cache
// disables memoization but keeps the in-call dedupe and scan fusion.
func (t *PotentialTable) MarginalizeManyCachedCtx(ctx context.Context, varsets [][]int, p int, cache *MarginalCache) ([]*Marginal, error) {
	if len(varsets) == 0 {
		return nil, nil
	}
	out := make([]*Marginal, len(varsets))
	canon := make([][]int, len(varsets))
	keys := make([]string, len(varsets))

	// Entries are keyed by (varset, freeze epoch): after an epoch swap the
	// same cache serves the new table, invalidating stale entries lazily as
	// they are touched. Unfrozen and non-builder tables stamp epoch 0,
	// which behaves exactly like the unversioned cache.
	epoch := t.FreezeEpoch()

	// Resolve hits; group misses by canonical key.
	missOrder := make([]string, 0, len(varsets)) // first-seen order
	missSets := make(map[string][]int)           // key → canonical varset
	missers := make(map[string][]int)            // key → requester indexes
	for k, vars := range varsets {
		canon[k] = sortedVarset(vars)
		keys[k] = varsetKey(canon[k])
		if mg, superset := cache.lookup(keys[k], canon[k], epoch); mg != nil {
			if superset {
				mg = mg.Project(canon[k])
				cache.put(keys[k], epoch, mg)
			}
			out[k] = mg.Project(vars)
			continue
		}
		if _, seen := missSets[keys[k]]; !seen {
			missOrder = append(missOrder, keys[k])
			missSets[keys[k]] = canon[k]
		}
		missers[keys[k]] = append(missers[keys[k]], k)
	}

	// Compute the misses in fused scans bounded by the cell budget.
	for lo := 0; lo < len(missOrder); {
		hi := lo
		cells := 0
		for hi < len(missOrder) {
			c := t.subsetCells(missSets[missOrder[hi]])
			if hi > lo && cells+c > maxFusedScanCells {
				break
			}
			cells += c
			hi++
		}
		batch := make([][]int, hi-lo)
		for i, key := range missOrder[lo:hi] {
			batch[i] = missSets[key]
		}
		ms, err := t.MarginalizeManyCtx(ctx, batch, p)
		if err != nil {
			return nil, err
		}
		for i, key := range missOrder[lo:hi] {
			cache.put(key, epoch, ms[i])
			for _, k := range missers[key] {
				out[k] = ms[i].Project(varsets[k])
			}
		}
		lo = hi
	}
	return out, nil
}
