package core

import (
	"container/list"
	"sync"

	"waveindex/internal/index"
)

// ResultCache memoizes per-constituent query results — probe buckets and
// scan-derived aggregates — keyed by the constituent's generation. A
// generation is stamped by the wave whenever a slot's contents change
// (publish, retire-swap, in-place mutation, broken marking), so an entry
// can never be served against a constituent other than the exact
// immutable version it was computed from: transitions that rebuild only
// some constituents (DEL, WATA*) leave the other generations — and their
// cached results — intact, while wholesale rebuilds (REINDEX) move every
// generation and thus empty the cache.
//
// The cache is a bounded LRU whose capacity is measured in result rows
// (an entry costs max(1, rows it holds)), so one huge probe bucket cannot
// masquerade as a single cheap entry. All methods are safe for concurrent
// use and are no-ops on a nil receiver.
type ResultCache struct {
	mu          sync.Mutex
	cap         int64 // cost capacity in rows
	used        int64
	entries     map[resKey]*list.Element
	lru         *list.List // front = most recent; value = *resEntry
	byGen       map[uint64]map[resKey]struct{}
	hits        int64
	misses      int64
	evictions   int64
	invalidated int64
}

// resKey identifies one memoized result. kind is part of the key so a
// probe for key "" and an aggregate over the same range cannot collide:
// 0 is a probe bucket, anything else the AggKind of a fold partial.
type resKey struct {
	gen    uint64
	kind   AggKind
	key    string // probe key; empty for aggregates
	t1, t2 int
}

type resEntry struct {
	key  resKey
	cost int64

	probe []index.Entry
	agg   Agg
}

// NewResultCache returns a cache bounded to capRows result rows, or nil
// (a disabled cache) when capRows <= 0.
func NewResultCache(capRows int) *ResultCache {
	if capRows <= 0 {
		return nil
	}
	return &ResultCache{
		cap:     int64(capRows),
		entries: make(map[resKey]*list.Element),
		lru:     list.New(),
		byGen:   make(map[uint64]map[resKey]struct{}),
	}
}

// Enabled reports whether the cache stores anything.
func (rc *ResultCache) Enabled() bool { return rc != nil }

// ResultCacheStats reports cache effectiveness and occupancy.
type ResultCacheStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	Invalidated int64 // entries purged by generation invalidation
	Entries     int64
	CostUsed    int64
	CostCap     int64
}

// Stats returns a snapshot of the cache's counters (zero on nil).
func (rc *ResultCache) Stats() ResultCacheStats {
	if rc == nil {
		return ResultCacheStats{}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResultCacheStats{
		Hits:        rc.hits,
		Misses:      rc.misses,
		Evictions:   rc.evictions,
		Invalidated: rc.invalidated,
		Entries:     int64(len(rc.entries)),
		CostUsed:    rc.used,
		CostCap:     rc.cap,
	}
}

// get returns the entry for k, counting a hit or miss. Caller must not
// retain the returned *resEntry past rc.mu.
func (rc *ResultCache) get(k resKey) (*resEntry, bool) {
	el, ok := rc.entries[k]
	if !ok {
		rc.misses++
		return nil, false
	}
	rc.lru.MoveToFront(el)
	rc.hits++
	return el.Value.(*resEntry), true
}

// removeLocked unlinks el from every structure. Caller holds rc.mu.
func (rc *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*resEntry)
	rc.lru.Remove(el)
	delete(rc.entries, e.key)
	rc.used -= e.cost
	if keys := rc.byGen[e.key.gen]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(rc.byGen, e.key.gen)
		}
	}
}

// put installs e, evicting LRU entries until it fits. Entries costlier
// than the whole capacity are not cached. Caller holds rc.mu.
func (rc *ResultCache) put(e *resEntry) {
	if e.cost > rc.cap {
		return
	}
	if el, ok := rc.entries[e.key]; ok {
		rc.removeLocked(el)
	}
	for rc.used+e.cost > rc.cap {
		tail := rc.lru.Back()
		if tail == nil {
			break
		}
		rc.removeLocked(tail)
		rc.evictions++
	}
	rc.entries[e.key] = rc.lru.PushFront(e)
	rc.used += e.cost
	keys := rc.byGen[e.key.gen]
	if keys == nil {
		keys = make(map[resKey]struct{})
		rc.byGen[e.key.gen] = keys
	}
	keys[e.key] = struct{}{}
}

func cost(rows int) int64 {
	if rows < 1 {
		rows = 1
	}
	return int64(rows)
}

// GetProbe returns a cached probe bucket. The slice is a copy: probe
// results escape to API callers who may sort or mutate them.
func (rc *ResultCache) GetProbe(gen uint64, key string, t1, t2 int) ([]index.Entry, bool) {
	if rc == nil {
		return nil, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.get(resKey{gen: gen, key: key, t1: t1, t2: t2})
	if !ok {
		return nil, false
	}
	return append([]index.Entry(nil), e.probe...), true
}

// PutProbe caches a probe bucket, copying the slice (per-constituent
// results may alias merge inputs or the caller's return value).
func (rc *ResultCache) PutProbe(gen uint64, key string, t1, t2 int, es []index.Entry) {
	if rc == nil {
		return
	}
	e := &resEntry{
		key:   resKey{gen: gen, key: key, t1: t1, t2: t2},
		cost:  cost(len(es)),
		probe: append([]index.Entry(nil), es...),
	}
	rc.mu.Lock()
	rc.put(e)
	rc.mu.Unlock()
}

// GetAgg returns a cached per-constituent fold partial. Its maps are
// shared: callers must treat them as read-only.
func (rc *ResultCache) GetAgg(gen uint64, kind AggKind, t1, t2 int) (Agg, bool) {
	if rc == nil {
		return Agg{}, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.get(resKey{gen: gen, kind: kind, t1: t1, t2: t2})
	if !ok {
		return Agg{}, false
	}
	return e.agg, true
}

// PutAgg caches a per-constituent fold partial, costed by the rows it
// groups into (a bare count is one row). The cache takes ownership of
// a's maps; the producer must not mutate them afterwards.
func (rc *ResultCache) PutAgg(gen uint64, kind AggKind, t1, t2 int, a Agg) {
	if rc == nil {
		return
	}
	e := &resEntry{key: resKey{gen: gen, kind: kind, t1: t1, t2: t2}, cost: cost(len(a.Days) + len(a.Keys)), agg: a}
	rc.mu.Lock()
	rc.put(e)
	rc.mu.Unlock()
}

// InvalidateGens purges every entry cached under the given generations.
// Stale generations can never be served again regardless (queries only
// look up current generations), so this reclaims memory and keeps the
// Invalidated counter honest.
func (rc *ResultCache) InvalidateGens(gens ...uint64) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, g := range gens {
		for k := range rc.byGen[g] {
			if el, ok := rc.entries[k]; ok {
				rc.removeLocked(el)
				rc.invalidated++
			}
		}
	}
}
