package index

import (
	"sort"
	"sync"

	"waveindex/internal/btree"
	"waveindex/internal/simdisk"
)

// bucketRef locates a bucket's entries on the store. A bucket either owns
// a private extent (owned == true, entries start at byte 0 of ext) or
// lives inside the index's packed segment at byte offset off.
type bucketRef struct {
	ext   simdisk.Extent // private extent when owned
	off   int64          // byte offset within the packed segment when !owned
	used  int            // entries currently stored
	cap   int            // entry capacity of the bucket's region
	owned bool           // true when the bucket exclusively owns its extent
}

// DirKind selects the directory structure of an index. The paper allows
// any in-memory search structure; both options it names are provided.
type DirKind int

const (
	// HashDir uses a hash table (Go map) directory. Probes are O(1);
	// ordered iteration sorts keys on demand and caches the order.
	HashDir DirKind = iota
	// BTreeDir uses an in-memory B+Tree directory with naturally ordered
	// iteration.
	BTreeDir
)

func (k DirKind) String() string {
	switch k {
	case HashDir:
		return "hash"
	case BTreeDir:
		return "btree"
	}
	return "unknown"
}

// directory maps search values to buckets. Implementations must iterate in
// ascending key order so packed segment layouts are deterministic.
type directory interface {
	get(key string) (*bucketRef, bool)
	set(key string, b *bucketRef)
	delete(key string)
	ascend(fn func(key string, b *bucketRef) bool)
	len() int
}

func newDirectory(kind DirKind) directory {
	switch kind {
	case BTreeDir:
		return &btreeDir{t: btree.New[string, *bucketRef]()}
	default:
		return &hashDir{m: make(map[string]*bucketRef)}
	}
}

// hashDir is a map-backed directory with a cached key-ordered listing.
//
// Mutation (set, delete) is only ever single-goroutine — in-place updates
// hold the wave's write lock and shadow updates work on private copies —
// but ascend runs concurrently from query goroutines and from the
// maintenance goroutine cloning a live index, so the lazily built cache
// needs its own lock.
type hashDir struct {
	m  map[string]*bucketRef
	mu sync.Mutex
	// sorted caches the directory in key order, each key beside its
	// bucket so a scan never goes back to the map; nil when dirty,
	// guarded by mu. Every set and delete drops it: a set on an existing
	// key replaces the pointer the cache would otherwise keep serving.
	sorted []dirEntry
}

type dirEntry struct {
	key string
	b   *bucketRef
}

func (d *hashDir) get(key string) (*bucketRef, bool) {
	b, ok := d.m[key]
	return b, ok
}

func (d *hashDir) invalidate() {
	d.mu.Lock()
	d.sorted = nil
	d.mu.Unlock()
}

func (d *hashDir) set(key string, b *bucketRef) {
	d.m[key] = b
	d.invalidate()
}

func (d *hashDir) delete(key string) {
	if _, exists := d.m[key]; exists {
		delete(d.m, key)
		d.invalidate()
	}
}

func (d *hashDir) ascend(fn func(string, *bucketRef) bool) {
	d.mu.Lock()
	if d.sorted == nil {
		// Sorting bare strings is measurably cheaper than sorting the
		// pairs, and Drop pays for this sort on every transition.
		keys := make([]string, 0, len(d.m))
		for k := range d.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.sorted = make([]dirEntry, len(keys))
		for i, k := range keys {
			d.sorted[i] = dirEntry{k, d.m[k]}
		}
	}
	ents := d.sorted
	d.mu.Unlock()
	for _, e := range ents {
		if !fn(e.key, e.b) {
			return
		}
	}
}

func (d *hashDir) len() int { return len(d.m) }

// btreeDir adapts btree.Tree to the directory interface.
type btreeDir struct {
	t *btree.Tree[string, *bucketRef]
}

func (d *btreeDir) get(key string) (*bucketRef, bool) { return d.t.Get(key) }
func (d *btreeDir) set(key string, b *bucketRef)      { d.t.Set(key, b) }
func (d *btreeDir) delete(key string)                 { d.t.Delete(key) }
func (d *btreeDir) len() int                          { return d.t.Len() }

func (d *btreeDir) ascend(fn func(string, *bucketRef) bool) {
	d.t.Ascend(func(k string, b *bucketRef) bool { return fn(k, b) })
}
