package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"waveindex/internal/simdisk"
)

// Common index errors.
var (
	ErrDropped  = errors.New("index: operation on dropped index")
	ErrNoBucket = errors.New("index: no bucket for key")
)

// Options configure an index's directory and incremental growth policy.
type Options struct {
	// Dir selects the directory structure (hash table or B+Tree).
	Dir DirKind
	// Growth is the CONTIGUOUS growth factor g: when a bucket overflows,
	// its region is reallocated to g times the current capacity. The paper
	// uses g = 2.0 for skewed text keys and g = 1.08 for uniform TPC-D
	// keys. Values <= 1 default to 2.0.
	Growth float64
	// MinBucketCap is the smallest entry capacity allocated for a new
	// bucket created by an incremental add. 0 means 4.
	MinBucketCap int
	// Parallelism bounds the worker pool bulk operations (BuildPacked,
	// Clone, PackedMerge) use for CPU-side work: collating batches,
	// encoding packed segments, and decoding scanned buckets. Block-store
	// I/O keeps its sequential issue order regardless, so the built index
	// is byte-identical and the simulated disk cost unchanged at any
	// setting. Values <= 1 run sequentially on the caller's goroutine.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Growth <= 1 {
		o.Growth = 2.0
	}
	if o.MinBucketCap <= 0 {
		o.MinBucketCap = 4
	}
	return o
}

// Index is one constituent index of a wave index: an in-memory directory
// over buckets of entries stored on a block store, covering a set of days
// (its time-set). Index is not safe for concurrent use; the wave layer
// serialises access.
type Index struct {
	store      simdisk.BlockStore
	opts       Options
	dir        directory
	days       map[int]struct{}
	seg        simdisk.Extent // packed segment; invalid when absent
	packed     bool
	entries    int
	allocBytes int64
	dropped    bool
	// dayMin/dayMax cache the bounds of the time-set so intersection
	// tests are O(1). They are meaningful only when days is non-empty and
	// are maintained by every mutation, never by readers, so concurrent
	// queries can call DayBounds without synchronisation.
	dayMin, dayMax int
}

// NewEmpty returns an index with no entries and an empty time-set.
func NewEmpty(store simdisk.BlockStore, opts Options) *Index {
	opts = opts.withDefaults()
	return &Index{
		store:  store,
		opts:   opts,
		dir:    newDirectory(opts.Dir),
		days:   make(map[int]struct{}),
		packed: true, // vacuously packed: no unpacked buckets exist
	}
}

// BuildPacked builds a packed index over the given day batches: it counts
// the entries of each search value, allocates one contiguous segment of
// exactly the needed size, and lays the buckets out back to back in key
// order. This is the BuildIndex primitive of §2.2.
func BuildPacked(store simdisk.BlockStore, opts Options, batches ...*Batch) (*Index, error) {
	days := make(map[int]struct{}, len(batches))
	for _, b := range batches {
		days[b.Day] = struct{}{}
	}
	o := opts.withDefaults()
	idx, err := buildFromGroups(store, o, groupByKeyParallel(o.Parallelism, batches), days)
	if err != nil {
		return nil, fmt.Errorf("index: build: %w", err)
	}
	return idx, nil
}

// bucketTarget returns the extent and base byte offset holding b's entries.
func (idx *Index) bucketTarget(b *bucketRef) (simdisk.Extent, int64) {
	if b.owned {
		return b.ext, 0
	}
	return idx.seg, b.off
}

// readBucket returns every live entry of b in stored order, for the
// maintenance paths that rewrite a bucket (Delete, CONTIGUOUS overflow,
// snapshots). Queries go through readRange or Scan instead.
func (idx *Index) readBucket(b *bucketRef) ([]Entry, error) {
	if b.used == 0 {
		return nil, nil
	}
	bp, err := idx.readBucketRaw(b)
	if err != nil {
		return nil, err
	}
	es := decodeEntries(*bp, b.used)
	putBuf(bp)
	return es, nil
}

// readBucketRaw reads b's encoded entries into a pooled buffer; the
// caller must release it with putBuf.
func (idx *Index) readBucketRaw(b *bucketRef) (*[]byte, error) {
	ext, base := idx.bucketTarget(b)
	bp := getBuf(b.used * EntrySize)
	if err := idx.store.ReadAt(ext, base, *bp); err != nil {
		putBuf(bp)
		return nil, err
	}
	return bp, nil
}

// dayAt reads the day timestamp of the encoded entry starting at p[0].
func dayAt(p []byte) int {
	return int(int32(binary.LittleEndian.Uint32(p[12:16])))
}

// readRange is the query-side bucket reader: one transfer of b into a
// pooled buffer, then one decode of the entries timestamped in [t1, t2]
// straight into a slice of exactly their number, in (day, record, aux)
// order. BuildPacked and day-at-a-time Adds lay buckets out in that order
// already, so the decode only checks it and the sort runs just for
// buckets that really are out of order. The result is freshly allocated.
func (idx *Index) readRange(b *bucketRef, t1, t2 int) ([]Entry, error) {
	if b.used == 0 {
		return nil, nil
	}
	bp, err := idx.readBucketRaw(b)
	if err != nil {
		return nil, err
	}
	es := decodeRange(*bp, t1, t2)
	putBuf(bp)
	return es, nil
}

// decodeRange decodes the entries of buf timestamped in [t1, t2], sorted
// by (day, record, aux). Sizing the result first costs a pass over the
// day fields alone, a quarter of the bytes, and spares both growth
// copies and a result that pins a whole bucket for a one-day answer.
func decodeRange(buf []byte, t1, t2 int) []Entry {
	n := 0
	for off := 0; off+EntrySize <= len(buf); off += EntrySize {
		if d := dayAt(buf[off:]); d >= t1 && d <= t2 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	sorted := true
	for off := 0; len(out) < n; off += EntrySize {
		e := decodeEntry(buf[off:])
		if int(e.Day) < t1 || int(e.Day) > t2 {
			continue
		}
		if sorted && len(out) > 0 && EntryLess(e, out[len(out)-1]) {
			sorted = false
		}
		out = append(out, e)
	}
	if !sorted {
		SortEntries(out)
	}
	return out
}

// Add incrementally indexes the postings of the given day batches using
// the CONTIGUOUS scheme: entries are appended into each bucket's region,
// and a full region is reallocated to Growth times its capacity. This is
// the AddToIndex primitive of §2.2; the result is in general not packed.
func (idx *Index) Add(batches ...*Batch) error {
	if idx.dropped {
		return ErrDropped
	}
	groups := groupByKey(batches)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := idx.addToBucket(k, groups[k]); err != nil {
			return fmt.Errorf("index: add %q: %w", k, err)
		}
	}
	for _, b := range batches {
		idx.noteDay(b.Day)
	}
	return nil
}

func (idx *Index) addToBucket(key string, es []Entry) error {
	b, ok := idx.dir.get(key)
	if !ok {
		// New search value: allocate a fresh region with growth headroom.
		capEntries := len(es)
		if capEntries < idx.opts.MinBucketCap {
			capEntries = idx.opts.MinBucketCap
		}
		ext, realCap, err := idx.allocBucket(capEntries)
		if err != nil {
			return err
		}
		bp := encodeEntries(es)
		err = idx.store.WriteAt(ext, 0, *bp)
		putBuf(bp)
		if err != nil {
			return err
		}
		idx.dir.set(key, &bucketRef{ext: ext, used: len(es), cap: realCap, owned: true})
		idx.entries += len(es)
		// Incrementally created buckets carry growth headroom, so the
		// index no longer satisfies the paper's packed definition
		// ("minimal space, without room for growth").
		idx.packed = false
		return nil
	}
	if b.used+len(es) <= b.cap {
		ext, base := idx.bucketTarget(b)
		bp := encodeEntries(es)
		err := idx.store.WriteAt(ext, base+int64(b.used*EntrySize), *bp)
		putBuf(bp)
		if err != nil {
			return err
		}
		b.used += len(es)
		idx.entries += len(es)
		return nil
	}
	// CONTIGUOUS overflow: reallocate to g * cap (at least enough for the
	// incoming entries), copy the old entries over, release the old region.
	old, err := idx.readBucket(b)
	if err != nil {
		return err
	}
	need := b.used + len(es)
	grown := int(float64(b.cap) * idx.opts.Growth)
	if grown <= b.cap {
		grown = b.cap + 1
	}
	if grown < need {
		grown = need
	}
	ext, realCap, err := idx.allocBucket(grown)
	if err != nil {
		return err
	}
	merged := append(old, es...)
	bp := encodeEntries(merged)
	werr := idx.store.WriteAt(ext, 0, *bp)
	putBuf(bp)
	if werr != nil {
		return werr
	}
	if b.owned {
		idx.allocBytes -= b.ext.Bytes(idx.store.BlockSize())
		if err := idx.store.Free(b.ext); err != nil {
			return err
		}
	}
	b.ext, b.off, b.owned = ext, 0, true
	b.used, b.cap = len(merged), realCap
	idx.entries += len(es)
	idx.packed = false
	return nil
}

// allocBucket allocates a private region for at least capEntries entries
// and returns the extent and the true entry capacity of the allocation.
func (idx *Index) allocBucket(capEntries int) (simdisk.Extent, int, error) {
	bs := int64(idx.store.BlockSize())
	blocks := (int64(capEntries)*EntrySize + bs - 1) / bs
	ext, err := idx.store.Alloc(blocks)
	if err != nil {
		return simdisk.Extent{}, 0, err
	}
	idx.allocBytes += ext.Bytes(idx.store.BlockSize())
	return ext, int(ext.Bytes(idx.store.BlockSize()) / EntrySize), nil
}

// Delete removes every entry whose timestamp falls on one of the given
// days, compacting each affected bucket in place, and removes the days
// from the time-set. This is the DeleteFromIndex primitive of §2.2.
func (idx *Index) Delete(days ...int) error {
	if idx.dropped {
		return ErrDropped
	}
	drop := make(map[int32]struct{}, len(days))
	for _, d := range days {
		drop[int32(d)] = struct{}{}
	}
	type change struct {
		key  string
		b    *bucketRef
		kept []Entry
	}
	var changes []change
	var err error
	idx.dir.ascend(func(key string, b *bucketRef) bool {
		var es []Entry
		es, err = idx.readBucket(b)
		if err != nil {
			return false
		}
		kept := es[:0]
		for _, e := range es {
			if _, gone := drop[e.Day]; !gone {
				kept = append(kept, e)
			}
		}
		if len(kept) != len(es) {
			changes = append(changes, change{key, b, append([]Entry(nil), kept...)})
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("index: delete: %w", err)
	}
	for _, c := range changes {
		removed := c.b.used - len(c.kept)
		if len(c.kept) == 0 {
			if c.b.owned {
				idx.allocBytes -= c.b.ext.Bytes(idx.store.BlockSize())
				if err := idx.store.Free(c.b.ext); err != nil {
					return fmt.Errorf("index: delete: %w", err)
				}
			}
			idx.dir.delete(c.key)
		} else {
			ext, base := idx.bucketTarget(c.b)
			bp := encodeEntries(c.kept)
			werr := idx.store.WriteAt(ext, base, *bp)
			putBuf(bp)
			if werr != nil {
				return fmt.Errorf("index: delete: %w", werr)
			}
			c.b.used = len(c.kept)
			idx.packed = false // the freed tail of the bucket is a hole
		}
		idx.entries -= removed
	}
	for _, d := range days {
		delete(idx.days, d)
	}
	idx.recomputeDayBounds()
	return nil
}

// Bucket is a located bucket: the outcome of a directory look-up, which
// costs no I/O and already knows how many entries a read would transfer.
// Splitting a probe into Locate and Read lets the caller decide where the
// read runs from what it is about to read. A Bucket is valid for as long
// as a probe of the index would be: until the next mutation.
type Bucket struct {
	idx *Index
	key string
	ref *bucketRef // nil when the key has no bucket
}

// Locate looks key up in the directory.
func (idx *Index) Locate(key string) (Bucket, error) {
	if idx.dropped {
		return Bucket{}, ErrDropped
	}
	ref, _ := idx.dir.get(key)
	return Bucket{idx: idx, key: key, ref: ref}, nil
}

// Len returns the number of entries stored in the bucket, 0 when the key
// has none.
func (b Bucket) Len() int {
	if b.ref == nil {
		return 0
	}
	return b.ref.used
}

// Read retrieves the bucket's entries whose timestamps fall in [t1, t2]
// (inclusive), sorted by (day, record, aux). It costs one bucket read: a
// seek plus the transfer of the bucket; a key with no bucket costs
// nothing and returns no entries.
func (b Bucket) Read(t1, t2 int) ([]Entry, error) {
	if b.idx.dropped {
		return nil, ErrDropped
	}
	if b.ref == nil {
		return nil, nil
	}
	es, err := b.idx.readRange(b.ref, t1, t2)
	if err != nil {
		return nil, fmt.Errorf("index: probe %q: %w", b.key, err)
	}
	return es, nil
}

// Probe retrieves the entries filed under key whose timestamps fall in
// [t1, t2]: Locate, then Read.
func (idx *Index) Probe(key string, t1, t2 int) ([]Entry, error) {
	b, err := idx.Locate(key)
	if err != nil {
		return nil, err
	}
	return b.Read(t1, t2)
}

// ProbeMulti probes several keys in one pass, returning per-key entry
// lists aligned with keys (nil for keys with no bucket), each sorted like
// Probe's result. The directory is consulted once per key and the
// qualifying buckets are read in ascending disk order, so on a packed
// index adjacent buckets transfer sequentially without a seek — the
// batched counterpart of len(keys) independent Probes.
func (idx *Index) ProbeMulti(keys []string, t1, t2 int) ([][]Entry, error) {
	if idx.dropped {
		return nil, ErrDropped
	}
	type req struct {
		i   int
		b   *bucketRef
		pos int64 // absolute byte position of the bucket on the store
	}
	bs := int64(idx.store.BlockSize())
	reqs := make([]req, 0, len(keys))
	for i, k := range keys {
		b, ok := idx.dir.get(k)
		if !ok || b.used == 0 {
			continue
		}
		ext, base := idx.bucketTarget(b)
		reqs = append(reqs, req{i: i, b: b, pos: ext.Start*bs + base})
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].pos < reqs[b].pos })
	out := make([][]Entry, len(keys))
	for _, r := range reqs {
		es, err := idx.readRange(r.b, t1, t2)
		if err != nil {
			return nil, fmt.Errorf("index: multiprobe %q: %w", keys[r.i], err)
		}
		out[r.i] = es
	}
	return out, nil
}

// Scan visits every entry with a timestamp in [t1, t2] in ascending key
// order, stopping early if fn returns false. On a packed index the buckets
// are laid out in key order, so the scan is one seek plus a sequential
// transfer of the whole segment. Entries are decoded out of the pooled
// transfer buffer as they are visited, in stored order; no per-bucket
// entry list is built.
func (idx *Index) Scan(t1, t2 int, fn func(key string, e Entry) bool) error {
	if idx.dropped {
		return ErrDropped
	}
	var err error
	idx.dir.ascend(func(key string, b *bucketRef) bool {
		if b.used == 0 {
			return true
		}
		var bp *[]byte
		bp, err = idx.readBucketRaw(b)
		if err != nil {
			return false
		}
		buf, more := *bp, true
		for off := 0; more && off < len(buf); off += EntrySize {
			if d := dayAt(buf[off:]); d >= t1 && d <= t2 {
				more = fn(key, decodeEntry(buf[off:]))
			}
		}
		putBuf(bp)
		return more
	})
	if err != nil {
		return fmt.Errorf("index: scan: %w", err)
	}
	return nil
}

// EntryLess reports whether a sorts before b in (day, record, aux) order,
// the canonical order of probe results.
func EntryLess(a, b Entry) bool {
	if a.Day != b.Day {
		return a.Day < b.Day
	}
	if a.RecordID != b.RecordID {
		return a.RecordID < b.RecordID
	}
	return a.Aux < b.Aux
}

// SortEntries orders entries by (day, record, aux) — the canonical probe
// result order, which makes per-constituent results mergeable streams.
func SortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return EntryLess(es[i], es[j]) })
}

// Drop frees all storage held by the index and marks it unusable. This is
// the bulk-delete operation that makes throw-away maintenance cheap: its
// cost is independent of the index size.
func (idx *Index) Drop() error {
	if idx.dropped {
		return ErrDropped
	}
	var err error
	idx.dir.ascend(func(_ string, b *bucketRef) bool {
		if b.owned {
			if e := idx.store.Free(b.ext); e != nil && err == nil {
				err = e
			}
		}
		return true
	})
	if idx.seg.Valid() {
		if e := idx.store.Free(idx.seg); e != nil && err == nil {
			err = e
		}
	}
	idx.dropped = true
	idx.dir = newDirectory(idx.opts.Dir)
	idx.days = make(map[int]struct{})
	idx.entries = 0
	idx.allocBytes = 0
	if err != nil {
		return fmt.Errorf("index: drop: %w", err)
	}
	return nil
}

// noteDay adds d to the time-set, keeping the cached day bounds current.
func (idx *Index) noteDay(d int) {
	if len(idx.days) == 0 || d < idx.dayMin {
		idx.dayMin = d
	}
	if len(idx.days) == 0 || d > idx.dayMax {
		idx.dayMax = d
	}
	idx.days[d] = struct{}{}
}

// recomputeDayBounds rebuilds the cached bounds after day removals.
func (idx *Index) recomputeDayBounds() {
	first := true
	for d := range idx.days {
		if first || d < idx.dayMin {
			idx.dayMin = d
		}
		if first || d > idx.dayMax {
			idx.dayMax = d
		}
		first = false
	}
}

// DayBounds returns the smallest and largest day of the time-set in O(1);
// ok is false when the time-set is empty.
func (idx *Index) DayBounds() (min, max int, ok bool) {
	if len(idx.days) == 0 {
		return 0, 0, false
	}
	return idx.dayMin, idx.dayMax, true
}

// Days returns the index's time-set in ascending order.
func (idx *Index) Days() []int {
	out := make([]int, 0, len(idx.days))
	for d := range idx.days {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// HasDay reports whether day is in the index's time-set.
func (idx *Index) HasDay(day int) bool {
	_, ok := idx.days[day]
	return ok
}

// NumDays returns the size of the time-set.
func (idx *Index) NumDays() int { return len(idx.days) }

// NumEntries returns the number of live entries.
func (idx *Index) NumEntries() int { return idx.entries }

// NumKeys returns the number of distinct search values.
func (idx *Index) NumKeys() int { return idx.dir.len() }

// SizeBytes returns the storage currently allocated to the index,
// including growth headroom and unpacked holes — the paper's S' measure.
func (idx *Index) SizeBytes() int64 { return idx.allocBytes }

// Packed reports whether every bucket is stored with minimal space and the
// buckets are contiguous on disk.
func (idx *Index) Packed() bool { return idx.packed }

// Dropped reports whether Drop has been called.
func (idx *Index) Dropped() bool { return idx.dropped }

// Store returns the block store the index lives on.
func (idx *Index) Store() simdisk.BlockStore { return idx.store }

// Opts returns the index options.
func (idx *Index) Opts() Options { return idx.opts }
