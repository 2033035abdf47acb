package index

import (
	"fmt"
	"sort"

	"waveindex/internal/simdisk"
)

// Clone produces a byte-for-byte shadow copy of the index on the same
// store, preserving the physical layout (a packed index clones packed, an
// unpacked one keeps its growth headroom). This is the copy step of simple
// shadow updating (§2.1): queries keep using the original while the clone
// is modified, so no concurrency control is needed inside the index.
func (idx *Index) Clone() (*Index, error) {
	if idx.dropped {
		return nil, ErrDropped
	}
	out := NewEmpty(idx.store, idx.opts)
	out.packed = idx.packed
	out.entries = idx.entries
	for d := range idx.days {
		out.days[d] = struct{}{}
	}
	out.recomputeDayBounds()
	if idx.seg.Valid() {
		seg, err := idx.store.Alloc(idx.seg.Blocks)
		if err != nil {
			return nil, fmt.Errorf("index: clone: %w", err)
		}
		out.seg = seg
		out.allocBytes += seg.Bytes(idx.store.BlockSize())
		bp := getBuf(int(idx.seg.Bytes(idx.store.BlockSize())))
		if err := idx.store.ReadAt(idx.seg, 0, *bp); err != nil {
			putBuf(bp)
			return nil, fmt.Errorf("index: clone: %w", err)
		}
		werr := idx.store.WriteAt(seg, 0, *bp)
		putBuf(bp)
		if werr != nil {
			return nil, fmt.Errorf("index: clone: %w", werr)
		}
	}
	var err error
	idx.dir.ascend(func(key string, b *bucketRef) bool {
		nb := &bucketRef{off: b.off, used: b.used, cap: b.cap, owned: b.owned}
		if b.owned {
			var ext simdisk.Extent
			ext, err = idx.store.Alloc(b.ext.Blocks)
			if err != nil {
				return false
			}
			out.allocBytes += ext.Bytes(idx.store.BlockSize())
			bp := getBuf(b.used * EntrySize)
			if err = idx.store.ReadAt(b.ext, 0, *bp); err != nil {
				putBuf(bp)
				return false
			}
			err = idx.store.WriteAt(ext, 0, *bp)
			putBuf(bp)
			if err != nil {
				return false
			}
			nb.ext = ext
		}
		out.dir.set(key, nb)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("index: clone: %w", err)
	}
	return out, nil
}

// PackedMerge implements packed shadow updating (§2.1): it scans the
// index's buckets, drops entries whose day is in expire, merges in the
// postings of adds, and writes the result as a new packed index on the
// same store. The original index is left untouched; the caller swaps it
// out of the wave index and drops it.
func (idx *Index) PackedMerge(expire []int, adds ...*Batch) (*Index, error) {
	if idx.dropped {
		return nil, ErrDropped
	}
	gone := make(map[int32]struct{}, len(expire))
	for _, d := range expire {
		gone[int32(d)] = struct{}{}
	}
	// Read every bucket sequentially in directory order so the store sees
	// the exact access pattern of a serial scan (seek charges depend on
	// issue order), then decode and filter the raw bytes in parallel —
	// that part is pure CPU work on private buffers.
	type rawBucket struct {
		key  string
		raw  *[]byte
		used int
		kept []Entry
	}
	var raws []rawBucket
	var err error
	idx.dir.ascend(func(key string, b *bucketRef) bool {
		var raw *[]byte
		raw, err = idx.readBucketRaw(b)
		if err != nil {
			return false
		}
		raws = append(raws, rawBucket{key: key, raw: raw, used: b.used})
		return true
	})
	if err != nil {
		for _, r := range raws {
			putBuf(r.raw)
		}
		return nil, fmt.Errorf("index: packed merge: %w", err)
	}
	ranges := chunkRanges(len(raws), idx.opts.Parallelism)
	runWorkers(idx.opts.Parallelism, len(ranges), func(ci int) error {
		r := ranges[ci]
		for i := r[0]; i < r[1]; i++ {
			rb := &raws[i]
			kept := make([]Entry, 0, rb.used)
			for j := 0; j < rb.used; j++ {
				e := decodeEntry((*rb.raw)[j*EntrySize:])
				if _, x := gone[e.Day]; !x {
					kept = append(kept, e)
				}
			}
			rb.kept = kept
		}
		return nil
	})
	groups := make(map[string][]Entry, len(raws))
	for i := range raws {
		putBuf(raws[i].raw)
		if len(raws[i].kept) > 0 {
			groups[raws[i].key] = raws[i].kept
		}
	}
	for _, b := range adds {
		for _, p := range b.Postings {
			groups[p.Key] = append(groups[p.Key], p.Entry)
		}
	}
	days := make(map[int]struct{})
	for d := range idx.days {
		if _, x := gone[int32(d)]; !x {
			days[d] = struct{}{}
		}
	}
	for _, b := range adds {
		days[b.Day] = struct{}{}
	}
	out, err := buildFromGroups(idx.store, idx.opts, groups, days)
	if err != nil {
		return nil, fmt.Errorf("index: packed merge: %w", err)
	}
	return out, nil
}

// buildFromGroups writes a packed index for pre-collated per-key entries.
func buildFromGroups(store simdisk.BlockStore, opts Options, groups map[string][]Entry, days map[int]struct{}) (*Index, error) {
	idx := NewEmpty(store, opts)
	for d := range days {
		idx.days[d] = struct{}{}
	}
	idx.recomputeDayBounds()
	if len(groups) == 0 {
		return idx, nil
	}
	keys := make([]string, 0, len(groups))
	total := 0
	for k, es := range groups {
		keys = append(keys, k)
		total += len(es)
	}
	sort.Strings(keys)
	bs := int64(store.BlockSize())
	seg, err := store.Alloc((int64(total)*EntrySize + bs - 1) / bs)
	if err != nil {
		return nil, err
	}
	idx.seg = seg
	idx.allocBytes += seg.Bytes(store.BlockSize())
	// Lay out the directory sequentially (offsets are a prefix sum over the
	// sorted keys, and the directory is not safe for concurrent writes),
	// then encode contiguous key ranges in parallel: every worker owns a
	// disjoint slice of the one output buffer, and the single ordered
	// WriteAt below keeps the store's charge sequence identical at any
	// parallelism.
	offs := make([]int64, len(keys))
	var off int64
	for i, k := range keys {
		es := groups[k]
		offs[i] = off
		idx.dir.set(k, &bucketRef{off: off, used: len(es), cap: len(es)})
		off += int64(len(es) * EntrySize)
	}
	bp := getBuf(total * EntrySize)
	buf := *bp
	ranges := chunkRanges(len(keys), opts.Parallelism)
	runWorkers(opts.Parallelism, len(ranges), func(ci int) error {
		r := ranges[ci]
		for i := r[0]; i < r[1]; i++ {
			encodeEntriesInto(buf[offs[i]:], groups[keys[i]])
		}
		return nil
	})
	werr := store.WriteAt(seg, 0, buf)
	putBuf(bp)
	if werr != nil {
		return nil, werr
	}
	idx.entries = total
	return idx, nil
}
