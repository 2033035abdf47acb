package core

import (
	"container/heap"
	"context"
	"sort"
	"time"

	"waveindex/internal/index"
)

// This file implements the wave's k-way merges. Probe results and scan
// streams arrive per-constituent already ordered — probes by (day,
// record, aux) within one bucket, scans by key — so the wave-level result
// is assembled by merging rather than by re-sorting the concatenation.

// mergeEntryLists merges per-constituent probe results, each sorted by
// (day, record, aux), into one sorted slice. Constituents hold disjoint
// day clusters, so the lists normally do not interleave: ordered by first
// entry, each ends no later than the next begins, and the merge is one
// copy per list. Lists that do interleave — soft-window leftovers,
// in-place Adds across clusters — are merged run by run: the list with
// the smallest head gives up, in one copy, everything not beyond the
// next-smallest head. lists is reordered in place. With one non-empty
// list that list itself is returned; with more the result is freshly
// allocated and aliases no input (inputs may be shared cache entries).
func mergeEntryLists(lists [][]index.Entry) []index.Entry {
	live := lists[:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	// Insertion sort by first entry: k is the number of constituents,
	// which is small, and slot order is usually day order already.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && index.EntryLess(live[j][0], live[j-1][0]); j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	out := make([]index.Entry, 0, total)
	for len(live) > 1 {
		// live stays ordered by head, so live[0] has the smallest head
		// and live[1] bounds the run it can give up. Equal entries are
		// identical, so which list an equal one comes from is immaterial.
		l, bound := live[0], live[1][0]
		n := len(l)
		if index.EntryLess(bound, l[n-1]) {
			n = sort.Search(n, func(i int) bool { return index.EntryLess(bound, l[i]) })
		}
		out = append(out, l[:n]...)
		if n == len(l) {
			live = live[1:]
			continue
		}
		// Re-insert the remainder by its new head.
		l = l[n:]
		j := 1
		for ; j < len(live) && index.EntryLess(live[j][0], l[0]); j++ {
			live[j-1] = live[j]
		}
		live[j-1] = l
	}
	return append(out, live[0]...)
}

// scanStreamBuf is the per-stream channel depth: deep enough to decouple
// producers from the consumer, shallow enough to bound buffered groups.
const scanStreamBuf = 16

// keyGroup is one search value's entries from one constituent, in that
// constituent's bucket order.
type keyGroup struct {
	key string
	es  []index.Entry
}

// scanStream carries one constituent's scan output, one key group at a
// time, to the merging consumer. err is written by the producer before
// ch is closed, so the consumer may read it after the channel drains.
type scanStream struct {
	ch   chan keyGroup
	err  error
	cur  keyGroup
	slot int
}

// produceScan runs one constituent's scan, batching entries into per-key
// groups and sending them down st.ch. The engine slot is held only while
// the underlying scan produces entries and is released across channel
// sends, so a pool smaller than the number of streams cannot deadlock the
// merge (every stream still delivers its head group). A close of done —
// or cancellation of ctx — aborts the scan at the next callback.
func produceScan(ctx context.Context, eng *Engine, s Searcher, t1, t2 int, st *scanStream, done <-chan struct{}, tr Tracer) {
	var pend keyGroup
	entries := 0
	send := func(g keyGroup) bool {
		eng.release()
		defer eng.acquire()
		select {
		case st.ch <- g:
			return true
		case <-done:
			return false
		case <-ctx.Done():
			return false
		}
	}
	start := time.Now()
	if !eng.acquireCtx(ctx) {
		st.err = ctx.Err()
		close(st.ch)
		return
	}
	err := s.Scan(t1, t2, func(k string, e index.Entry) bool {
		select {
		case <-done:
			return false
		case <-ctx.Done():
			return false
		default:
		}
		entries++
		if pend.es != nil && pend.key != k {
			g := pend
			pend = keyGroup{}
			if !send(g) {
				return false
			}
		}
		pend.key = k
		pend.es = append(pend.es, e)
		return true
	})
	eng.release()
	if err == nil && pend.es != nil {
		select {
		case st.ch <- pend:
		case <-done:
		case <-ctx.Done():
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	emit(tr, TraceEvent{
		Kind: "scan.constituent", Start: start, Duration: time.Since(start),
		From: t1, To: t2, Constituent: st.slot, Entries: entries, TraceID: TraceIDFrom(ctx), Err: err,
	})
	st.err = err
	close(st.ch)
}

// streamHeap orders scan streams by their current group's key, ties
// broken by wave slot, so the merged scan visits keys in ascending order
// and, within a key, constituents in slot order.
type streamHeap []*scanStream

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if h[i].cur.key != h[j].cur.key {
		return h[i].cur.key < h[j].cur.key
	}
	return h[i].slot < h[j].slot
}
func (h streamHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)   { *h = append(*h, x.(*scanStream)) }
func (h *streamHeap) Pop() (x any) { old := *h; n := len(old); x, *h = old[n-1], old[:n-1]; return }

// consumeScanStreams merges the streams' key groups on the caller's
// goroutine, invoking fn for every entry. It returns once fn asks to
// stop (reported as true), ctx is done, or every stream is exhausted;
// per-stream errors are collected by the caller after the producers wind
// down. Cancellation is checked once per key group, not per entry.
func consumeScanStreams(ctx context.Context, streams []*scanStream, fn func(key string, e index.Entry) bool) (stopped bool) {
	h := make(streamHeap, 0, len(streams))
	for _, st := range streams {
		if g, ok := <-st.ch; ok {
			st.cur = g
			h = append(h, st)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		if ctx.Err() != nil {
			return false
		}
		st := h[0]
		for _, e := range st.cur.es {
			if !fn(st.cur.key, e) {
				return true
			}
		}
		if g, ok := <-st.ch; ok {
			st.cur = g
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return false
}
