package shard

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"waveindex/wave"
)

// This file is the Router's wave.Querier kernel; every derived query
// (Probe, Count, TopKeys, ...) comes from the embedded wave.Queries.
// Single-key queries route to the owning shard; batched and
// whole-window queries scatter to all owning shards concurrently and
// gather exact results, relying on the partitioning invariant that
// shard key sets are disjoint.
//
// Every shard touch goes through shardCall/fanQuery (breaker.go), so a
// shard behind an open circuit breaker is skipped rather than queried:
// partial-results callers get the healthy remainder with the skipped
// slice recorded in their wave.PartialReport, everyone else gets
// wave.ErrUnavailable.

// ProbeRange returns the entries for key inserted in [from, to]. With
// the owning shard's breaker open, a partial-results caller gets an
// empty (annotated) result — the one shard that could answer is the one
// being skipped.
func (r *Router) ProbeRange(ctx context.Context, key string, from, to int) ([]wave.Entry, error) {
	i := r.ShardFor(key)
	var es []wave.Entry
	err := r.shardCall(ctx, i, func(s wave.Backend) error {
		var err error
		es, err = s.ProbeRange(ctx, key, from, to)
		return err
	})
	if errors.Is(err, errSkipped) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return es, nil
}

// MultiProbeRange partitions the batch by key owner, fans the parts out
// to their shards concurrently, and merges the disjoint result maps.
func (r *Router) MultiProbeRange(ctx context.Context, keys []string, from, to int) (map[string][]wave.Entry, error) {
	parts := make([][]string, len(r.shards))
	for _, k := range keys {
		i := r.ShardFor(k)
		parts[i] = append(parts[i], k)
	}
	results := make([]map[string][]wave.Entry, len(r.shards))
	err := r.fan(func(i int, s wave.Backend) error {
		// A shard owning none of the keys is skipped before the breaker
		// protocol: it must neither fail the batch when its breaker is
		// open (the query never needed it) nor feed a no-op success
		// into its failure count.
		if len(parts[i]) == 0 {
			return nil
		}
		err := r.shardCall(ctx, i, func(s wave.Backend) error {
			m, err := s.MultiProbeRange(ctx, parts[i], from, to)
			results[i] = m
			return err
		})
		if errors.Is(err, errSkipped) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]wave.Entry{}
	for _, m := range results {
		for k, es := range m {
			out[k] = es
		}
	}
	return out, nil
}

// keyGroup is one key's consecutive entries from a shard's scan stream.
type keyGroup struct {
	key     string
	entries []wave.Entry
}

// scanStream is one shard's producer state in the k-way scan merge.
type scanStream struct {
	shard int
	ch    chan keyGroup
	errc  chan error
	cur   keyGroup
}

// streamHeap orders live streams by their current key (shard index
// breaks ties, though disjoint key sets make ties impossible).
type streamHeap []*scanStream

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if h[i].cur.key != h[j].cur.key {
		return h[i].cur.key < h[j].cur.key
	}
	return h[i].shard < h[j].shard
}
func (h streamHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(v interface{}) { *h = append(*h, v.(*scanStream)) }
func (h *streamHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// ScanRange runs every shard's scan concurrently and k-way merges the
// key-ascending streams. Shard key sets are disjoint, so the merged
// visit order — keys ascending, each key's entries in (day, record)
// order — is identical to a single index's TimedSegmentScan: the same
// fn calls in the same order, whatever the shard count. fn returning
// false cancels the outstanding shard scans and stops the merge.
func (r *Router) ScanRange(ctx context.Context, from, to int, fn func(key string, e wave.Entry) bool) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	streams := make([]*scanStream, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		st := &scanStream{shard: i, ch: make(chan keyGroup, 16), errc: make(chan error, 1)}
		streams[i] = st
		wg.Add(1)
		go func(i int, s wave.Backend, st *scanStream) {
			defer wg.Done()
			var cur keyGroup
			started := false
			err := r.shardCall(cctx, i, func(s wave.Backend) error {
				return s.ScanRange(cctx, from, to, func(key string, e wave.Entry) bool {
					if !started || key != cur.key {
						if started {
							select {
							case st.ch <- cur:
							case <-cctx.Done():
								return false
							}
						}
						cur = keyGroup{key: key}
						started = true
					}
					cur.entries = append(cur.entries, e)
					return true
				})
			})
			if errors.Is(err, errSkipped) {
				err = nil // breaker skipped the shard; it streams nothing
			}
			if err == nil && started {
				select {
				case st.ch <- cur:
				case <-cctx.Done():
				}
			}
			st.errc <- err
			close(st.ch)
		}(i, s, st)
	}
	// drain unblocks the producers after cancellation and waits them
	// out, so no goroutine outlives the call.
	drain := func() {
		cancel()
		for _, st := range streams {
			for range st.ch {
			}
		}
		wg.Wait()
	}
	// advance pulls st's next key group; done reports stream end.
	advance := func(st *scanStream) (done bool, err error) {
		g, ok := <-st.ch
		if ok {
			st.cur = g
			return false, nil
		}
		return true, <-st.errc
	}
	h := make(streamHeap, 0, len(streams))
	for _, st := range streams {
		done, err := advance(st)
		if err != nil {
			drain()
			return fmt.Errorf("shard %d: %w", st.shard, err)
		}
		if !done {
			h = append(h, st)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		st := h[0]
		for _, e := range st.cur.entries {
			if !fn(st.cur.key, e) {
				drain()
				return nil
			}
		}
		done, err := advance(st)
		if err != nil {
			drain()
			return fmt.Errorf("shard %d: %w", st.shard, err)
		}
		if done {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	wg.Wait()
	return nil
}

// Aggregate fans the fold out to every shard and merges the partials.
// Shard key sets are disjoint, so counts and per-day groups sum and the
// shards' per-key parts are concatenated, never unioned: the merge costs
// O(shards) whatever the number of distinct keys, and every derived
// aggregate (exact per key, since each shard's counts are global for
// the keys it owns) reads the merged partial.
func (r *Router) Aggregate(ctx context.Context, kind wave.AggKind, from, to int) (wave.Agg, error) {
	per := make([]wave.Agg, len(r.shards))
	err := r.fanQuery(ctx, func(i int, s wave.Backend) error {
		var err error
		per[i], err = s.Aggregate(ctx, kind, from, to)
		return err
	})
	if err != nil {
		return wave.Agg{}, err
	}
	var out wave.Agg
	for _, p := range per {
		out.Merge(p)
	}
	return out, nil
}
