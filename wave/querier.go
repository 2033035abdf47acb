package wave

import (
	"container/heap"
	"context"
	"sort"
	"time"

	"waveindex/internal/core"
)

// Querier is the query kernel of a wave index: the paper's two timed
// operations (TimedIndexProbe, single and batched, and TimedSegmentScan),
// one mergeable aggregate fold, and the window they run against. It is
// implemented by *Index, by *Journaled (delegating to the journal's
// current index, which Recover may swap), and by shard.Router
// (scatter-gathering across hash-partitioned shards). Every other query
// — Probe, Count, TopKeys, ... — is written once, over these seven
// methods, on Queries. Code that only reads should accept a Querier (and
// derive with Over) so it runs unchanged against a single index, a
// journaled index, or a sharded deployment.
//
// All methods are safe for concurrent use and may run while days are
// being ingested; they answer from the published wave (the §2.1 shadow-
// update contract). Entry order is part of the contract: ProbeRange
// returns entries in (day, record) order, ScanRange visits keys in
// ascending order with each key's entries in (day, record) order —
// identical for every implementation, so renders of the same data are
// byte-for-byte equal whether it is sharded or not.
type Querier interface {
	// ProbeRange returns the entries for key inserted in [from, to].
	ProbeRange(ctx context.Context, key string, from, to int) ([]Entry, error)
	// MultiProbeRange probes a batch of keys over days [from, to]; keys
	// without entries are absent from the result.
	MultiProbeRange(ctx context.Context, keys []string, from, to int) (map[string][]Entry, error)
	// ScanRange visits every entry inserted in [from, to]; fn returning
	// false stops the scan.
	ScanRange(ctx context.Context, from, to int, fn func(key string, e Entry) bool) error
	// Aggregate folds the entries inserted in [from, to] into one
	// partial aggregate of the given kind.
	Aggregate(ctx context.Context, kind AggKind, from, to int) (Agg, error)

	// Ready reports whether Window days have been ingested and queries
	// are being answered.
	Ready() bool
	// Window returns the first and last day of the current window.
	Window() (from, to int)
	// Stats returns a snapshot of resource usage.
	Stats() Stats
}

// AggKind selects what Querier.Aggregate folds.
type AggKind = core.AggKind

// The aggregate kinds. Every kind counts entries; AggDays and AggKeys
// also group them.
const (
	AggCount = core.AggCount // entry count only
	AggDays  = core.AggDays  // entries per insertion day
	AggKeys  = core.AggKeys  // entries per search value
)

// Agg is a partial aggregate: N entries, grouped per day (AggDays) or
// per key (AggKeys). Partials over disjoint key sets — the shards of a
// router — combine with Merge; per-key groups are carried as parts with
// pairwise disjoint key sets so that combining never unions maps.
type Agg struct {
	N    int
	Days map[int]int
	Keys []map[string]int
}

// Merge folds in b, a partial over a key set disjoint from a's: counts
// and per-day groups are summed, per-key parts concatenated.
func (a *Agg) Merge(b Agg) {
	a.N += b.N
	if len(b.Days) > 0 && a.Days == nil {
		a.Days = make(map[int]int, len(b.Days))
	}
	for d, n := range b.Days {
		a.Days[d] += n
	}
	a.Keys = append(a.Keys, b.Keys...)
}

// Backend is the one capability set a wave deployment offers the layers
// that drive it (the TCP server, the shard router): the query kernel
// plus ingestion, health, and observability. It is satisfied by *Index,
// *Journaled, and shard.Router.
type Backend interface {
	Querier
	AddDay(day int, postings []Posting) error
	AddDayAsync(day int, postings []Posting) error
	Flush() error
	IngestQueueDepth() int
	NeedsRecovery() bool
	Degraded() bool
	HardWindow() bool
	Metrics() MetricsSnapshot
	SlowQueries() []SlowQuery
	SetSlowQueryThreshold(time.Duration)
	Work() []CauseStats
	CacheInfo() CacheInfo
	Close() error
}

// Compile-time assertions: both index forms carry the full capability
// set. shard.Router asserts the same in its own package.
var (
	_ Backend = (*Index)(nil)
	_ Backend = (*Journaled)(nil)
)

// Queries derives every query beyond the kernel from a Querier — the
// only implementation of each. *Index, *Journaled, and shard.Router
// embed one bound to themselves, so the derived queries are methods on
// all three; Over binds one to any other kernel.
type Queries struct{ k Querier }

// Over returns the derived queries of kernel k.
func Over(k Querier) Queries { return Queries{k} }

// Probe returns the entries for key within the current window, ordered
// by (day, record).
func (q Queries) Probe(ctx context.Context, key string) ([]Entry, error) {
	from, to := q.k.Window()
	return q.k.ProbeRange(ctx, key, from, to)
}

// MultiProbe probes a batch of keys within the current window.
func (q Queries) MultiProbe(ctx context.Context, keys []string) (map[string][]Entry, error) {
	from, to := q.k.Window()
	return q.k.MultiProbeRange(ctx, keys, from, to)
}

// Scan visits every entry in the current window in ascending key order;
// fn returning false stops the scan.
func (q Queries) Scan(ctx context.Context, fn func(key string, e Entry) bool) error {
	from, to := q.k.Window()
	return q.k.ScanRange(ctx, from, to, fn)
}

// Count returns the number of entries in the window.
func (q Queries) Count(ctx context.Context) (int, error) {
	from, to := q.k.Window()
	return q.CountRange(ctx, from, to)
}

// CountRange counts entries inserted in [from, to].
func (q Queries) CountRange(ctx context.Context, from, to int) (int, error) {
	a, err := q.k.Aggregate(ctx, AggCount, from, to)
	return a.N, err
}

// Histogram returns per-day entry counts over [from, to], indexed by
// day - from.
func (q Queries) Histogram(ctx context.Context, from, to int) ([]int, error) {
	if to < from {
		return nil, nil
	}
	a, err := q.k.Aggregate(ctx, AggDays, from, to)
	if err != nil {
		return nil, err
	}
	out := make([]int, to-from+1)
	for d, n := range a.Days {
		out[d-from] = n
	}
	return out, nil
}

// DistinctKeys counts the distinct search values in [from, to].
func (q Queries) DistinctKeys(ctx context.Context, from, to int) (int, error) {
	a, err := q.k.Aggregate(ctx, AggKeys, from, to)
	n := 0
	for _, part := range a.Keys {
		n += len(part)
	}
	return n, err
}

// KeyCount pairs a search value with its entry count.
type KeyCount struct {
	Key   string
	Count int
}

// kcBetter reports whether a ranks before b in TopKeys order: higher
// count first, ties broken by smaller key.
func kcBetter(a, b KeyCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

// kcHeap is a min-heap on TopKeys order — the worst retained key sits at
// the root, ready to be displaced.
type kcHeap []KeyCount

func (h kcHeap) Len() int            { return len(h) }
func (h kcHeap) Less(i, j int) bool  { return kcBetter(h[j], h[i]) }
func (h kcHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *kcHeap) Push(v interface{}) { *h = append(*h, v.(KeyCount)) }
func (h *kcHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TopKeys returns the k most frequent search values in [from, to],
// largest first (ties broken by key order). Selection keeps only the k
// best candidates in a bounded min-heap instead of sorting every
// distinct key.
func (q Queries) TopKeys(ctx context.Context, k, from, to int) ([]KeyCount, error) {
	if k < 1 {
		return nil, nil
	}
	a, err := q.k.Aggregate(ctx, AggKeys, from, to)
	if err != nil {
		return nil, err
	}
	h := make(kcHeap, 0, k+1)
	for _, part := range a.Keys {
		for key, n := range part {
			kc := KeyCount{key, n}
			if len(h) < k {
				heap.Push(&h, kc)
			} else if kcBetter(kc, h[0]) {
				h[0] = kc
				heap.Fix(&h, 0)
			}
		}
	}
	out := []KeyCount(h)
	sort.Slice(out, func(i, j int) bool { return kcBetter(out[i], out[j]) })
	return out, nil
}

// SumAux sums the Aux field of key's entries in [from, to] — answering
// aggregates from the index alone when Aux carries the measure (e.g. the
// TPC-D example stores quantities there).
func (q Queries) SumAux(ctx context.Context, key string, from, to int) (int64, error) {
	es, err := q.k.ProbeRange(ctx, key, from, to)
	return sumAux(es), err
}

func sumAux(es []Entry) int64 {
	var sum int64
	for _, e := range es {
		sum += int64(e.Aux)
	}
	return sum
}

// CountKeys returns the entry count of each key in [from, to], probing
// the batch in one MultiProbeRange pass. Keys without entries map to 0.
func (q Queries) CountKeys(ctx context.Context, keys []string, from, to int) (map[string]int, error) {
	res, err := q.k.MultiProbeRange(ctx, keys, from, to)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		out[k] = len(res[k])
	}
	return out, nil
}

// SumAuxKeys sums the Aux field per key over [from, to] in one batched
// probe — the multi-key form of SumAux.
func (q Queries) SumAuxKeys(ctx context.Context, keys []string, from, to int) (map[string]int64, error) {
	res, err := q.k.MultiProbeRange(ctx, keys, from, to)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(keys))
	for _, k := range keys {
		out[k] = sumAux(res[k])
	}
	return out, nil
}

// The *Journaled kernel delegates to the journal's current index. Each
// call re-fetches the index because Recover swaps it; queries keep
// working while the index is poisoned or degraded.

// ProbeRange returns the entries for key inserted in [from, to].
func (j *Journaled) ProbeRange(ctx context.Context, key string, from, to int) ([]Entry, error) {
	return j.Index().ProbeRange(ctx, key, from, to)
}

// MultiProbeRange probes a batch of keys over days [from, to].
func (j *Journaled) MultiProbeRange(ctx context.Context, keys []string, from, to int) (map[string][]Entry, error) {
	return j.Index().MultiProbeRange(ctx, keys, from, to)
}

// ScanRange visits every entry inserted in [from, to].
func (j *Journaled) ScanRange(ctx context.Context, from, to int, fn func(key string, e Entry) bool) error {
	return j.Index().ScanRange(ctx, from, to, fn)
}

// Aggregate folds the entries inserted in [from, to].
func (j *Journaled) Aggregate(ctx context.Context, kind AggKind, from, to int) (Agg, error) {
	return j.Index().Aggregate(ctx, kind, from, to)
}

// Ready reports whether the wrapped index answers queries.
func (j *Journaled) Ready() bool { return j.Index().Ready() }

// Window returns the first and last day of the current window.
func (j *Journaled) Window() (from, to int) { return j.Index().Window() }

// HardWindow reports whether the scheme indexes exactly the window.
func (j *Journaled) HardWindow() bool { return j.Index().HardWindow() }

// Stats returns a snapshot of the wrapped index's resource usage.
func (j *Journaled) Stats() Stats { return j.Index().Stats() }

// Metrics returns the wrapped index's metrics snapshot.
func (j *Journaled) Metrics() MetricsSnapshot { return j.Index().Metrics() }

// SlowQueries returns the wrapped index's slow-query log.
func (j *Journaled) SlowQueries() []SlowQuery { return j.Index().SlowQueries() }

// SetSlowQueryThreshold sets the wrapped index's slow-query threshold.
func (j *Journaled) SetSlowQueryThreshold(d time.Duration) {
	j.Index().SetSlowQueryThreshold(d)
}

// CacheInfo returns the wrapped index's caching-tier snapshot. Zero
// while the opening recovery is still replaying. Recover rebuilds the
// index from its checkpoint and journal, so both cache levels restart
// cold — a recovered index can never serve an entry cached before the
// crash.
func (j *Journaled) CacheInfo() CacheInfo {
	idx := j.Index()
	if idx == nil {
		return CacheInfo{}
	}
	return idx.CacheInfo()
}

// Work returns the wrapped index's per-cause disk-work ledger. Nil
// while the opening recovery is still replaying (the swapped-in index
// is published only once replay completes).
func (j *Journaled) Work() []CauseStats {
	idx := j.Index()
	if idx == nil {
		return nil
	}
	return idx.Work()
}
