package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"waveindex/internal/index"
)

// Searcher is the query surface of data-bearing constituents.
type Searcher interface {
	// Locate looks key up in the constituent's directory. It costs no
	// I/O, and the located bucket knows how many entries reading it
	// would transfer.
	Locate(key string) (index.Bucket, error)
	// Probe is Locate followed by the bucket's Read.
	Probe(key string, t1, t2 int) ([]index.Entry, error)
	Scan(t1, t2 int, fn func(key string, e index.Entry) bool) error
	// NumKeys returns the number of distinct search values indexed.
	NumKeys() int
}

// MultiSearcher is implemented by constituents that can answer a batch of
// probes in one pass, amortising directory lookups and seeks.
type MultiSearcher interface {
	// MultiProbe returns per-key entry lists aligned with keys (nil for
	// absent keys), each sorted by (day, record, aux). keys must be
	// distinct.
	MultiProbe(keys []string, t1, t2 int) ([][]index.Entry, error)
}

// DayBounder is implemented by constituents that can report the bounds of
// their time-set in O(1).
type DayBounder interface {
	DayBounds() (min, max int, ok bool)
}

// Wave is the queryable wave index Theta: the current set of constituent
// indexes. Queries take a snapshot of the constituents and run against it
// without holding the wave lock, so maintenance can publish new
// constituents while long scans are in flight; a superseded constituent
// is retired — its storage release deferred until no query still holds a
// snapshot referencing it. In-place updates, which mutate a live index,
// still exclude queries via a dedicated query lock (§2.1).
type Wave struct {
	// mu guards the constituent slots and the retirement bookkeeping; it
	// is held only for short critical sections, never across IO.
	mu sync.RWMutex
	// qmu is held in read mode for the whole of every query and in write
	// mode by in-place updates, which are the only maintenance operations
	// that mutate an index queries may be reading. Shadow publishing does
	// not touch qmu, so it never waits on a long scan. Lock order:
	// qmu before mu.
	qmu     sync.RWMutex
	cons    []Constituent
	broken  []bool // slots whose constituent is torn or missing; queries skip them
	eng     *Engine
	readers int           // queries holding a snapshot
	retired []Constituent // superseded while readers > 0; dropped later

	// gens stamps each slot with a monotonic constituent generation:
	// genSeq advances and the slot's generation moves on every event that
	// changes what the slot answers — publish, retire-swap, in-place
	// mutation, broken marking. Between moves a constituent is immutable,
	// so (generation, query) identifies a result forever; the result
	// cache keys on it and never needs locking against maintenance.
	gens   []uint64
	genSeq uint64
	rc     *ResultCache

	// qm and tracer are the engine's observability hooks, settable via
	// SetInstrumentation. qm is held by value: the zero value's nil
	// handles are no-ops, so uninstrumented queries record nothing.
	qm     QueryMetrics
	tracer Tracer
}

// NewWave returns a wave with n empty slots and a query engine sized to
// n — one potential reader per constituent.
func NewWave(n int) *Wave {
	return &Wave{
		cons:   make([]Constituent, n),
		broken: make([]bool, n),
		gens:   make([]uint64, n),
		eng:    NewEngine(n),
	}
}

// SetResultCache installs (or removes, with nil) the per-constituent
// result cache consulted by probe and aggregate queries.
func (w *Wave) SetResultCache(rc *ResultCache) {
	w.mu.Lock()
	w.rc = rc
	w.mu.Unlock()
}

// ResultCacheStats reports the result cache's counters (zero when no
// cache is installed).
func (w *Wave) ResultCacheStats() ResultCacheStats {
	w.mu.RLock()
	rc := w.rc
	w.mu.RUnlock()
	return rc.Stats()
}

// Generations returns the current per-slot constituent generations.
func (w *Wave) Generations() []uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]uint64(nil), w.gens...)
}

// bumpGenLocked advances slot i's generation and purges results cached
// under the superseded one. Caller holds w.mu (rc's lock is a leaf).
func (w *Wave) bumpGenLocked(i int) {
	old := w.gens[i]
	w.genSeq++
	w.gens[i] = w.genSeq
	if old != 0 {
		w.rc.InvalidateGens(old)
	}
}

// SetParallelism resizes the query engine's pool. In-flight queries keep
// the pool they started with.
func (w *Wave) SetParallelism(p int) {
	w.mu.Lock()
	w.eng = NewEngine(p)
	w.mu.Unlock()
}

// Parallelism returns the query engine's concurrency bound.
func (w *Wave) Parallelism() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.eng.Parallelism()
}

// N returns the number of constituent slots.
func (w *Wave) N() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.cons)
}

// Get returns the constituent in slot i (may be nil before Start).
func (w *Wave) Get(i int) Constituent {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.cons[i]
}

// Set publishes c in slot i, clearing any broken mark: a freshly
// published constituent is whole.
func (w *Wave) Set(i int, c Constituent) {
	w.mu.Lock()
	w.cons[i] = c
	w.broken[i] = false
	w.bumpGenLocked(i)
	w.mu.Unlock()
}

// MarkBroken flags slot i as broken after a failed mutation: queries skip
// the slot (degrading to the surviving constituents instead of erroring
// or panicking on torn state) and Degraded reports true until a new
// constituent is published into the slot.
func (w *Wave) MarkBroken(i int) {
	w.mu.Lock()
	w.broken[i] = true
	w.bumpGenLocked(i)
	w.mu.Unlock()
}

// Degraded reports whether any slot is broken, i.e. queries are being
// served from a subset of the wave.
func (w *Wave) Degraded() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, b := range w.broken {
		if b {
			return true
		}
	}
	return false
}

// BrokenSlots returns the indices of broken slots.
func (w *Wave) BrokenSlots() []int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var out []int
	for i, b := range w.broken {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// Snapshot returns the current constituents.
func (w *Wave) Snapshot() []Constituent {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]Constituent(nil), w.cons...)
}

// beginQuery registers a query: it pins the current constituents so
// retirement defers their release, and returns them — with their
// generations, the engine to run on, and the result cache — for the
// query to use. Every beginQuery must be paired with endQuery.
func (w *Wave) beginQuery() ([]Constituent, []uint64, *Engine, *ResultCache) {
	w.qmu.RLock()
	w.mu.Lock()
	cons := make([]Constituent, len(w.cons))
	gens := make([]uint64, len(w.cons))
	for i, c := range w.cons {
		if !w.broken[i] {
			cons[i] = c
			gens[i] = w.gens[i]
		}
	}
	eng := w.eng
	rc := w.rc
	w.readers++
	w.mu.Unlock()
	return cons, gens, eng, rc
}

func (w *Wave) endQuery() {
	w.mu.Lock()
	w.readers--
	w.mu.Unlock()
	w.qmu.RUnlock()
}

// Retire disposes of a superseded constituent. With no query in flight it
// is dropped immediately (together with any previously deferred ones);
// otherwise the drop is deferred to a later Retire or DrainRetired on the
// maintenance goroutine, so observers never see drops from query
// goroutines. A nil c just drains.
func (w *Wave) Retire(c Constituent) error {
	w.mu.Lock()
	if w.readers > 0 {
		if c != nil {
			w.retired = append(w.retired, c)
		}
		w.mu.Unlock()
		return nil
	}
	pending := w.retired
	w.retired = nil
	w.mu.Unlock()
	var first error
	for _, old := range pending {
		if err := old.Drop(); err != nil && first == nil {
			first = err
		}
	}
	if c != nil {
		if err := c.Drop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetRetire atomically replaces slot i's constituent and retires the
// previous occupant.
func (w *Wave) SetRetire(i int, c Constituent) error {
	w.mu.Lock()
	old := w.cons[i]
	w.cons[i] = c
	w.broken[i] = false
	w.bumpGenLocked(i)
	w.mu.Unlock()
	if old == nil || old == c {
		return nil
	}
	return w.Retire(old)
}

// DrainRetired drops every deferred-retired constituent, provided no
// query is in flight; with active readers the retirees stay deferred
// (they are dropped by the next Retire or DrainRetired that finds the
// wave quiescent). Used on the shutdown path.
func (w *Wave) DrainRetired() error {
	return w.Retire(nil)
}

// Locked runs fn under the wave's query-exclusion and slot locks; used by
// in-place updating, which mutates a live index and therefore must
// exclude queries.
func (w *Wave) Locked(fn func() error) error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return fn()
}

// MutateLocked is Locked for mutations of slot's live constituent: the
// slot's generation is advanced inside the critical section, before fn
// runs, so no query — they are all excluded until the locks release —
// can ever pair the old generation with the mutated contents. The bump
// happens whether fn succeeds or not: a failed mutation may have torn
// the index, and results cached under the old generation describe a
// constituent that no longer exists.
func (w *Wave) MutateLocked(slot int, fn func() error) error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bumpGenLocked(slot)
	return fn()
}

// Days returns the union of the constituents' time-sets, ascending.
func (w *Wave) Days() []int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	seen := map[int]struct{}{}
	for _, c := range w.cons {
		if c == nil {
			continue
		}
		for _, d := range c.Days() {
			seen[d] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Length returns the total number of days currently indexed — the
// paper's length measure (Appendix B). For soft-window schemes this can
// exceed W.
func (w *Wave) Length() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := 0
	for _, c := range w.cons {
		if c != nil {
			n += c.NumDays()
		}
	}
	return n
}

// SizeBytes returns the total storage of the constituents.
func (w *Wave) SizeBytes() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var n int64
	for _, c := range w.cons {
		if c != nil {
			n += c.SizeBytes()
		}
	}
	return n
}

// intersects reports whether the constituent's time-set meets [t1, t2].
// Constituents exposing cached day bounds decide the common cases — range
// disjoint from the bounds, or bounds contained in the range — in O(1);
// only a range falling inside a gap of a non-contiguous time-set pays the
// O(days) membership walk.
func intersects(c Constituent, t1, t2 int) bool {
	if b, ok := c.(DayBounder); ok {
		min, max, nonEmpty := b.DayBounds()
		if !nonEmpty || max < t1 || min > t2 {
			return false
		}
		if min >= t1 || max <= t2 {
			return true
		}
	}
	for _, d := range c.Days() {
		if d >= t1 && d <= t2 {
			return true
		}
	}
	return false
}

// searchTargets collects the qualifying constituents of a snapshot with
// their wave slots (for per-constituent trace attribution).
func searchTargets(cons []Constituent, t1, t2 int) ([]Searcher, []int, error) {
	out := make([]Searcher, 0, len(cons))
	slots := make([]int, 0, len(cons))
	for i, c := range cons {
		if c == nil || !intersects(c, t1, t2) {
			continue
		}
		s, ok := c.(Searcher)
		if !ok {
			return nil, nil, fmt.Errorf("core: constituent %T is not searchable", c)
		}
		out = append(out, s)
		slots = append(slots, i)
	}
	return out, slots, nil
}

// clampRange narrows [t1, t2] to the constituent's day bounds. Entries
// only exist inside the bounds, so the clamped probe returns identical
// results — but the clamped range is stable while the rest of the wave
// rolls, so a "whole window" query re-hits the cache on constituents the
// transition did not touch.
func clampRange(c Constituent, t1, t2 int) (int, int) {
	if b, ok := c.(DayBounder); ok {
		if lo, hi, nonEmpty := b.DayBounds(); nonEmpty {
			if t1 < lo {
				t1 = lo
			}
			if t2 > hi {
				t2 = hi
			}
		}
	}
	return t1, t2
}

// workersFor reports how many pool workers a query over n targets can
// actually use.
func workersFor(eng *Engine, n int) int64 {
	if p := eng.Parallelism(); p < n {
		return int64(p)
	}
	return int64(n)
}

// InlineProbeEntries is the probe size — the entries its located buckets
// hold together — up to which the bucket reads run on the caller's
// goroutine. Handing four reads to pool goroutines costs a spawn, a
// fresh stack and a wake-up each, about 15 µs a probe; overlapping the
// decodes repays that only for big buckets. Measured at shard.Router on
// a 2-core box with the other core idle, inline is 30 % faster at 3 000
// entries and 10 % at 8 000, level at 12 000 and 6 % slower at 16 000;
// with every core busy it is never slower. The crossover is a property
// of the runtime, not of a deployment, so it is a constant, not a
// setting. Results and block-store reads are the same on either side.
const InlineProbeEntries = 8192

// TimedIndexProbe retrieves the entries for search value key inserted
// between day t1 and t2 inclusive, probing only constituents whose
// clusters intersect the range and filtering entries by timestamp (§2.2).
// Per-constituent results arrive sorted, so they are merged; with at most
// one qualifying constituent its result is returned as is.
func (w *Wave) TimedIndexProbe(key string, t1, t2 int) ([]index.Entry, error) {
	return w.TimedIndexProbeCtx(context.Background(), key, t1, t2)
}

// TimedIndexProbeCtx is TimedIndexProbe with cancellation: the probe
// stops between constituents once ctx is done and returns ctx's error.
func (w *Wave) TimedIndexProbeCtx(ctx context.Context, key string, t1, t2 int) ([]index.Entry, error) {
	return w.probe(ctx, key, t1, t2, false)
}

// bucketRead is one constituent's share of a probe that the locate phase
// could not answer from the result cache: the located bucket and the
// range to read it over.
type bucketRead struct {
	target int // index into the query's targets
	b      index.Bucket
	t1, t2 int
}

// probe answers a single-key probe in two phases. Locate: on the
// caller's goroutine, each qualifying constituent is asked the result
// cache (under the generation-stable clamped range) and then its
// directory — neither costs I/O, and the directory knows the bucket's
// size. Read: the located buckets are read in slot order on the caller's
// goroutine, unless pooled is set and they hold more than
// InlineProbeEntries together, in which case the reads go to the wave's
// engine. Uncached reads keep the caller's range verbatim so a cache-off
// wave's behaviour (including its simulated disk cost) is unchanged.
func (w *Wave) probe(ctx context.Context, key string, t1, t2 int, pooled bool) ([]index.Entry, error) {
	cons, gens, eng, rc := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return nil, err
	}
	qm.Constituents.Add(int64(len(targets)))
	lists := make([][]index.Entry, len(targets))
	reads := make([]bucketRead, 0, len(targets))
	located := 0
	for i, s := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := bucketRead{target: i, t1: t1, t2: t2}
		if rc != nil {
			r.t1, r.t2 = clampRange(cons[slots[i]], t1, t2)
			if es, ok := rc.GetProbe(gens[slots[i]], key, r.t1, r.t2); ok {
				lists[i] = es
				continue
			}
		}
		if r.b, err = s.Locate(key); err != nil {
			return nil, err
		}
		located += r.b.Len()
		reads = append(reads, r)
	}
	read := func(j int) error {
		r := reads[j]
		slot := slots[r.target]
		start := spanStart(tr)
		es, err := r.b.Read(r.t1, r.t2)
		if tr != nil {
			tr.TraceEvent(TraceEvent{
				Kind: "probe.constituent", Start: start, Duration: time.Since(start),
				Key: key, From: r.t1, To: r.t2, Constituent: slot, Entries: len(es), TraceID: tid, Err: err,
			})
		}
		if err != nil {
			return err
		}
		rc.PutProbe(gens[slot], key, r.t1, r.t2, es)
		lists[r.target] = es
		return nil
	}
	if pooled && located > InlineProbeEntries {
		qm.Workers.Observe(workersFor(eng, len(reads)))
		err = eng.RunCtx(ctx, len(reads), read)
	} else {
		qm.Workers.Observe(1)
		for j := 0; j < len(reads) && err == nil; j++ {
			if err = ctx.Err(); err == nil {
				err = read(j)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return mergeEntryLists(lists), nil
}

// IndexProbe retrieves all entries for key across the whole wave,
// including any soft-window days older than the required window.
func (w *Wave) IndexProbe(key string) ([]index.Entry, error) {
	return w.TimedIndexProbe(key, minDay, maxDay)
}

// ParallelTimedIndexProbe is TimedIndexProbe with the per-constituent
// bucket reads issued concurrently on the wave's engine — the multi-disk
// parallelism the paper's §8 identifies as a wave-index advantage over
// monolithic indexes — whenever the located buckets are large enough to
// repay the hand-off (see InlineProbeEntries); a smaller probe runs on
// the caller's goroutine. Results are byte-identical to
// TimedIndexProbe's either way.
func (w *Wave) ParallelTimedIndexProbe(key string, t1, t2 int) ([]index.Entry, error) {
	return w.ParallelTimedIndexProbeCtx(context.Background(), key, t1, t2)
}

// ParallelTimedIndexProbeCtx is ParallelTimedIndexProbe with
// cancellation: once ctx is done no further constituent read starts,
// workers blocked on the pool stop waiting, and ctx's error is returned.
func (w *Wave) ParallelTimedIndexProbeCtx(ctx context.Context, key string, t1, t2 int) ([]index.Entry, error) {
	return w.probe(ctx, key, t1, t2, true)
}

// MultiProbe retrieves the entries of several search values at once,
// keyed by search value (keys without entries are absent). The key batch
// is deduplicated and sorted, each qualifying constituent answers the
// whole batch in one pass (amortising directory lookups and seeks; see
// index.ProbeMulti), constituents run concurrently on the wave's engine,
// and per-key results are merged like TimedIndexProbe's.
func (w *Wave) MultiProbe(keys []string, t1, t2 int) (map[string][]index.Entry, error) {
	return w.MultiProbeCtx(context.Background(), keys, t1, t2)
}

// MultiProbeCtx is MultiProbe with cancellation: once ctx is done no
// further constituent batch starts and ctx's error is returned.
func (w *Wave) MultiProbeCtx(ctx context.Context, keys []string, t1, t2 int) (map[string][]index.Entry, error) {
	uniq := append([]string(nil), keys...)
	sort.Strings(uniq)
	n := 0
	for i, k := range uniq {
		if i == 0 || uniq[n-1] != k {
			uniq[n] = k
			n++
		}
	}
	uniq = uniq[:n]

	cons, gens, eng, rc := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]index.Entry, len(uniq))
	if len(uniq) == 0 || len(targets) == 0 {
		return out, nil
	}
	qm.Constituents.Add(int64(len(targets)))
	qm.Workers.Observe(workersFor(eng, len(targets)))
	per := make([][][]index.Entry, len(targets))
	err = eng.RunCtx(ctx, len(targets), func(i int) error {
		ct1, ct2 := t1, t2
		gen := gens[slots[i]]
		r := make([][]index.Entry, len(uniq))
		// With a result cache, serve per-key hits from it and batch-probe
		// only the missing keys (a subsequence of uniq, so still sorted
		// and distinct as MultiSearcher requires).
		missing := uniq
		missIdx := make([]int, 0, len(uniq))
		if rc != nil {
			ct1, ct2 = clampRange(cons[slots[i]], t1, t2)
			missing = make([]string, 0, len(uniq))
			for j, k := range uniq {
				if es, ok := rc.GetProbe(gen, k, ct1, ct2); ok {
					r[j] = es
					continue
				}
				missing = append(missing, k)
				missIdx = append(missIdx, j)
			}
		} else {
			for j := range uniq {
				missIdx = append(missIdx, j)
			}
		}
		start := spanStart(tr)
		err := func() error {
			if len(missing) == 0 {
				return nil
			}
			if ms, ok := targets[i].(MultiSearcher); ok {
				res, err := ms.MultiProbe(missing, ct1, ct2)
				if err != nil {
					return err
				}
				for jj, es := range res {
					r[missIdx[jj]] = es
					rc.PutProbe(gen, missing[jj], ct1, ct2, es)
				}
				return nil
			}
			for jj, k := range missing {
				es, err := targets[i].Probe(k, ct1, ct2)
				if err != nil {
					return err
				}
				r[missIdx[jj]] = es
				rc.PutProbe(gen, k, ct1, ct2, es)
			}
			return nil
		}()
		if err == nil {
			per[i] = r
		}
		if tr != nil {
			tr.TraceEvent(TraceEvent{
				Kind: "mprobe.constituent", Start: start, Duration: time.Since(start),
				Keys: len(missing), From: ct1, To: ct2, Constituent: slots[i], TraceID: tid, Err: err,
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	lists := make([][]index.Entry, 0, len(targets))
	for j, k := range uniq {
		lists = lists[:0]
		for i := range targets {
			if es := per[i][j]; len(es) > 0 {
				lists = append(lists, es)
			}
		}
		if merged := mergeEntryLists(lists); len(merged) > 0 {
			out[k] = merged
		}
	}
	return out, nil
}

// TimedSegmentScan visits every entry inserted between day t1 and t2 in
// ascending key order across the whole wave — qualifying constituents
// scan concurrently on the wave's engine and their key-ordered streams
// are heap-merged, with entries of one key visited in wave slot order.
// fn runs on the caller's goroutine; returning false stops the scan.
func (w *Wave) TimedSegmentScan(t1, t2 int, fn func(key string, e index.Entry) bool) error {
	return w.TimedSegmentScanCtx(context.Background(), t1, t2, fn)
}

// TimedSegmentScanCtx is TimedSegmentScan with cancellation: once ctx is
// done the producers abort at their next callback, the merge stops, and
// ctx's error is returned. All producer goroutines are joined before
// returning, so no pool worker leaks.
func (w *Wave) TimedSegmentScanCtx(ctx context.Context, t1, t2 int, fn func(key string, e index.Entry) bool) error {
	cons, _, eng, _ := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return err
	}
	qm.Constituents.Add(int64(len(targets)))
	switch len(targets) {
	case 0:
		return ctx.Err()
	case 1:
		// One stream: the merge would reproduce the scan verbatim.
		qm.Workers.Observe(1)
		qm.MergeDepth.Observe(1)
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		stopped := false
		entries := 0
		err = targets[0].Scan(t1, t2, func(k string, e index.Entry) bool {
			entries++
			// Cancellation is polled every 1024 entries so an idle ctx
			// costs nothing on the per-entry hot path.
			if entries&1023 == 0 && ctx.Err() != nil {
				return false
			}
			if !fn(k, e) {
				stopped = true
				return false
			}
			return true
		})
		emit(tr, TraceEvent{
			Kind: "scan.constituent", Start: start, Duration: time.Since(start),
			From: t1, To: t2, Constituent: slots[0], Entries: entries, TraceID: tid, Err: err,
		})
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if stopped {
			qm.EarlyStops.Inc()
		}
		return err
	}
	qm.Workers.Observe(workersFor(eng, len(targets)))
	qm.MergeDepth.Observe(int64(len(targets)))
	done := make(chan struct{})
	streams := make([]*scanStream, len(targets))
	var wg sync.WaitGroup
	for i, s := range targets {
		st := &scanStream{ch: make(chan keyGroup, scanStreamBuf), slot: slots[i]}
		streams[i] = st
		wg.Add(1)
		go func(s Searcher, st *scanStream) {
			defer wg.Done()
			produceScan(ctx, eng, s, t1, t2, st, done, tr)
		}(s, st)
	}
	stopped := consumeScanStreams(ctx, streams, fn)
	close(done)
	for _, st := range streams {
		for range st.ch {
		}
	}
	wg.Wait()
	if stopped {
		qm.EarlyStops.Inc()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, st := range streams {
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// SegmentScan visits every entry in the wave (soft-window extras
// included).
func (w *Wave) SegmentScan(fn func(key string, e index.Entry) bool) error {
	return w.TimedSegmentScan(minDay, maxDay, fn)
}

const (
	minDay = -1 << 30
	maxDay = 1 << 30
)

// AggKind selects what Wave.AggregateCtx folds over the qualifying
// entries.
type AggKind uint8

// The aggregate kinds. Every kind counts entries; the latter two also
// group them.
const (
	AggCount AggKind = iota + 1 // entry count only
	AggDays                     // entries per insertion day
	AggKeys                     // entries per search value
)

// Agg is an aggregate over a day range: N entries, grouped into Days or
// Keys when the kind asks for it (the other map stays nil).
type Agg struct {
	N    int
	Days map[int]int
	Keys map[string]int
}

// newAgg returns an empty aggregate of the given kind, its Keys map
// sized for keys search values.
func newAgg(kind AggKind, keys int) Agg {
	switch kind {
	case AggDays:
		return Agg{Days: make(map[int]int)}
	case AggKeys:
		return Agg{Keys: make(map[string]int, keys)}
	}
	return Agg{}
}

// add folds b into a.
func (a *Agg) add(b Agg) {
	a.N += b.N
	for d, v := range b.Days {
		a.Days[d] += v
	}
	for k, v := range b.Keys {
		a.Keys[k] += v
	}
}

// AggregateCtx folds the entries inserted in [t1, t2] into one Agg:
// every qualifying constituent is scanned once, each into its own
// partial, and the partials are summed. With a result cache installed
// the partials are memoized per constituent generation, so a repeated
// aggregate re-scans only what a transition rebuilt; without one the
// same fold runs and nothing is kept. Like probe, it works in two
// phases: the result-cache look-ups (under the generation-stable clamped
// range) run on the caller's goroutine, and only the constituents that
// missed are scanned on the wave's engine — a fully cached aggregate
// starts no goroutine. Uncached folds keep the caller's range verbatim.
// The returned maps are freshly allocated.
func (w *Wave) AggregateCtx(ctx context.Context, kind AggKind, t1, t2 int) (Agg, error) {
	cons, gens, eng, rc := w.beginQuery()
	defer w.endQuery()
	qm, tr := w.instrumentation()
	tid := TraceIDFrom(ctx)
	targets, slots, err := searchTargets(cons, t1, t2)
	if err != nil {
		return Agg{}, err
	}
	qm.Constituents.Add(int64(len(targets)))
	per := make([]Agg, len(targets))
	folds := make([]aggFold, 0, len(targets))
	for i := range targets {
		if err := ctx.Err(); err != nil {
			return Agg{}, err
		}
		f := aggFold{target: i, t1: t1, t2: t2}
		if rc != nil {
			f.t1, f.t2 = clampRange(cons[slots[i]], t1, t2)
			if a, ok := rc.GetAgg(gens[slots[i]], kind, f.t1, f.t2); ok {
				per[i] = a
				continue
			}
		}
		folds = append(folds, f)
	}
	qm.Workers.Observe(max(1, workersFor(eng, len(folds))))
	err = eng.RunCtx(ctx, len(folds), func(j int) error {
		f := folds[j]
		slot := slots[f.target]
		a, err := aggOne(ctx, targets[f.target], kind, f.t1, f.t2, slot, tr, tid)
		if err != nil {
			return err
		}
		rc.PutAgg(gens[slot], kind, f.t1, f.t2, a)
		per[f.target] = a
		return nil
	})
	if err != nil {
		return Agg{}, err
	}
	keys := 0
	for _, p := range per {
		keys = max(keys, len(p.Keys))
	}
	out := newAgg(kind, keys)
	for _, p := range per {
		out.add(p)
	}
	return out, nil
}

// aggFold is one constituent's share of an aggregate that the result
// cache could not answer: the target to scan and the range to scan it
// over.
type aggFold struct {
	target int // index into the query's targets
	t1, t2 int
}

// aggOne folds one constituent's entries in [t1, t2] into a fresh
// partial. A partial that ends up in the result cache is shared from
// then on and must be treated as read-only.
func aggOne(ctx context.Context, s Searcher, kind AggKind, t1, t2, slot int, tr Tracer, tid string) (Agg, error) {
	a := newAgg(kind, s.NumKeys())
	start := spanStart(tr)
	// Scan delivers a key's entries consecutively, so AggKeys counts the
	// run and touches the map once per key, not once per entry.
	var runKey string
	run := 0
	err := s.Scan(t1, t2, func(k string, e index.Entry) bool {
		a.N++
		// Cancellation is polled every 1024 entries so an idle ctx costs
		// nothing on the per-entry hot path.
		if a.N&1023 == 0 && ctx.Err() != nil {
			return false
		}
		switch kind {
		case AggDays:
			a.Days[int(e.Day)]++
		case AggKeys:
			if k != runKey {
				if run > 0 {
					a.Keys[runKey] += run
				}
				runKey, run = k, 0
			}
			run++
		}
		return true
	})
	if run > 0 {
		a.Keys[runKey] += run
	}
	if err == nil {
		err = ctx.Err()
	}
	if tr != nil {
		tr.TraceEvent(TraceEvent{
			Kind: "scan.constituent", Start: start, Duration: time.Since(start),
			From: t1, To: t2, Constituent: slot, Entries: a.N, TraceID: tid, Err: err,
		})
	}
	if err != nil {
		return Agg{}, err
	}
	return a, nil
}

// AggKeyCountsCtx is AggregateCtx(AggKeys) in the shape perf/'s core
// rung calls; ok is always true now that the fold runs with or without a
// result cache.
func (w *Wave) AggKeyCountsCtx(ctx context.Context, t1, t2 int) (map[string]int, bool, error) {
	a, err := w.AggregateCtx(ctx, AggKeys, t1, t2)
	return a.Keys, true, err
}

// sortEntries orders probe results by (day, record) so results are
// deterministic regardless of how days are clustered across constituents.
func sortEntries(es []index.Entry) { index.SortEntries(es) }
