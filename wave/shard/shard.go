// Package shard scales a wave index out horizontally: a Router
// hash-partitions the key space across N independent wave.Index (or
// wave.Journaled) shards and exposes the exact same query surface as a
// single index — it implements the wave.Querier kernel and embeds the
// same derived queries, so callers cannot tell a sharded deployment
// from an unsharded one by results alone.
//
// # Partitioning contract
//
// Every posting key is owned by exactly one shard: shard(key) =
// Hash(key) mod N. The default hash is FNV-1a (64-bit), which is stable
// across processes and platforms, so a journal written by one process
// routes identically in the next — changing N or Hash on an existing
// deployment redistributes keys and invalidates durable state. Because
// key sets are disjoint across shards:
//
//   - ProbeRange (and Probe, SumAux over it) touches only the owning
//     shard;
//   - MultiProbeRange fans the batch out to the owning shards
//     concurrently and merges the disjoint result maps;
//   - ScanRange runs all shards concurrently and k-way merges their
//     key-ascending streams, yielding the exact entry order a single
//     index would — sharded render output is byte-identical;
//   - Aggregate sums the shards' counts and concatenates their per-key
//     partials, so every aggregate derived from it (TopKeys,
//     DistinctKeys, Histogram, ...) is exact: each shard's counts are
//     global for the keys it owns.
//
// # Maintenance
//
// AddDay partitions the day's batch and runs all N wave transitions
// concurrently — the window rolls forward in the wall-clock time of the
// busiest shard rather than the sum. Shards move in lockstep: a day is
// applied to every shard (including shards with no postings that day,
// which transition on an empty batch). If some shards fail a day while
// others apply it, AddDay reports the failure and the router refuses
// further days until Recover; retrying the same day after recovery is
// idempotent — shards that already applied it skip, the rest catch up.
//
// # Failure isolation
//
// Each shard owns its journal and recovers independently. A broken
// shard degrades only its keys: the router keeps answering queries from
// the surviving shards (Degraded reports true), and Recover rebuilds
// just the shards that need it.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/metrics"
	"waveindex/internal/simdisk"
	"waveindex/wave"
)

// Config configures a Router.
type Config struct {
	// Shards is N, the number of independent wave indexes. Required
	// (>= 1; 1 is a valid degenerate router, useful for equivalence
	// testing).
	Shards int
	// Base configures each shard's index. Every shard gets an identical
	// copy, except: StorePath (when set) is suffixed ".shard<i>", and
	// Trace is wrapped so each shard's spans carry TraceEvent.Shard =
	// i+1.
	Base wave.Config
	// Hash maps a key to its owning shard (mod Shards). Nil means the
	// default 64-bit FNV-1a, which is stable across processes. A custom
	// hash must be deterministic and stable for the lifetime of any
	// durable state.
	Hash func(key string) uint64
	// Breaker configures per-shard query circuit breakers (see
	// BreakerConfig). The zero value disables them: every shard failure
	// fails the whole query, as before.
	Breaker BreakerConfig
	// OnBreakerChange, when set, is called after a shard's breaker
	// changes state (0-based shard, old and new position). Calls are
	// made outside breaker locks and may arrive concurrently from
	// different shards; implementations must be safe for concurrent
	// use and must not call back into the router.
	OnBreakerChange func(shard int, from, to BreakerState)
}

// Router hash-partitions a wave index across N shards. It implements
// wave.Backend — the query kernel plus the ingestion, health, and
// observability surface of a single index — so servers can treat it
// interchangeably with one.
// All methods are safe for concurrent use; mutating methods serialise
// among themselves.
type Router struct {
	wave.Queries // every derived query, over the router's own kernel

	cfg    Config
	hash   func(string) uint64
	shards []wave.Backend
	jr     []*wave.Journaled // non-nil (per entry) when journaled
	brk    []*breaker        // non-nil when Config.Breaker is enabled

	mu     sync.Mutex // serialises AddDay/Recover/Close among themselves
	closed bool
}

var _ wave.Backend = (*Router)(nil)

// fnv1a is the default shard hash: 64-bit FNV-1a over the key's bytes.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c Config) normalized() (Config, error) {
	if c.Shards < 1 {
		return c, fmt.Errorf("%w: Shards = %d, must be >= 1", wave.ErrBadConfig, c.Shards)
	}
	if c.Hash == nil {
		c.Hash = fnv1a
	}
	return c, nil
}

// shardBase derives shard i's index config from Base.
func (c Config) shardBase(i int) wave.Config {
	base := c.Base
	if base.StorePath != "" {
		base.StorePath = fmt.Sprintf("%s.shard%d", base.StorePath, i)
	}
	if base.Trace != nil {
		base.Trace = shardTracer{t: base.Trace, shard: i + 1}
	}
	return base
}

// shardTracer stamps every span a shard emits with its 1-based shard
// number, so merged trace output keeps per-shard lanes apart.
type shardTracer struct {
	t     core.Tracer
	shard int
}

func (s shardTracer) TraceEvent(ev core.TraceEvent) {
	ev.Shard = s.shard
	s.t.TraceEvent(ev)
}

// New creates a router over Shards plain (unjournaled) indexes.
func New(cfg Config) (*Router, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, hash: cfg.Hash}
	r.Queries = wave.Over(r)
	for i := 0; i < cfg.Shards; i++ {
		x, err := wave.New(cfg.shardBase(i))
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, x)
	}
	r.initBreakers()
	return r, nil
}

// NewJournaled creates a router whose shards are journaled indexes, one
// per storage (len(storages) must equal cfg.Shards). Each shard journals
// and recovers independently; storages holding a checkpoint are
// recovered on open, exactly like wave.OpenJournaled.
func NewJournaled(cfg Config, storages []*wave.JournalStorage, opts wave.JournalOptions) (*Router, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if len(storages) != cfg.Shards {
		return nil, fmt.Errorf("%w: %d journal storages for %d shards", wave.ErrBadConfig, len(storages), cfg.Shards)
	}
	r := &Router{cfg: cfg, hash: cfg.Hash, jr: make([]*wave.Journaled, cfg.Shards)}
	r.Queries = wave.Over(r)
	for i := 0; i < cfg.Shards; i++ {
		j, err := wave.OpenJournaled(cfg.shardBase(i), storages[i], opts)
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.jr[i] = j
		r.shards = append(r.shards, j)
	}
	r.initBreakers()
	return r, nil
}

// initBreakers arms one breaker per shard when the config enables them.
func (r *Router) initBreakers() {
	if !r.cfg.Breaker.enabled() {
		return
	}
	r.brk = make([]*breaker, len(r.shards))
	for i := range r.brk {
		r.brk[i] = newBreaker(r.cfg.Breaker)
		if change := r.cfg.OnBreakerChange; change != nil {
			shard := i
			r.brk[i].notify = func(from, to BreakerState) { change(shard, from, to) }
		}
	}
}

// OpenJournalDir is NewJournaled with directory-backed storages rooted
// at dir: shard i journals under dir/shard-<i>.
func OpenJournalDir(cfg Config, dir string, opts wave.JournalOptions) (*Router, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	storages := make([]*wave.JournalStorage, cfg.Shards)
	for i := range storages {
		st, err := wave.OpenJournalDir(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			for _, s := range storages[:i] {
				s.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		storages[i] = st
	}
	return NewJournaled(cfg, storages, opts)
}

func (r *Router) closeShards() {
	for _, s := range r.shards {
		s.Close()
	}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// ShardFor returns the shard owning key.
func (r *Router) ShardFor(key string) int {
	return int(r.hash(key) % uint64(len(r.shards)))
}

// Journaled reports whether the router's shards are journaled.
func (r *Router) Journaled() bool { return r.jr != nil }

// JournaledShard returns shard i's journaled index, or nil when the
// router is not journaled. It exists for fault-injection harnesses,
// which reach through it (JournaledShard(i).Index().Stores()) to arm a
// single shard's simdisk fault plans; production callers should stay on
// the Router surface.
func (r *Router) JournaledShard(i int) *wave.Journaled {
	if r.jr == nil {
		return nil
	}
	return r.jr[i]
}

// partition splits a batch by owning shard, preserving input order
// within each part.
func (r *Router) partition(postings []wave.Posting) [][]wave.Posting {
	parts := make([][]wave.Posting, len(r.shards))
	for _, p := range postings {
		i := r.ShardFor(p.Key)
		parts[i] = append(parts[i], p)
	}
	return parts
}

// fan runs f for every shard concurrently and joins the failures, each
// labelled with its shard number. The last shard's call runs on the
// caller's goroutine, which would otherwise only wait: a fleet of n
// shards costs n-1 hand-offs, and what a small fan-out (a cached COUNT)
// takes no longer depends on which thread picks the last goroutine up.
func (r *Router) fan(f func(i int, s wave.Backend) error) error {
	errs := make([]error, len(r.shards))
	call := func(i int, s wave.Backend) {
		if err := f(i, s); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	var wg sync.WaitGroup
	last := len(r.shards) - 1
	for i, s := range r.shards[:last] {
		wg.Add(1)
		go func(i int, s wave.Backend) {
			defer wg.Done()
			call(i, s)
		}(i, s)
	}
	call(last, r.shards[last])
	wg.Wait()
	return errors.Join(errs...)
}

// nextDays returns each shard's next expected day. Window's upper bound
// is always nextDay-1, before and after readiness, so this needs no
// extra API from the index.
func (r *Router) nextDays() []int {
	next := make([]int, len(r.shards))
	for i, s := range r.shards {
		_, to := s.Window()
		next[i] = to + 1
	}
	return next
}

// AddDay partitions one day's postings by key owner and runs every
// shard's wave transition concurrently — shards with no postings that
// day still transition on an empty batch, keeping the fleet in
// lockstep. Days must arrive consecutively, as with a single index.
//
// If some shards fail while others apply the day, AddDay returns the
// joined failures and the router refuses further days until Recover.
// After recovery, retrying the same day (with the same postings) is
// safe and idempotent: shards that already applied it skip, the shards
// that rolled back catch up.
func (r *Router) AddDay(day int, postings []wave.Posting) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return wave.ErrClosed
	}
	for _, s := range r.shards {
		if s.NeedsRecovery() {
			return wave.ErrNeedsRecovery
		}
	}
	next := r.nextDays()
	// The lagging shard decides which day must come next; shards ahead
	// of it already applied that day on a partially-failed attempt.
	want := next[0]
	for _, n := range next[1:] {
		if n < want {
			want = n
		}
	}
	if day != want {
		return fmt.Errorf("%w: got day %d, want %d", wave.ErrBadDay, day, want)
	}
	parts := r.partition(postings)
	return r.fan(func(i int, s wave.Backend) error {
		if next[i] > day {
			return nil // already applied; idempotent retry
		}
		return s.AddDay(day, parts[i])
	})
}

// AddDayAsync partitions one day's postings and enqueues them on every
// shard's ingestion pipeline; the shards run their transitions
// concurrently in the background. Semantics follow Index.AddDayAsync:
// failures surface on Flush, and the bounded per-shard queues block the
// caller when maintenance falls behind.
func (r *Router) AddDayAsync(day int, postings []wave.Posting) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return wave.ErrClosed
	}
	parts := r.partition(postings)
	for i, s := range r.shards {
		if err := s.AddDayAsync(day, parts[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Flush drains every shard's ingestion pipeline and joins the first
// failure of each — sticky, like Index.Flush.
func (r *Router) Flush() error {
	return r.fan(func(i int, s wave.Backend) error { return s.Flush() })
}

// IngestQueueDepth returns the deepest shard pipeline's queue depth.
func (r *Router) IngestQueueDepth() int {
	depth := 0
	for _, s := range r.shards {
		if d := s.IngestQueueDepth(); d > depth {
			depth = d
		}
	}
	return depth
}

// NeedsRecovery reports whether any shard refuses mutation until
// recovered.
func (r *Router) NeedsRecovery() bool {
	for _, s := range r.shards {
		if s.NeedsRecovery() {
			return true
		}
	}
	return false
}

// Degraded reports whether any shard is serving from a subset of its
// wave. The other shards keep answering for their keys regardless —
// degradation is per-shard, not fleet-wide.
func (r *Router) Degraded() bool {
	for _, s := range r.shards {
		if s.Degraded() {
			return true
		}
	}
	return false
}

// Ready reports whether every shard has ingested Window days.
func (r *Router) Ready() bool {
	for _, s := range r.shards {
		if !s.Ready() {
			return false
		}
	}
	return true
}

// HardWindow reports whether the configured scheme indexes exactly the
// window (identical across shards).
func (r *Router) HardWindow() bool { return r.shards[0].HardWindow() }

// Window returns the intersection of the shards' windows. In normal
// operation the shards are in lockstep and this is every shard's
// window; after a partial AddDay failure it is the range every shard
// can still answer.
func (r *Router) Window() (from, to int) {
	from, to = r.shards[0].Window()
	for _, s := range r.shards[1:] {
		f, t := s.Window()
		if f > from {
			from = f
		}
		if t < to {
			to = t
		}
	}
	return from, to
}

// Recover runs journal recovery on the shards that need it (all shards
// when none are marked, for an explicit full rebuild) and returns the
// merged report: the earliest checkpoint day, the union of replayed and
// uncommitted days, and whether any shard found a torn journal tail.
// Shards recover concurrently, each from its own checkpoint + journal.
func (r *Router) Recover() (*wave.RecoveryReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, wave.ErrClosed
	}
	if r.jr == nil {
		return nil, errors.New("shard: router is not journaled")
	}
	targets := make([]bool, len(r.shards))
	any := false
	for i, s := range r.shards {
		if s.NeedsRecovery() {
			targets[i], any = true, true
		}
	}
	reports := make([]*wave.RecoveryReport, len(r.shards))
	err := r.fan(func(i int, s wave.Backend) error {
		if any && !targets[i] {
			return nil
		}
		rep, err := r.jr[i].Recover()
		reports[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	// Recovery rebuilt the targeted shards from checkpoint + journal;
	// their breakers have nothing left to guard against, so close them
	// outright rather than waiting out a cooldown + probe.
	if r.brk != nil {
		for i := range r.shards {
			if !any || targets[i] {
				r.brk[i].reset()
			}
		}
	}
	return mergeReports(reports), nil
}

// mergeReports folds per-shard recovery reports into one fleet view.
// reports is indexed by shard, so ShardsReplayed carries the true shard
// indices (overriding each per-shard report's local []int{0}).
func mergeReports(reports []*wave.RecoveryReport) *wave.RecoveryReport {
	out := &wave.RecoveryReport{CheckpointDay: -1}
	replayed := map[int]bool{}
	uncommitted := map[int]bool{}
	for i, rep := range reports {
		if rep == nil {
			continue
		}
		if out.CheckpointDay == -1 || rep.CheckpointDay < out.CheckpointDay {
			out.CheckpointDay = rep.CheckpointDay
		}
		out.TornTail = out.TornTail || rep.TornTail
		if len(rep.ReplayedDays) > 0 {
			out.ShardsReplayed = append(out.ShardsReplayed, i)
		}
		for _, d := range rep.ReplayedDays {
			replayed[d] = true
		}
		for _, d := range rep.Uncommitted {
			uncommitted[d] = true
		}
	}
	out.ReplayedDays = sortedDays(replayed)
	out.Uncommitted = sortedDays(uncommitted)
	return out
}

func sortedDays(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	for i := 1; i < len(out); i++ { // insertion sort; day sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Stats aggregates the shards' resource usage: storage is summed,
// constituents and per-store snapshots are concatenated in shard order,
// and the window is the fleet window. DaysIndexed reports the deepest
// shard (every shard indexes the same days in lockstep).
func (r *Router) Stats() wave.Stats {
	per := r.ShardStats()
	out := per[0]
	out.WindowFrom, out.WindowTo = r.Window()
	out.Constituents = append([]wave.ConstituentStats(nil), per[0].Constituents...)
	out.PerStore = append([]simdisk.Stats(nil), per[0].PerStore...)
	for _, st := range per[1:] {
		out.ConstituentBytes += st.ConstituentBytes
		out.TempBytes += st.TempBytes
		if st.DaysIndexed > out.DaysIndexed {
			out.DaysIndexed = st.DaysIndexed
		}
		out.Constituents = append(out.Constituents, st.Constituents...)
		out.PerStore = append(out.PerStore, st.PerStore...)
	}
	out.Store = simdisk.SumStats(out.PerStore...)
	return out
}

// ShardStats returns each shard's own Stats snapshot, in shard order.
func (r *Router) ShardStats() []wave.Stats {
	out := make([]wave.Stats, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Stats()
	}
	return out
}

// Metrics returns the fleet rollup: every shard's registry merged as if
// all observations had landed in one (counters and gauges summed,
// histograms merged bucket-wise). Per-shard snapshots are available
// from ShardMetrics.
func (r *Router) Metrics() wave.MetricsSnapshot {
	return metrics.Merge(r.ShardMetrics()...)
}

// ShardMetrics returns each shard's metrics snapshot, in shard order.
func (r *Router) ShardMetrics() []wave.MetricsSnapshot {
	out := make([]wave.MetricsSnapshot, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Metrics()
	}
	return out
}

// SlowQueries returns the shards' slow-query logs merged into one
// fleet log, most recent first, with each entry's Shard set to the
// 0-based shard it came from. The per-shard logs arrive newest-first,
// so the merge interleaves them by start time the way a single
// fleet-wide ring would have recorded them — the sharded tier presents
// the same slowlog surface as one index.
func (r *Router) SlowQueries() []wave.SlowQuery {
	logs := make([][]wave.SlowQuery, len(r.shards))
	total := 0
	for i, s := range r.shards {
		logs[i] = s.SlowQueries()
		for j := range logs[i] {
			logs[i][j].Shard = i
		}
		total += len(logs[i])
	}
	// K-way merge of newest-first runs: repeatedly take the newest head.
	out := make([]wave.SlowQuery, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range logs {
			if len(l) == 0 {
				continue
			}
			if best < 0 || l[0].Start.After(logs[best][0].Start) {
				best = i
			}
		}
		out = append(out, logs[best][0])
		logs[best] = logs[best][1:]
	}
	return out
}

// SetSlowQueryThreshold sets every shard's slow-query threshold.
func (r *Router) SetSlowQueryThreshold(d time.Duration) {
	for _, s := range r.shards {
		s.SetSlowQueryThreshold(d)
	}
}

// Work returns the fleet's per-cause disk-work ledger: every shard's
// ledger summed, in stable cause order.
func (r *Router) Work() []wave.CauseStats {
	ledgers := make([][]simdisk.CauseStats, len(r.shards))
	for i, s := range r.shards {
		ledgers[i] = s.Work()
	}
	return simdisk.SumWork(ledgers...)
}

// ShardWork returns each shard's per-cause disk-work ledger, in shard
// order.
func (r *Router) ShardWork() [][]wave.CauseStats {
	out := make([][]wave.CauseStats, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Work()
	}
	return out
}

// CacheInfo returns the fleet's caching-tier snapshot: both levels'
// counters summed across shards, with Generations concatenated in shard
// order. Recover rebuilds the targeted shards from checkpoint + journal,
// so their caches restart cold while the surviving shards keep theirs —
// cache retention, like degradation, is per-shard. Per-shard snapshots
// are available from ShardCacheInfo.
func (r *Router) CacheInfo() wave.CacheInfo {
	var out wave.CacheInfo
	for _, ci := range r.ShardCacheInfo() {
		out.BlocksEnabled = out.BlocksEnabled || ci.BlocksEnabled
		out.Blocks.Hits += ci.Blocks.Hits
		out.Blocks.Misses += ci.Blocks.Misses
		out.Blocks.Evictions += ci.Blocks.Evictions
		out.Blocks.Resident += ci.Blocks.Resident
		out.Blocks.SavedSeeks += ci.Blocks.SavedSeeks
		out.Blocks.SavedSimTime += ci.Blocks.SavedSimTime
		out.ResultsEnabled = out.ResultsEnabled || ci.ResultsEnabled
		out.Results.Hits += ci.Results.Hits
		out.Results.Misses += ci.Results.Misses
		out.Results.Evictions += ci.Results.Evictions
		out.Results.Invalidated += ci.Results.Invalidated
		out.Results.Entries += ci.Results.Entries
		out.Results.CostUsed += ci.Results.CostUsed
		out.Results.CostCap += ci.Results.CostCap
		out.Generations = append(out.Generations, ci.Generations...)
	}
	return out
}

// ShardCacheInfo returns each shard's caching-tier snapshot, in shard
// order.
func (r *Router) ShardCacheInfo() []wave.CacheInfo {
	out := make([]wave.CacheInfo, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.CacheInfo()
	}
	return out
}

// Close closes every shard and releases their storage. Days still
// queued by AddDayAsync are drained first, per Index.Close.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return wave.ErrClosed
	}
	r.closed = true
	return r.fan(func(i int, s wave.Backend) error { return s.Close() })
}
