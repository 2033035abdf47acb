package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"waveindex/internal/core"
	"waveindex/internal/simdisk"
	"waveindex/wave"
)

// workload builds day d's postings: a few hot keys appearing every day
// plus per-day singletons, with varying aux values so aggregate renders
// exercise real sums.
func workload(d int) []wave.Posting {
	keys := []string{"hotA", "hotB", "hotC",
		fmt.Sprintf("day%da", d), fmt.Sprintf("day%db", d)}
	if d%2 == 0 {
		keys = append(keys, "evens", fmt.Sprintf("day%dc", d))
	}
	var ps []wave.Posting
	for i, k := range keys {
		ps = append(ps, wave.Posting{Key: k, Entry: wave.Entry{
			RecordID: uint64(d*1000 + i),
			Aux:      uint32(d*10 + i),
			Day:      int32(d),
		}})
	}
	return ps
}

// Keys boundWorkload sizes against core.InlineProbeEntries; absent from
// the plain workload.
const (
	boundAt   = "bound-at"   // exactly the constant over any W days
	boundOver = "bound-over" // one entry more
)

// boundWorkload is workload(d) plus the two bound keys. A day's share of
// a key depends only on d mod W, so any W consecutive days hold exactly
// core.InlineProbeEntries entries of boundAt and one more of boundOver:
// on a hard-window scheme the first is the largest probe still read on
// the caller's goroutine and the second the smallest read on the pool.
func boundWorkload(d, W int) []wave.Posting {
	ps := workload(d)
	for i, key := range []string{boundAt, boundOver} {
		total := core.InlineProbeEntries + i
		n := total / W
		if d%W < total%W {
			n++
		}
		for j := 0; j < n; j++ {
			ps = append(ps, wave.Posting{Key: key, Entry: wave.Entry{
				RecordID: uint64(d*100000 + j), Aux: uint32(j % 7), Day: int32(d),
			}})
		}
	}
	return ps
}

// probeKeys is the fixed batch every render probes: hot keys, a few
// day-local keys, the bound keys, and keys that never exist.
func probeKeys(from, to int) []string {
	keys := []string{"hotA", "hotB", "hotC", "evens", boundAt, boundOver, "missing", "alsomissing"}
	for d := from; d <= to; d++ {
		keys = append(keys, fmt.Sprintf("day%da", d), fmt.Sprintf("day%db", d))
	}
	return keys
}

// scanAggregates is the scan-derived reference the aggregate fold is held
// to: the count, per-day histogram, k most frequent keys, and distinct-key
// count of [from, to], computed from the kernel's ScanRange alone.
func scanAggregates(t *testing.T, k wave.Querier, topK, from, to int) (n int, hist []int, top []wave.KeyCount, distinct int) {
	t.Helper()
	hist = make([]int, to-from+1)
	perKey := map[string]int{}
	if err := k.ScanRange(context.Background(), from, to, func(key string, e wave.Entry) bool {
		n++
		hist[int(e.Day)-from]++
		perKey[key]++
		return true
	}); err != nil {
		t.Fatalf("reference ScanRange: %v", err)
	}
	for key, c := range perKey {
		top = append(top, wave.KeyCount{Key: key, Count: c})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Count != top[j].Count {
			return top[i].Count > top[j].Count
		}
		return top[i].Key < top[j].Key
	})
	if len(top) > topK {
		top = top[:topK]
	}
	return n, hist, top, len(perKey)
}

// render exercises every query kind — the kernel k's own methods and
// every query derived from it — and serialises the results into one
// deterministic string. Two Queriers over the same data must render
// byte-identically — the equivalence contract of the shard router. On
// the way it holds the fold-derived aggregates to the scan-derived
// reference.
func render(t *testing.T, k wave.Querier) string {
	t.Helper()
	ctx := context.Background()
	q := struct {
		wave.Querier
		wave.Queries
	}{k, wave.Over(k)}
	var b strings.Builder
	from, to := q.Window()
	fmt.Fprintf(&b, "window %d..%d ready=%v\n", from, to, q.Ready())

	if err := q.Scan(ctx, func(key string, e wave.Entry) bool {
		fmt.Fprintf(&b, "scan %s %d %d %d\n", key, e.RecordID, e.Aux, e.Day)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	mid := (from + to) / 2
	if err := q.ScanRange(ctx, from, mid, func(key string, e wave.Entry) bool {
		fmt.Fprintf(&b, "scanrange %s %d %d %d\n", key, e.RecordID, e.Aux, e.Day)
		return true
	}); err != nil {
		t.Fatalf("ScanRange: %v", err)
	}

	keys := probeKeys(from, to)
	for _, k := range keys {
		es, err := q.Probe(ctx, k)
		if err != nil {
			t.Fatalf("Probe(%q): %v", k, err)
		}
		fmt.Fprintf(&b, "probe %s %d:", k, len(es))
		for _, e := range es {
			fmt.Fprintf(&b, " %d/%d/%d", e.RecordID, e.Aux, e.Day)
		}
		fmt.Fprintln(&b)
		es, err = q.ProbeRange(ctx, k, mid, to)
		if err != nil {
			t.Fatalf("ProbeRange(%q): %v", k, err)
		}
		fmt.Fprintf(&b, "proberange %s %d:", k, len(es))
		for _, e := range es {
			fmt.Fprintf(&b, " %d/%d/%d", e.RecordID, e.Aux, e.Day)
		}
		fmt.Fprintln(&b)
	}

	m, err := q.MultiProbeRange(ctx, keys, from, to)
	if err != nil {
		t.Fatalf("MultiProbeRange: %v", err)
	}
	var mkeys []string
	for k := range m {
		mkeys = append(mkeys, k)
	}
	sort.Strings(mkeys)
	for _, k := range mkeys {
		fmt.Fprintf(&b, "mprobe %s %d:", k, len(m[k]))
		for _, e := range m[k] {
			fmt.Fprintf(&b, " %d/%d/%d", e.RecordID, e.Aux, e.Day)
		}
		fmt.Fprintln(&b)
	}

	n, err := q.Count(ctx)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	fmt.Fprintf(&b, "count %d\n", n)
	n, err = q.CountRange(ctx, mid, to)
	if err != nil {
		t.Fatalf("CountRange: %v", err)
	}
	fmt.Fprintf(&b, "countrange %d\n", n)
	sum, err := q.SumAux(ctx, "hotB", from, to)
	if err != nil {
		t.Fatalf("SumAux: %v", err)
	}
	fmt.Fprintf(&b, "sumaux %d\n", sum)
	top, err := q.TopKeys(ctx, 5, from, to)
	if err != nil {
		t.Fatalf("TopKeys: %v", err)
	}
	for _, kc := range top {
		fmt.Fprintf(&b, "top %s %d\n", kc.Key, kc.Count)
	}
	counts, err := q.CountKeys(ctx, keys, from, to)
	if err != nil {
		t.Fatalf("CountKeys: %v", err)
	}
	sums, err := q.SumAuxKeys(ctx, keys, from, to)
	if err != nil {
		t.Fatalf("SumAuxKeys: %v", err)
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "agg %s %d %d\n", k, counts[k], sums[k])
	}
	hist, err := q.Histogram(ctx, from, to)
	if err != nil {
		t.Fatalf("Histogram: %v", err)
	}
	fmt.Fprintf(&b, "hist %v\n", hist)
	dk, err := q.DistinctKeys(ctx, from, to)
	if err != nil {
		t.Fatalf("DistinctKeys: %v", err)
	}
	fmt.Fprintf(&b, "distinct %d\n", dk)

	n, err = q.CountRange(ctx, from, to)
	if err != nil {
		t.Fatalf("CountRange: %v", err)
	}
	refN, refHist, refTop, refDistinct := scanAggregates(t, k, 5, from, to)
	if got, want := fmt.Sprint(n, hist, top, dk), fmt.Sprint(refN, refHist, refTop, refDistinct); got != want {
		t.Fatalf("fold-derived aggregates over [%d, %d] diverge from the scan-derived reference:\n got %s\nwant %s", from, to, got, want)
	}
	return b.String()
}

var allTechniques = []wave.UpdateTechnique{wave.InPlace, wave.SimpleShadow, wave.PackedShadow}

// TestShardedEquivalence is the acceptance suite: for every maintenance
// scheme × update technique × shard count, a router — with the result
// cache off and on — must render every query kind byte-identically to a
// single unsharded index fed the same days, both mid-window and after
// the window has rolled several times.
func TestShardedEquivalence(t *testing.T) {
	const W, N, days = 6, 3, 12
	for _, kind := range core.Kinds {
		for _, tech := range allTechniques {
			for _, shards := range []int{1, 3, 8} {
				kind, tech, shards := kind, tech, shards
				t.Run(fmt.Sprintf("%s/%s/shards=%d", kind, tech, shards), func(t *testing.T) {
					t.Parallel()
					cfg := wave.Config{Window: W, Indexes: N, Scheme: kind, Update: tech}
					single, err := wave.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer single.Close()
					r, err := New(Config{Shards: shards, Base: cfg})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					cfg.CacheResults = 1 << 16
					cached, err := New(Config{Shards: shards, Base: cfg})
					if err != nil {
						t.Fatal(err)
					}
					defer cached.Close()
					for d := 1; d <= days; d++ {
						ps := workload(d)
						if err := single.AddDay(d, ps); err != nil {
							t.Fatalf("single AddDay(%d): %v", d, err)
						}
						if err := r.AddDay(d, ps); err != nil {
							t.Fatalf("sharded AddDay(%d): %v", d, err)
						}
						if err := cached.AddDay(d, ps); err != nil {
							t.Fatalf("cached sharded AddDay(%d): %v", d, err)
						}
						if d == W || d == days {
							want := render(t, single)
							// The cached router renders twice: cold, then warm
							// from the memoized partials.
							for _, c := range []struct {
								name string
								q    wave.Querier
							}{{"sharded", r}, {"cached sharded, cold", cached}, {"cached sharded, warm", cached}} {
								if got := render(t, c.q); want != got {
									t.Fatalf("day %d: %s render diverges from single index\nsingle:\n%s\n%s:\n%s", d, c.name, want, c.name, got)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestShardedEquivalenceAcrossInlineBound takes the acceptance suite to
// where a probe changes execution: the same keys, sized just at and just
// above core.InlineProbeEntries, rendered by fleets at query parallelism
// 1 and 4 with the result cache off, cold and warm. Where the bucket
// reads run is invisible: every answer is byte-identical to an unsharded
// sequential index's, and after each round of probes the parallelism-1
// and parallelism-4 fleets have charged the identical Work() ledger.
func TestShardedEquivalenceAcrossInlineBound(t *testing.T) {
	const W, N, days, shards = 6, 3, 9, 3
	for _, kind := range core.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := wave.Config{Window: W, Indexes: N, Scheme: kind, Update: wave.SimpleShadow, Parallelism: 1}
			single, err := wave.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			// fleets[c][p]: result cache off/on × parallelism 1/4.
			var fleets [2][2]*Router
			for c, rows := range []int{0, 1 << 16} {
				for p, par := range []int{1, 4} {
					cfg.CacheResults, cfg.Parallelism = rows, par
					r, err := New(Config{Shards: shards, Base: cfg})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					fleets[c][p] = r
				}
			}
			for d := 1; d <= days; d++ {
				ps := boundWorkload(d, W)
				if err := single.AddDay(d, ps); err != nil {
					t.Fatal(err)
				}
				for _, pair := range fleets {
					for _, r := range pair {
						if err := r.AddDay(d, ps); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// Single-key probes alone: scans and batched probes run their
			// constituents concurrently at parallelism 4, and on one store
			// the order they happen to interleave in decides which reads
			// are sequential — so only probe traffic has a ledger that
			// parallelism must not move.
			probes := func(q wave.Querier) string {
				var b strings.Builder
				from, to := q.Window()
				// Descending key order: a bucket ends where its successor's
				// begins, and whether a probe of the successor then starts
				// sequentially would hang on which constituent a pooled
				// probe happened to read last.
				for _, key := range []string{"hotC", "hotA", boundOver, boundAt} {
					for _, lo := range []int{from, (from + to) / 2} {
						es, err := q.ProbeRange(context.Background(), key, lo, to)
						if err != nil {
							t.Fatalf("ProbeRange(%q, %d, %d): %v", key, lo, to, err)
						}
						fmt.Fprintln(&b, key, lo, es)
					}
				}
				return b.String()
			}
			wantProbes, want := probes(single), render(t, single)
			for c, pair := range fleets {
				for _, pass := range []string{"cold", "warm"}[:1+c] {
					for p, r := range pair {
						if got := probes(r); got != wantProbes {
							t.Fatalf("cache=%d %s parallelism=%d: probes diverge from the sequential single index", c, pass, 1+3*p)
						}
					}
					if seq, par := fmt.Sprint(pair[0].Work()), fmt.Sprint(pair[1].Work()); seq != par {
						t.Fatalf("cache=%d %s: Work() ledgers differ\nparallelism 1: %s\nparallelism 4: %s", c, pass, seq, par)
					}
				}
				for p, r := range pair {
					if got := render(t, r); got != want {
						t.Fatalf("cache=%d parallelism=%d: render diverges from the sequential single index", c, 1+3*p)
					}
				}
			}
			if !single.HardWindow() {
				return // soft windows hold expired days: both keys are over
			}
			// The two keys really do straddle the constant: one worker for
			// the inline read, several for the pooled one.
			workers := func(r *Router, key string) int64 {
				before := r.Metrics().Histogram("query_workers")
				if _, err := r.Probe(context.Background(), key); err != nil {
					t.Fatal(err)
				}
				after := r.Metrics().Histogram("query_workers")
				if after.Count != before.Count+1 {
					t.Fatalf("Probe(%q) observed query_workers %d times", key, after.Count-before.Count)
				}
				return after.Sum - before.Sum
			}
			for key, want := range map[string][2]bool{boundAt: {false, false}, boundOver: {false, true}} {
				for p, r := range fleets[0] {
					if got := workers(r, key); (got > 1) != want[p] {
						t.Errorf("Probe(%q) at parallelism %d ran on %d workers; pooled should be %v", key, 1+3*p, got, want[p])
					}
				}
			}
		})
	}
}

// TestRouterProbeAllocCeilings pins what the read path may allocate at
// shard.Router.Probe: a small key spread over every constituent at most
// 16 objects (29 before the one-pass reader), and a big key read inline
// at most 2.2 times its result's 16 B an entry — one decode and one merge
// copy, where the four-copy path took 3.1 times. It is not parallel, so
// nothing else in the package allocates while it counts.
func TestRouterProbeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const W = 7
	r, err := New(Config{Shards: 2, Base: wave.Config{Window: W, Indexes: 4, Scheme: wave.REINDEX}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for d := 1; d <= W; d++ {
		if err := r.AddDay(d, boundWorkload(d, W)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	probe := func(key string) int {
		es, err := r.Probe(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}
	if n := probe("hotA"); n != W {
		t.Fatalf("hotA has %d entries, want %d", n, W)
	}
	if got := testing.AllocsPerRun(200, func() { probe("hotA") }); got > 16 {
		t.Errorf("Probe of a %d-entry key spread over every constituent: %.0f allocs, ceiling 16", W, got)
	}
	// The pooled read's goroutines now and then find their P's buffer
	// pool empty and allocate a transfer buffer anew, hence its slack.
	for _, c := range []struct {
		key     string
		ceiling float64 // × 16 B × entries
	}{{boundAt, 2.2}, {boundOver, 2.5}} {
		const runs = 50
		n := probe(c.key)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			probe(c.key)
		}
		runtime.ReadMemStats(&after)
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / 16 / float64(n); ratio > c.ceiling {
			t.Errorf("Probe(%q), %d entries: %.2f × 16 B × entries allocated, ceiling %.1f", c.key, n, ratio, c.ceiling)
		}
	}
}

// TestShardedScanEarlyStop verifies fn returning false stops the merged
// scan at the same prefix a single index would produce.
func TestShardedScanEarlyStop(t *testing.T) {
	cfg := wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEX}
	single, err := wave.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	r, err := New(Config{Shards: 3, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for d := 1; d <= 6; d++ {
		ps := workload(d)
		if err := single.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
		if err := r.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
	}
	prefix := func(q wave.Querier, stop int) string {
		var b strings.Builder
		seen := 0
		if err := wave.Over(q).Scan(context.Background(), func(key string, e wave.Entry) bool {
			fmt.Fprintf(&b, "%s %d\n", key, e.RecordID)
			seen++
			return seen < stop
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return b.String()
	}
	for _, stop := range []int{1, 3, 7} {
		if want, got := prefix(single, stop), prefix(r, stop); want != got {
			t.Fatalf("early stop at %d diverges:\nsingle:\n%s\nsharded:\n%s", stop, want, got)
		}
	}
}

// TestShardedAsyncIngest drives the router's pipelined ingestion with
// concurrent queriers under the race detector and checks the quiesced
// result matches synchronous ingestion.
func TestShardedAsyncIngest(t *testing.T) {
	cfg := wave.Config{Window: 5, Indexes: 2, Scheme: wave.REINDEXPlusPlus}
	ref, err := New(Config{Shards: 3, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	r, err := New(Config{Shards: 3, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent queriers while days flow through the pipeline
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r.Ready() {
				if _, err := r.Probe(context.Background(), "hotA"); err != nil && !errors.Is(err, wave.ErrNotReady) {
					t.Errorf("concurrent Probe: %v", err)
					return
				}
				if err := r.Scan(context.Background(), func(string, wave.Entry) bool { return true }); err != nil && !errors.Is(err, wave.ErrNotReady) {
					t.Errorf("concurrent Scan: %v", err)
					return
				}
			}
		}
	}()
	for d := 1; d <= 14; d++ {
		ps := workload(d)
		if err := ref.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
		if err := r.AddDayAsync(d, ps); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if want, got := render(t, ref), render(t, r); want != got {
		t.Fatalf("async ingestion diverges from sync:\nsync:\n%s\nasync:\n%s", want, got)
	}
}

// journaledRouter builds an N-shard journaled router over fresh
// in-memory storages.
func journaledRouter(t *testing.T, cfg wave.Config, shards int) (*Router, []*wave.JournalStorage) {
	t.Helper()
	storages := make([]*wave.JournalStorage, shards)
	for i := range storages {
		storages[i] = wave.NewMemJournalStorage()
	}
	r, err := NewJournaled(Config{Shards: shards, Base: cfg}, storages, wave.JournalOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	return r, storages
}

// TestBrokenShardDegradation breaks one shard's journal mid-fleet and
// checks the failure is contained: the other shards keep answering,
// recovery repairs just the broken shard, and an idempotent retry of
// the failed day re-converges the fleet to render-equality with an
// unbroken reference.
func TestBrokenShardDegradation(t *testing.T) {
	const shards, failDay = 3, 9
	cfg := wave.Config{Window: 6, Indexes: 3, Scheme: wave.REINDEXPlus}
	r, storages := journaledRouter(t, cfg, shards)
	defer r.Close()
	ref, _ := journaledRouter(t, cfg, shards)
	defer ref.Close()
	for d := 1; d < failDay; d++ {
		ps := workload(d)
		if err := r.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
	}

	// Break shard 1's journal fsync: its AddDay aborts while the other
	// shards apply the day.
	injected := errors.New("injected fsync failure")
	storages[1].Log().FailAfter(simdisk.OpSync, 0, injected)
	err := r.AddDay(failDay, workload(failDay))
	if err == nil || !errors.Is(err, injected) {
		t.Fatalf("AddDay with broken shard: err = %v, want injected failure", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("failure not attributed to shard 1: %v", err)
	}
	if !r.NeedsRecovery() || !r.Degraded() {
		t.Fatalf("NeedsRecovery=%v Degraded=%v after shard failure, want true/true", r.NeedsRecovery(), r.Degraded())
	}
	// Mutation is refused fleet-wide until recovery...
	if err := r.AddDay(failDay+1, nil); !errors.Is(err, wave.ErrNeedsRecovery) {
		t.Fatalf("AddDay after failure: err = %v, want ErrNeedsRecovery", err)
	}
	// ...but queries keep serving from every shard over the fleet window.
	from, to := r.Window()
	if to != failDay-1 {
		t.Fatalf("degraded fleet window = %d..%d, want upper bound %d", from, to, failDay-1)
	}
	for _, key := range []string{"hotA", "hotB", "hotC"} {
		es, err := r.Probe(context.Background(), key)
		if err != nil {
			t.Fatalf("degraded Probe(%q): %v", key, err)
		}
		if len(es) == 0 {
			t.Fatalf("degraded Probe(%q) returned no entries", key)
		}
	}

	// Recover (the fault is disarmed — one-shot plans fire once), then
	// retry the failed day with the same postings: shards that already
	// applied it skip, shard 1 catches up.
	storages[1].Log().ClearFaults()
	rep, err := r.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if r.NeedsRecovery() {
		t.Fatal("NeedsRecovery still true after Recover")
	}
	if rep.CheckpointDay < 0 {
		t.Fatalf("merged report missing checkpoint day: %+v", rep)
	}
	if err := r.AddDay(failDay, workload(failDay)); err != nil {
		t.Fatalf("idempotent retry of day %d: %v", failDay, err)
	}
	ps := workload(failDay)
	if err := ref.AddDay(failDay, ps); err != nil {
		t.Fatal(err)
	}
	// The fleet is converged; keep rolling and compare renders.
	for d := failDay + 1; d <= failDay+3; d++ {
		ps := workload(d)
		if err := r.AddDay(d, ps); err != nil {
			t.Fatalf("post-recovery AddDay(%d): %v", d, err)
		}
		if err := ref.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
	}
	if want, got := render(t, ref), render(t, r); want != got {
		t.Fatalf("post-recovery render diverges:\nreference:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestShardCrashRestartRequery simulates a process crash with a torn
// shard: one shard's journal loses its unsynced tail (the last day's
// commit record), the process "restarts" by reopening a router over the
// same storages, and per-shard recovery rolls the uncommitted day
// forward — the reopened fleet renders identically to one that never
// crashed.
func TestShardCrashRestartRequery(t *testing.T) {
	const shards, days = 3, 10
	cfg := wave.Config{Window: 6, Indexes: 3, Scheme: wave.RATAStar}
	r, storages := journaledRouter(t, cfg, shards)
	ref, _ := journaledRouter(t, cfg, shards)
	defer ref.Close()
	for d := 1; d <= days; d++ {
		ps := workload(d)
		if err := r.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: shard 1 drops its unsynced journal tail; the other shards'
	// logs survive intact. The old router is abandoned, as a real crash
	// would leave it.
	storages[1].Log().Crash()
	reopened, err := NewJournaled(Config{Shards: shards, Base: cfg}, storages, wave.JournalOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer reopened.Close()
	if want, got := render(t, ref), render(t, reopened); want != got {
		t.Fatalf("post-restart render diverges:\nreference:\n%s\nreopened:\n%s", want, got)
	}
	// And the reopened fleet ingests normally.
	if err := reopened.AddDay(days+1, workload(days+1)); err != nil {
		t.Fatalf("AddDay after restart: %v", err)
	}
	_ = r // abandoned, never closed: simulated crash
}

// TestShardObservability checks the fleet rollup surfaces: merged
// metrics equal the per-shard sums, the work ledger aggregates, slow
// queries collect fleet-wide, and spans carry shard labels.
func TestShardObservability(t *testing.T) {
	var mu sync.Mutex
	shardsSeen := map[int]bool{}
	tracer := traceFunc(func(ev core.TraceEvent) {
		mu.Lock()
		shardsSeen[ev.Shard] = true
		mu.Unlock()
	})
	cfg := wave.Config{Window: 4, Indexes: 2, Scheme: wave.DEL, Trace: tracer}
	r, err := New(Config{Shards: 3, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetSlowQueryThreshold(1) // 1ns: everything is slow
	for d := 1; d <= 5; d++ {
		if err := r.AddDay(d, workload(d)); err != nil {
			t.Fatal(err)
		}
	}
	keys := probeKeys(2, 5)
	for _, k := range keys {
		if _, err := r.Probe(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	merged := r.Metrics()
	var sum int64
	for _, snap := range r.ShardMetrics() {
		sum += snap.Counter("query_probe_total")
	}
	if got := merged.Counter("query_probe_total"); got != sum || got != int64(len(keys)) {
		t.Fatalf("merged probe counter = %d, per-shard sum = %d, want %d", got, sum, len(keys))
	}
	if len(r.SlowQueries()) == 0 {
		t.Error("no slow queries collected fleet-wide")
	}
	rows := r.Work()
	if len(rows) == 0 {
		t.Error("empty fleet work ledger")
	}
	mu.Lock()
	defer mu.Unlock()
	for want := 1; want <= 3; want++ {
		if !shardsSeen[want] {
			t.Errorf("no span carried shard label %d (saw %v)", want, shardsSeen)
		}
	}
	if shardsSeen[0] {
		t.Error("span with zero shard label from inside a router")
	}
}

type traceFunc func(core.TraceEvent)

func (f traceFunc) TraceEvent(ev core.TraceEvent) { f(ev) }

// TestRouterConfigErrors covers constructor validation.
func TestRouterConfigErrors(t *testing.T) {
	if _, err := New(Config{Shards: 0, Base: wave.Config{Window: 4}}); !errors.Is(err, wave.ErrBadConfig) {
		t.Errorf("Shards=0: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Shards: 2, Base: wave.Config{Window: 0}}); !errors.Is(err, wave.ErrBadConfig) {
		t.Errorf("bad base config: err = %v, want ErrBadConfig", err)
	}
	st := []*wave.JournalStorage{wave.NewMemJournalStorage()}
	if _, err := NewJournaled(Config{Shards: 2, Base: wave.Config{Window: 4}}, st, wave.JournalOptions{}); !errors.Is(err, wave.ErrBadConfig) {
		t.Errorf("storage count mismatch: err = %v, want ErrBadConfig", err)
	}
}

// TestShardRoutingStability pins the default hash: routing must be
// stable across processes, so a key's owner is a pure function of key
// and shard count.
func TestShardRoutingStability(t *testing.T) {
	r, err := New(Config{Shards: 4, Base: wave.Config{Window: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range []string{"hotA", "day3a", "evens", ""} {
		want := int(fnv1a(k) % 4)
		if got := r.ShardFor(k); got != want {
			t.Errorf("ShardFor(%q) = %d, want %d", k, got, want)
		}
	}
}
