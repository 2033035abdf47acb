package wave

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"waveindex/internal/core"
)

// scanAggregates is the scan-derived reference the aggregate fold is held
// to: the count, per-day histogram, k most frequent keys, and distinct-key
// count of [from, to], computed from the kernel's ScanRange alone.
func scanAggregates(t *testing.T, k Querier, topK, from, to int) (n int, hist []int, top []KeyCount, distinct int) {
	t.Helper()
	hist = make([]int, to-from+1)
	perKey := map[string]int{}
	if err := k.ScanRange(context.Background(), from, to, func(key string, e Entry) bool {
		n++
		hist[int(e.Day)-from]++
		perKey[key]++
		return true
	}); err != nil {
		t.Fatalf("reference ScanRange: %v", err)
	}
	for key, c := range perKey {
		top = append(top, KeyCount{key, c})
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

// querierSignature flattens every read API — the kernel k's own methods
// and every query derived from it — over several ranges into one
// canonical string, the equivalence currency of the cache tests. Any
// divergence between a cached and an uncached index, down to entry order
// inside a bucket, changes the signature. On the way it holds the
// fold-derived aggregates to the scan-derived reference.
func querierSignature(t *testing.T, k Querier, from, to int, keys []string) string {
	t.Helper()
	ctx := context.Background()
	q := struct {
		Querier
		Queries
	}{k, Over(k)}
	var b strings.Builder
	must := func(err error, what string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, k := range keys {
		es, err := q.Probe(ctx, k)
		must(err, "Probe "+k)
		fmt.Fprintf(&b, "probe %s %v\n", k, es)
		es, err = q.ProbeRange(ctx, k, from+1, to)
		must(err, "ProbeRange "+k)
		fmt.Fprintf(&b, "prange %s %v\n", k, es)
	}
	writeMulti := func(tag string, m map[string][]Entry, err error) {
		must(err, tag)
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			fmt.Fprintf(&b, "%s %s %v\n", tag, k, m[k])
		}
	}
	m, err := q.MultiProbe(ctx, keys)
	writeMulti("mprobe", m, err)
	m, err = q.MultiProbeRange(ctx, keys, from, to-1)
	writeMulti("mprange", m, err)

	var rows []string
	must(q.Scan(ctx, func(k string, e Entry) bool {
		rows = append(rows, fmt.Sprintf("scan %s %v", k, e))
		return true
	}), "Scan")
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, "\n") + "\n")
	rows = rows[:0]
	must(q.ScanRange(ctx, from+1, to-1, func(k string, e Entry) bool {
		rows = append(rows, fmt.Sprintf("srange %s %v", k, e))
		return true
	}), "ScanRange")
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, "\n") + "\n")

	n, err := q.Count(ctx)
	must(err, "Count")
	fmt.Fprintf(&b, "count %d\n", n)
	n, err = q.CountRange(ctx, from, to-1)
	must(err, "CountRange")
	fmt.Fprintf(&b, "crange %d\n", n)
	sa, err := q.SumAux(ctx, keys[0], from, to)
	must(err, "SumAux")
	fmt.Fprintf(&b, "sumaux %d\n", sa)
	tk, err := q.TopKeys(ctx, 5, from, to)
	must(err, "TopKeys")
	fmt.Fprintf(&b, "topk %v\n", tk)
	ck, err := q.CountKeys(ctx, keys, from, to)
	must(err, "CountKeys")
	for _, k := range keys {
		fmt.Fprintf(&b, "ckeys %s %d\n", k, ck[k])
	}
	sk, err := q.SumAuxKeys(ctx, keys, from, to)
	must(err, "SumAuxKeys")
	for _, k := range keys {
		fmt.Fprintf(&b, "skeys %s %d\n", k, sk[k])
	}
	h, err := q.Histogram(ctx, from, to)
	must(err, "Histogram")
	fmt.Fprintf(&b, "hist %v\n", h)
	dk, err := q.DistinctKeys(ctx, from, to)
	must(err, "DistinctKeys")
	fmt.Fprintf(&b, "distinct %d\n", dk)

	cr, err := q.CountRange(ctx, from, to)
	must(err, "CountRange")
	refN, refHist, refTop, refDistinct := scanAggregates(t, k, 5, from, to)
	if got, want := fmt.Sprint(cr, h, tk, dk), fmt.Sprint(refN, refHist, refTop, refDistinct); got != want {
		t.Fatalf("fold-derived aggregates over [%d, %d] diverge from the scan-derived reference:\n got %s\nwant %s", from, to, got, want)
	}
	return b.String()
}

// sigKeys is the probe key set the signature exercises: hot keys that
// appear most days plus one that never does.
var sigKeys = []string{"key00", "key03", "key07", "key13", "nosuchkey"}

// TestCacheEquivalenceAllSchemes is the tentpole acceptance test: for
// every maintenance scheme × update technique, a fully cached index
// (block buffer pool + result cache) must answer every read API
// byte-identically to an uncached twin fed the same days — cold after
// each transition, and again warm when the answers come from cache.
func TestCacheEquivalenceAllSchemes(t *testing.T) {
	const W, N, days, seed = 5, 2, 16, 4242
	techs := []UpdateTechnique{InPlace, SimpleShadow, PackedShadow}
	for _, scheme := range []Scheme{DEL, REINDEX, REINDEXPlus, REINDEXPlusPlus, WATAStar, RATAStar} {
		for _, tech := range techs {
			scheme, tech := scheme, tech
			t.Run(fmt.Sprintf("%s/%s", scheme, tech), func(t *testing.T) {
				t.Parallel()
				base := Config{Window: W, Indexes: N, Scheme: scheme, Update: tech}
				plain, err := New(base)
				if err != nil {
					t.Fatal(err)
				}
				defer plain.Close()
				ccfg := base
				ccfg.CacheBlocks = 64
				ccfg.CacheResults = 1 << 16
				cached, err := New(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				defer cached.Close()

				for d := 1; d <= days; d++ {
					p := chaosPostings(d, 14, seed)
					if err := plain.AddDay(d, p); err != nil {
						t.Fatalf("plain day %d: %v", d, err)
					}
					if err := cached.AddDay(d, p); err != nil {
						t.Fatalf("cached day %d: %v", d, err)
					}
					if !plain.Ready() {
						continue
					}
					from, to := plain.Window()
					want := querierSignature(t, plain, from, to, sigKeys)
					// Cold (cache just invalidated by the transition) and
					// warm (same queries again, served from cache) must both
					// match the uncached twin exactly.
					if got := querierSignature(t, cached, from, to, sigKeys); got != want {
						t.Fatalf("day %d: cold cached signature diverged:\n--- want\n%s\n--- got\n%s", d, want, got)
					}
					if got := querierSignature(t, cached, from, to, sigKeys); got != want {
						t.Fatalf("day %d: warm cached signature diverged", d)
					}
				}
				ci := cached.CacheInfo()
				if !ci.BlocksEnabled || !ci.ResultsEnabled {
					t.Fatalf("cache tiers not enabled: %+v", ci)
				}
				if ci.Results.Hits == 0 {
					t.Fatal("result cache never hit; warm pass was vacuous")
				}
				if ci.Results.Invalidated == 0 {
					t.Fatal("transitions never invalidated cached results; generation stamping is vacuous")
				}
				if ci.Blocks.Hits == 0 {
					t.Fatal("block cache never hit")
				}
				if plain.CacheInfo().BlocksEnabled || plain.CacheInfo().ResultsEnabled {
					t.Fatal("uncached twin reports cache tiers enabled")
				}
			})
		}
	}
}

// TestCacheRetentionBySchemes checks the transition-aware part of the
// design: a rolling DEL transition touches only the constituents
// holding the expired and the new day, so most cached results survive,
// while REINDEX with a single constituent (the paper's classic
// whole-window rebuild) moves its only generation every day and must
// invalidate wholesale.
func TestCacheRetentionBySchemes(t *testing.T) {
	warmAndRoll := func(t *testing.T, scheme Scheme, indexes int) (retained int64, before int64) {
		t.Helper()
		x, err := New(Config{Window: 6, Indexes: indexes, Scheme: scheme, CacheResults: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		for d := 1; d <= 8; d++ {
			if err := x.AddDay(d, chaosPostings(d, 14, 99)); err != nil {
				t.Fatal(err)
			}
		}
		from, to := x.Window()
		querierSignature(t, x, from, to, sigKeys) // warm the cache
		before = x.CacheInfo().Results.Entries
		if before == 0 {
			t.Fatal("nothing cached after the warm pass")
		}
		if err := x.AddDay(9, chaosPostings(9, 14, 99)); err != nil {
			t.Fatal(err)
		}
		return x.CacheInfo().Results.Entries, before
	}
	delKept, delHad := warmAndRoll(t, DEL, 3)
	reKept, reHad := warmAndRoll(t, REINDEX, 1)
	if reKept != 0 {
		t.Errorf("single-constituent REINDEX transition kept %d/%d cached results, want full invalidation", reKept, reHad)
	}
	if delKept*2 < delHad {
		t.Errorf("DEL transition kept only %d/%d cached results, want most retained", delKept, delHad)
	}
}

// TestWarmAggregateStaysOnCaller checks the look-up-then-fold shape of
// the aggregate: once every qualifying constituent's partial is cached,
// a repeated aggregate scans nothing, reports one worker (the caller's
// goroutine, not the pool), returns the same Agg, and still honours a
// cancelled context.
func TestWarmAggregateStaysOnCaller(t *testing.T) {
	tr := &memTracer{}
	x, err := New(Config{Window: 6, Indexes: 3, Scheme: DEL, Parallelism: 4, CacheResults: 1 << 16, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for d := 1; d <= 8; d++ {
		if err := x.AddDay(d, chaosPostings(d, 14, 99)); err != nil {
			t.Fatal(err)
		}
	}
	from, to := x.Window()
	ctx := context.Background()
	for _, kind := range []AggKind{AggCount, AggDays, AggKeys} {
		cold, err := x.Aggregate(ctx, kind, from, to)
		if err != nil {
			t.Fatal(err)
		}
		scans, before := tr.kinds()["scan.constituent"], x.Metrics().Histogram("query_workers")
		if scans < 2 {
			t.Fatalf("kind %d: cold aggregate scanned %d constituents, want several", kind, scans)
		}
		warm, err := x.Aggregate(ctx, kind, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(warm) != fmt.Sprint(cold) {
			t.Errorf("kind %d: warm aggregate %v != cold %v", kind, warm, cold)
		}
		if got := tr.kinds()["scan.constituent"]; got != scans {
			t.Errorf("kind %d: warm aggregate scanned %d constituents, want 0", kind, got-scans)
		}
		after := x.Metrics().Histogram("query_workers")
		if after.Count != before.Count+1 || after.Sum != before.Sum+1 {
			t.Errorf("kind %d: warm aggregate observed query_workers %d times, sum +%d; want once, 1 worker",
				kind, after.Count-before.Count, after.Sum-before.Sum)
		}
		done, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := x.Aggregate(done, kind, from, to); !errors.Is(err, context.Canceled) {
			t.Errorf("kind %d: warm aggregate under a cancelled ctx = %v, want context.Canceled", kind, err)
		}
	}
}

// TestCacheCrashRecoveryNoStaleResults arms one crash point per scheme
// on a fully cached journaled index, warms the cache right before every
// transition, crashes mid-transition, recovers, and re-compares against
// an uncached reference. Recovery rebuilds the index from checkpoint +
// journal with a fresh result cache and generation counter, so a stale
// pre-crash entry is unservable by construction — this test is the
// behavioural check that nothing cached before the crash leaks into
// post-recovery answers.
func TestCacheCrashRecoveryNoStaleResults(t *testing.T) {
	const W, N, days, seed = 6, 3, 22, 77
	for _, kind := range core.Kinds {
		kind := kind
		points := core.CrashPoints(kind, core.Technique(SimpleShadow))
		if len(points) == 0 {
			continue
		}
		point := points[len(points)/2]
		t.Run(fmt.Sprintf("%s/%s", kind, point), func(t *testing.T) {
			t.Parallel()
			cs := core.NewCrashSet()
			cfg := Config{Window: W, Indexes: N, Scheme: Scheme(kind), Update: SimpleShadow,
				CacheBlocks: 64, CacheResults: 1 << 16}
			cfg.crash = cs
			st := NewMemJournalStorage()
			jr, err := OpenJournaled(cfg, st, JournalOptions{CheckpointEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer jr.Close()
			ref, err := New(Config{Window: W, Indexes: N, Scheme: Scheme(kind), Update: SimpleShadow})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			cs.Arm(point)
			crashed := false
			for d := 1; d <= days; d++ {
				p := chaosPostings(d, 16, seed)
				if err := ref.AddDay(d, p); err != nil {
					t.Fatalf("reference day %d: %v", d, err)
				}
				if jr.Index().Ready() {
					// Warm the cache with the pre-transition window so a
					// stale entry, if one survived, would be poised to serve.
					from, to := jr.Index().Window()
					querierSignature(t, jr.Index(), from, to, sigKeys)
				}
				err := jr.AddDay(d, p)
				if err == nil {
					if jr.Index().Ready() {
						from, to := ref.Window()
						want := querierSignature(t, ref, from, to, sigKeys)
						if got := querierSignature(t, jr.Index(), from, to, sigKeys); got != want {
							t.Fatalf("day %d: cached journaled index diverged before any crash", d)
						}
					}
					continue
				}
				if crashed {
					t.Fatalf("day %d failed after the one-shot crash: %v", d, err)
				}
				if !errors.Is(err, ErrTransitionAborted) || !errors.Is(err, core.ErrInjectedCrash) {
					t.Fatalf("day %d: want ErrTransitionAborted wrapping ErrInjectedCrash, got %v", d, err)
				}
				crashed = true
				st.Log().Crash()
				if _, rerr := jr.Recover(); rerr != nil {
					t.Fatalf("recover after crash at %s (day %d): %v", point, d, rerr)
				}
				ci := jr.CacheInfo()
				if ci.Results.Entries != 0 {
					t.Fatalf("recovery left %d result-cache entries resident; stale pre-crash results are servable", ci.Results.Entries)
				}
				from, to := ref.Window()
				want := querierSignature(t, ref, from, to, sigKeys)
				if got := querierSignature(t, jr.Index(), from, to, sigKeys); got != want {
					t.Fatalf("day %d crash at %s: post-recovery cached answers diverge from reference:\n--- want\n%s\n--- got\n%s",
						d, point, want, got)
				}
			}
			if !crashed {
				t.Fatalf("crash point %s never fired in %d days", point, days)
			}
			if got, want := querySigFull(t, jr.Index(), ref); got != want {
				t.Fatal("final state diverged after recovery and continued ingestion")
			}
		})
	}
}

// querySigFull compares two indexes over their (identical) windows.
func querySigFull(t *testing.T, a, b *Index) (string, string) {
	t.Helper()
	from, to := b.Window()
	return querierSignature(t, a, from, to, sigKeys), querierSignature(t, b, from, to, sigKeys)
}
