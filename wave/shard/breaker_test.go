package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"waveindex/internal/simdisk"
	"waveindex/wave"
)

// fakeClock drives a breaker's cooldown without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	b.now = clk.now

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		ok, probe := b.allow()
		if !ok || probe {
			t.Fatalf("closed allow #%d = (%v, %v)", i, ok, probe)
		}
		b.result(boom, false)
	}
	if st, n := b.snapshot(); st != BreakerClosed || n != 2 {
		t.Fatalf("after 2 failures: %v/%d, want closed/2", st, n)
	}
	// A success resets the consecutive count.
	b.allow()
	b.result(nil, false)
	if _, n := b.snapshot(); n != 0 {
		t.Fatalf("failures = %d after success, want 0", n)
	}
	// Three consecutive failures open it.
	for i := 0; i < 3; i++ {
		b.allow()
		b.result(boom, false)
	}
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	// Open rejects until the cooldown elapses.
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker admitted a query inside the cooldown")
	}
	clk.advance(time.Minute + time.Second)
	ok, probe := b.allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want probe", ok, probe)
	}
	// Only one probe at a time.
	if ok, _ := b.allow(); ok {
		t.Fatal("half-open breaker admitted a second query during the probe")
	}
	// Failed probe re-opens for another cooldown.
	b.result(boom, true)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("re-opened breaker admitted a query")
	}
	clk.advance(2 * time.Minute)
	// Successful probe closes.
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("second probe not admitted")
	}
	b.result(nil, true)
	if st, n := b.snapshot(); st != BreakerClosed || n != 0 {
		t.Fatalf("state after successful probe = %v/%d, want closed/0", st, n)
	}
}

// TestBreakerInconclusiveProbeStaysHalfOpen: a half-open probe ending
// with a caller-side error proves nothing about shard health, so the
// breaker must not close — it stays half-open and the next query gets
// the probe slot.
func TestBreakerInconclusiveProbeStaysHalfOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	b.now = clk.now
	b.allow()
	b.result(errors.New("boom"), false)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatal("setup: breaker not open")
	}
	clk.advance(2 * time.Minute)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("post-cooldown query should be admitted as the probe")
	}
	b.result(context.Canceled, true)
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state after inconclusive probe = %v, want half-open", st)
	}
	// The freed probe slot goes to the next query, which resolves it.
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("next query after an inconclusive probe should probe again")
	}
	b.result(nil, true)
	if st, n := b.snapshot(); st != BreakerClosed || n != 0 {
		t.Fatalf("state after successful re-probe = %v/%d, want closed/0", st, n)
	}
}

func TestBreakerIgnoresCallerErrors(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: 1})
	for _, err := range []error{context.Canceled, context.DeadlineExceeded, wave.ErrNotReady} {
		b.allow()
		b.result(err, false)
		if st, _ := b.snapshot(); st != BreakerClosed {
			t.Fatalf("%v opened the breaker; only shard faults should count", err)
		}
	}
	b.allow()
	b.result(errors.New("disk ate it"), false)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatal("a genuine shard fault did not open a threshold-1 breaker")
	}
}

func TestBreakerReset(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	b.allow()
	b.result(errors.New("boom"), false)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatal("setup: breaker not open")
	}
	b.reset()
	if st, n := b.snapshot(); st != BreakerClosed || n != 0 {
		t.Fatalf("after reset: %v/%d, want closed/0", st, n)
	}
	if ok, probe := b.allow(); !ok || probe {
		t.Fatal("reset breaker did not return to plain closed admission")
	}
}

// keyOwnedBy returns an indexed key (with postings in the current
// window) that the router hashes to shard want. A missing key would
// never touch the shard's store, so it could neither trip a read fault
// nor exercise a real probe.
func keyOwnedBy(t *testing.T, r *Router, want int) string {
	t.Helper()
	from, to := r.Window()
	for _, k := range probeKeys(from, to) {
		if k == "missing" || k == "alsomissing" {
			continue
		}
		if r.ShardFor(k) == want {
			return k
		}
	}
	t.Fatalf("no indexed key owned by shard %d", want)
	return ""
}

// breakShardReads arms a permanent read fault on every store of shard i,
// so its queries fail until ClearFaults. Works for journaled and plain
// routers (both expose the index through the backend).
func breakShardReads(t *testing.T, r *Router, i int) []*simdisk.Store {
	t.Helper()
	var idx *wave.Index
	if j := r.JournaledShard(i); j != nil {
		idx = j.Index()
	} else {
		idx = r.shards[i].(*wave.Index)
	}
	stores := idx.Stores()
	for _, st := range stores {
		st.FailProb(simdisk.OpRead, 1, 1, errors.New("injected read fault"))
	}
	return stores
}

// breakerRouter builds a loaded 3-shard router with breakers armed.
func breakerRouter(t *testing.T, cooldown time.Duration) *Router {
	t.Helper()
	r, err := New(Config{
		Shards:  3,
		Base:    wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEX},
		Breaker: BreakerConfig{Threshold: 3, Cooldown: cooldown},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for d := 1; d <= 6; d++ {
		if err := r.AddDay(d, workload(d)); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
	return r
}

// tripShard drives queries at shard i until its breaker opens.
func tripShard(t *testing.T, r *Router, i int) {
	t.Helper()
	ctx := context.Background()
	key := keyOwnedBy(t, r, i)
	from, to := r.Window()
	for n := 0; n < r.cfg.Breaker.Threshold; n++ {
		if _, err := r.ProbeRange(ctx, key, from, to); err == nil {
			t.Fatalf("probe %d succeeded on a read-faulted shard", n)
		}
	}
	if got := r.OpenBreakers(); len(got) != 1 || got[0] != i {
		t.Fatalf("OpenBreakers = %v, want [%d]", got, i)
	}
}

func TestBreakerOpensAndAnnotatesPartialResults(t *testing.T) {
	r := breakerRouter(t, time.Hour)
	ctx := context.Background()
	from, to := r.Window()

	// Ground truth before anything breaks.
	wantCount, err := r.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const broken = 1
	brokenCount, err := wave.Over(r.shards[broken]).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	breakShardReads(t, r, broken)
	tripShard(t, r, broken)

	// Without the partial-results opt-in, queries touching the broken
	// shard fail with the typed retryable error.
	if _, err := r.Count(ctx); !errors.Is(err, wave.ErrUnavailable) {
		t.Fatalf("Count on open breaker = %v, want ErrUnavailable", err)
	}
	key := keyOwnedBy(t, r, broken)
	if _, err := r.Probe(ctx, key); !errors.Is(err, wave.ErrUnavailable) {
		t.Fatalf("Probe on open breaker = %v, want ErrUnavailable", err)
	}
	// A query that never touches the broken shard still succeeds.
	healthy := keyOwnedBy(t, r, 0)
	if _, err := r.Probe(ctx, healthy); err != nil {
		t.Fatalf("Probe on healthy shard: %v", err)
	}

	// With the opt-in, the healthy remainder answers and the skipped
	// slice is annotated.
	pctx, rep := wave.WithPartialResults(ctx)
	n, err := r.CountRange(pctx, from, to)
	if err != nil {
		t.Fatalf("partial CountRange: %v", err)
	}
	if n != wantCount-brokenCount {
		t.Fatalf("partial count = %d, want %d (full %d minus shard %d's %d)",
			n, wantCount-brokenCount, wantCount, broken, brokenCount)
	}
	deg := rep.Degraded()
	if len(deg) != 1 || deg[0].Shard != broken || deg[0].Shards != 3 || deg[0].Cause == "" {
		t.Fatalf("Degraded = %v, want one annotated slice for shard %d", deg, broken)
	}

	// The fold itself degrades the same way: Aggregate drops the broken
	// shard's partial and annotates exactly the slice TopKeys does.
	rep.Reset()
	agg, err := r.Aggregate(pctx, wave.AggKeys, from, to)
	if err != nil {
		t.Fatalf("partial Aggregate: %v", err)
	}
	if agg.N != wantCount-brokenCount {
		t.Fatalf("partial Aggregate counted %d, want %d", agg.N, wantCount-brokenCount)
	}
	for _, part := range agg.Keys {
		for k := range part {
			if r.ShardFor(k) == broken {
				t.Fatalf("partial Aggregate carries key %q from the broken shard", k)
			}
		}
	}
	aggDeg := rep.Degraded()
	rep.Reset()
	if _, err := r.TopKeys(pctx, 3, from, to); err != nil {
		t.Fatalf("partial TopKeys: %v", err)
	}
	if topDeg := rep.Degraded(); len(aggDeg) != 1 || aggDeg[0] != deg[0] || len(topDeg) != 1 || topDeg[0] != aggDeg[0] {
		t.Fatalf("Aggregate annotated %v, TopKeys %v, CountRange %v; want the same single slice", aggDeg, topDeg, deg)
	}

	// Scan under partial results visits only healthy shards' keys.
	rep.Reset()
	err = r.ScanRange(pctx, from, to, func(k string, e wave.Entry) bool {
		if r.ShardFor(k) == broken {
			t.Fatalf("partial scan yielded key %q from the broken shard", k)
		}
		return true
	})
	if err != nil {
		t.Fatalf("partial ScanRange: %v", err)
	}
	if !rep.Partial() {
		t.Fatal("partial scan did not annotate the skipped shard")
	}

	// Single-key probes for the broken shard's keys come back empty but
	// annotated — explicitly degraded, never silently wrong for others.
	rep.Reset()
	es, err := r.Probe(pctx, key)
	if err != nil || len(es) != 0 {
		t.Fatalf("partial Probe = %d entries, err %v; want empty success", len(es), err)
	}
	if got := rep.Degraded(); len(got) != 1 || got[0].Shard != broken {
		t.Fatalf("partial Probe annotation = %v", got)
	}
}

// TestBreakerMultiProbeIgnoresUnownedShards: an MPROBE whose keys all
// live on healthy shards must neither be gated by an unrelated shard's
// open breaker nor feed a no-op success into that shard's failure
// count.
func TestBreakerMultiProbeIgnoresUnownedShards(t *testing.T) {
	r := breakerRouter(t, time.Hour)
	ctx := context.Background()
	from, to := r.Window()
	const broken = 1
	healthyKeys := []string{keyOwnedBy(t, r, 0), keyOwnedBy(t, r, 2)}
	want, err := r.MultiProbeRange(ctx, healthyKeys, from, to)
	if err != nil {
		t.Fatal(err)
	}

	breakShardReads(t, r, broken)
	// Drive the broken shard to one failure short of opening: a no-op
	// call leaking through the breaker would reset this count.
	key := keyOwnedBy(t, r, broken)
	for n := 0; n < r.cfg.Breaker.Threshold-1; n++ {
		if _, err := r.ProbeRange(ctx, key, from, to); err == nil {
			t.Fatalf("probe %d succeeded on a read-faulted shard", n)
		}
	}
	got, err := r.MultiProbeRange(ctx, healthyKeys, from, to)
	if err != nil {
		t.Fatalf("MPROBE on healthy keys: %v", err)
	}
	for _, k := range healthyKeys {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("key %q: %d entries, want %d", k, len(got[k]), len(want[k]))
		}
	}
	if _, n := r.brk[broken].snapshot(); n != r.cfg.Breaker.Threshold-1 {
		t.Fatalf("shard %d failures = %d after no-key MPROBE, want %d untouched",
			broken, n, r.cfg.Breaker.Threshold-1)
	}

	// Open the breaker; a healthy-keys MPROBE must still answer in
	// strict (non-partial) mode, and record nothing degraded in partial
	// mode.
	if _, err := r.ProbeRange(ctx, key, from, to); err == nil {
		t.Fatal("final probe succeeded on a read-faulted shard")
	}
	if open := r.OpenBreakers(); len(open) != 1 || open[0] != broken {
		t.Fatalf("OpenBreakers = %v, want [%d]", open, broken)
	}
	if _, err := r.MultiProbeRange(ctx, healthyKeys, from, to); err != nil {
		t.Fatalf("strict MPROBE on healthy keys with shard %d's breaker open: %v", broken, err)
	}
	pctx, rep := wave.WithPartialResults(ctx)
	if _, err := r.MultiProbeRange(pctx, healthyKeys, from, to); err != nil {
		t.Fatalf("partial MPROBE on healthy keys: %v", err)
	}
	if deg := rep.Degraded(); len(deg) != 0 {
		t.Fatalf("healthy-keys MPROBE recorded spurious degraded slices %v", deg)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	r := breakerRouter(t, 30*time.Millisecond)
	ctx := context.Background()
	wantCount, err := r.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const broken = 2
	stores := breakShardReads(t, r, broken)
	tripShard(t, r, broken)

	// Shard repaired; after the cooldown the next query probes and
	// closes the breaker, and full results resume.
	for _, st := range stores {
		st.ClearFaults()
	}
	time.Sleep(40 * time.Millisecond)
	key := keyOwnedBy(t, r, broken)
	if _, err := r.Probe(ctx, key); err != nil {
		t.Fatalf("probe query after cooldown: %v", err)
	}
	if got := r.OpenBreakers(); len(got) != 0 {
		t.Fatalf("OpenBreakers = %v after successful probe, want none", got)
	}
	n, err := r.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantCount {
		t.Fatalf("Count after breaker closed = %d, want %d", n, wantCount)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	r := breakerRouter(t, 20*time.Millisecond)
	ctx := context.Background()
	const broken = 1
	breakShardReads(t, r, broken)
	tripShard(t, r, broken)

	// Still broken: the post-cooldown probe fails and the breaker
	// re-opens rather than letting traffic through.
	time.Sleep(30 * time.Millisecond)
	key := keyOwnedBy(t, r, broken)
	if _, err := r.Probe(ctx, key); err == nil {
		t.Fatal("probe against a still-broken shard succeeded")
	}
	if got := r.OpenBreakers(); len(got) != 1 || got[0] != broken {
		t.Fatalf("OpenBreakers = %v after failed probe, want [%d]", got, broken)
	}
	// And immediately after, queries are rejected without touching the
	// shard (typed error, no new probe inside the fresh cooldown).
	if _, err := r.Probe(ctx, key); !errors.Is(err, wave.ErrUnavailable) {
		t.Fatalf("query inside re-opened cooldown = %v, want ErrUnavailable", err)
	}
}

func TestRecoverResetsBreakers(t *testing.T) {
	cfg := wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEX}
	storages := make([]*wave.JournalStorage, 3)
	for i := range storages {
		storages[i] = wave.NewMemJournalStorage()
	}
	r, err := NewJournaled(
		Config{Shards: 3, Base: cfg, Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour}},
		storages, wave.JournalOptions{CheckpointEvery: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for d := 1; d <= 6; d++ {
		if err := r.AddDay(d, workload(d)); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
	ctx := context.Background()
	wantCount, err := r.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	const broken = 0
	stores := breakShardReads(t, r, broken)
	tripShard(t, r, broken)
	for _, st := range stores {
		st.ClearFaults()
	}

	// Recover (full rebuild: no shard is marked) closes the breaker
	// immediately — no cooldown, no probe.
	rep, err := r.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := r.OpenBreakers(); len(got) != 0 {
		t.Fatalf("OpenBreakers = %v after Recover, want none", got)
	}
	if len(rep.ShardsReplayed) == 0 {
		t.Fatalf("ShardsReplayed = %v, want the replaying shards listed", rep.ShardsReplayed)
	}
	n, err := r.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantCount {
		t.Fatalf("Count after Recover = %d, want %d", n, wantCount)
	}
}

func TestMergeReportsShardsReplayed(t *testing.T) {
	rep := mergeReports([]*wave.RecoveryReport{
		{CheckpointDay: 4, ShardsReplayed: []int{0}},
		nil,
		{CheckpointDay: 2, ReplayedDays: []int{3, 4}, ShardsReplayed: []int{0}},
	})
	// Shard 0's report replayed nothing (ShardsReplayed from a single
	// Journaled is advisory; the merge keys off ReplayedDays); shard 2
	// replayed two days.
	if len(rep.ShardsReplayed) != 1 || rep.ShardsReplayed[0] != 2 {
		t.Fatalf("ShardsReplayed = %v, want [2]", rep.ShardsReplayed)
	}
	if rep.CheckpointDay != 2 {
		t.Fatalf("CheckpointDay = %d, want 2", rep.CheckpointDay)
	}
}
