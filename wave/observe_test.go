package wave

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// memTracer collects trace events; safe for concurrent use.
type memTracer struct {
	mu  sync.Mutex
	evs []TraceEvent
}

func (m *memTracer) TraceEvent(ev TraceEvent) {
	m.mu.Lock()
	m.evs = append(m.evs, ev)
	m.mu.Unlock()
}

func (m *memTracer) kinds() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{}
	for _, ev := range m.evs {
		out[ev.Kind]++
	}
	return out
}

// buildObserved returns a ready 6-day index with a tracer attached.
func buildObserved(t *testing.T, cfg Config) (*Index, *memTracer) {
	t.Helper()
	tr := &memTracer{}
	cfg.Trace = tr
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	keysFor := func(d int) []string { return []string{"a", "b", fmt.Sprintf("only%d", d)} }
	fill(t, x, 9, keysFor)
	return x, tr
}

// TestMetricsAfterWorkload is the acceptance scenario: after a mixed
// probe/scan/AddDay workload the snapshot reports a non-zero query
// latency histogram, per-phase transition timings, and simulated-disk
// counters.
func TestMetricsAfterWorkload(t *testing.T) {
	x, tr := buildObserved(t, Config{Window: 6, Indexes: 3, Scheme: DEL})
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := x.MultiProbe(context.Background(), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := x.Scan(context.Background(), func(string, Entry) bool { return true }); err != nil {
		t.Fatal(err)
	}

	m := x.Metrics()
	if m.Counter("query_probe_total") != 1 || m.Counter("query_mprobe_total") != 1 || m.Counter("query_scan_total") != 1 {
		t.Fatalf("query counters = %d/%d/%d, want 1/1/1",
			m.Counter("query_probe_total"), m.Counter("query_mprobe_total"), m.Counter("query_scan_total"))
	}
	for _, h := range []string{"query_probe_us", "query_mprobe_us", "query_scan_us"} {
		if m.Histogram(h).Count == 0 {
			t.Errorf("histogram %s never observed", h)
		}
	}
	if m.Counter("query_constituents_total") == 0 {
		t.Error("engine constituent counter empty")
	}
	if m.Counter("ingest_days_total") != 9 {
		t.Errorf("ingest_days_total = %d, want 9", m.Counter("ingest_days_total"))
	}
	// Transition phases: 9 AddDays = 1 Start + 3 transitions after ready.
	if m.Counter("transition_total") != 4 {
		t.Errorf("transition_total = %d, want 4 (start + 3)", m.Counter("transition_total"))
	}
	if m.Histogram("transition_work_us").Count == 0 {
		t.Error("no transition work-phase timings")
	}
	if m.Histogram("transition_pre_us").Count == 0 {
		t.Error("no transition pre-phase timings")
	}
	// Simulated-disk counters: queries charged seeks and blocks.
	if m.Counter("query_disk_seeks_total") == 0 || m.Counter("query_disk_blocks_read_total") == 0 {
		t.Errorf("per-query disk attribution empty: seeks %d blocks %d",
			m.Counter("query_disk_seeks_total"), m.Counter("query_disk_blocks_read_total"))
	}
	if m.Gauge("disk_seeks") == 0 || m.Gauge("disk_used_blocks") == 0 {
		t.Error("disk gauges empty")
	}

	k := tr.kinds()
	for _, want := range []string{"probe", "mprobe", "scan", "probe.constituent", "transition.pre", "transition.work", "transition.post"} {
		if k[want] == 0 {
			t.Errorf("no %q trace spans (got %v)", want, k)
		}
	}
}

func TestDisableMetrics(t *testing.T) {
	x, err := New(Config{Window: 3, Indexes: 2, DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	fill(t, x, 4, func(d int) []string { return []string{"a"} })
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	m := x.Metrics()
	if len(m.Counters)+len(m.Gauges)+len(m.Histograms) != 0 {
		t.Fatalf("DisableMetrics snapshot not empty: %+v", m)
	}
}

func TestSlowQueryLog(t *testing.T) {
	x, _ := buildObserved(t, Config{Window: 6, Indexes: 3, SlowQueryThreshold: time.Nanosecond, SlowLogSize: 2})
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := x.MultiProbe(context.Background(), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := x.Scan(context.Background(), func(string, Entry) bool { return true }); err != nil {
		t.Fatal(err)
	}
	// Ring size 2: the probe fell off; newest first.
	log := x.SlowQueries()
	if len(log) != 2 {
		t.Fatalf("slow log has %d entries, want 2", len(log))
	}
	if log[0].Kind != "scan" || log[1].Kind != "mprobe" {
		t.Fatalf("slow log order = %s, %s; want scan, mprobe", log[0].Kind, log[1].Kind)
	}
	if log[1].Keys != 2 || log[0].Entries == 0 || log[0].Duration <= 0 {
		t.Fatalf("slow log fields wrong: %+v", log)
	}
	if got := x.Metrics().Counter("slow_query_total"); got != 3 {
		t.Errorf("slow_query_total = %d, want 3", got)
	}

	// Raising the threshold stops recording.
	x.SetSlowQueryThreshold(time.Hour)
	if got := x.SlowQueryThreshold(); got != time.Hour {
		t.Fatalf("threshold = %v", got)
	}
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if log := x.SlowQueries(); log[0].Kind != "scan" {
		t.Error("fast query logged despite high threshold")
	}

	// Disabled log never records.
	x.SetSlowQueryThreshold(0)
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if len(x.SlowQueries()) != 2 {
		t.Error("disabled slow log grew")
	}
}

// TestProbeCtxCanceled is the acceptance criterion: a canceled ProbeCtx
// returns context.Canceled (run with -race to check for leaked workers).
func TestProbeCtxCanceled(t *testing.T) {
	x, _ := buildObserved(t, Config{Window: 6, Indexes: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Probe(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProbeCtx = %v, want context.Canceled", err)
	}
	if _, err := x.MultiProbe(ctx, []string{"a", "b"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiProbeCtx = %v, want context.Canceled", err)
	}
	if err := x.Scan(ctx, func(string, Entry) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanCtx = %v, want context.Canceled", err)
	}
	if got := x.Metrics().Counter("query_canceled_total"); got != 3 {
		t.Errorf("query_canceled_total = %d, want 3", got)
	}
	// The engine pool must be intact afterwards.
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatalf("probe after cancellations: %v", err)
	}
}

func TestErrBadConfigSentinel(t *testing.T) {
	bad := []Config{
		{},                      // zero window
		{Window: -1},            // negative window
		{Window: 3, Indexes: 5}, // Indexes > Window
		{Window: 5, Indexes: 1, Scheme: WATAStar}, // below scheme minimum
		{Window: 5, FirstDay: -1},                 // bad first day
		{Window: 5, Stores: -2},                   // bad store count
		{Window: 5, Parallelism: -1},              // bad parallelism
		{Window: 5, SlowQueryThreshold: -time.Second},
	}
	for i, cfg := range bad {
		_, err := New(cfg)
		if err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err %v does not wrap ErrBadConfig", i, err)
		}
	}
	if _, err := New(Config{Window: 5, Indexes: 2}); err != nil {
		t.Fatalf("good config rejected: %v", err)
	} else {
		x, _ := New(Config{Window: 5, Indexes: 2})
		x.Close()
	}
}

// TestSnapshotSpansAndLoadMetrics checks snapshot persistence emits
// save/load spans and the restored index has live metrics.
func TestSnapshotSpansAndLoadMetrics(t *testing.T) {
	x, tr := buildObserved(t, Config{Window: 4, Indexes: 2, Scheme: DEL})
	var buf bytes.Buffer
	if err := x.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if tr.kinds()["snapshot.save"] != 1 {
		t.Error("no snapshot.save span")
	}
	if x.Metrics().Histogram("snapshot_save_us").Count != 1 {
		t.Error("snapshot_save_us not observed")
	}

	tr2 := &memTracer{}
	y, err := LoadWithTrace(bytes.NewReader(buf.Bytes()), tr2)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if tr2.kinds()["snapshot.load"] != 1 {
		t.Error("no snapshot.load span")
	}
	if y.Metrics().Histogram("snapshot_load_us").Count != 1 {
		t.Error("snapshot_load_us not observed")
	}
	// The restored index keeps recording: queries and further ingestion.
	if _, err := y.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	_, to := y.Window()
	if err := y.AddDay(to+1, day(to+1, "a")); err != nil {
		t.Fatal(err)
	}
	m := y.Metrics()
	if m.Counter("query_probe_total") != 1 || m.Counter("transition_total") != 1 {
		t.Errorf("restored index metrics: probes %d transitions %d, want 1/1",
			m.Counter("query_probe_total"), m.Counter("transition_total"))
	}
	if tr2.kinds()["probe"] != 1 || tr2.kinds()["transition.work"] != 1 {
		t.Errorf("restored index spans missing: %v", tr2.kinds())
	}
}

// TestTraceIDPropagation checks a context trace ID reaches the
// whole-query span, the per-constituent spans, and the slow-query log.
func TestTraceIDPropagation(t *testing.T) {
	x, tr := buildObserved(t, Config{Window: 6, Indexes: 3, SlowQueryThreshold: time.Nanosecond})
	ctx := WithTraceID(context.Background(), "req-42")
	if got := TraceIDFrom(ctx); got != "req-42" {
		t.Fatalf("TraceIDFrom = %q", got)
	}
	if _, err := x.Probe(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := x.MultiProbe(ctx, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := x.Scan(ctx, func(string, Entry) bool { return true }); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	stamped := map[string]bool{}
	for _, ev := range tr.evs {
		if ev.TraceID == "req-42" {
			stamped[ev.Kind] = true
		}
	}
	tr.mu.Unlock()
	for _, kind := range []string{"probe", "probe.constituent", "mprobe", "mprobe.constituent", "scan", "scan.constituent"} {
		if !stamped[kind] {
			t.Errorf("no %q span carries the trace ID", kind)
		}
	}
	for _, q := range x.SlowQueries() {
		if q.TraceID != "req-42" {
			t.Errorf("slow %s entry trace ID = %q, want req-42", q.Kind, q.TraceID)
		}
	}
	// Untraced queries stay unstamped.
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if q := x.SlowQueries()[0]; q.TraceID != "" {
		t.Errorf("untraced query got trace ID %q", q.TraceID)
	}
}

// TestSlowQueryDiskDelta checks slow entries carry the per-query
// simulated-disk delta alongside latency.
func TestSlowQueryDiskDelta(t *testing.T) {
	x, _ := buildObserved(t, Config{Window: 6, Indexes: 3, SlowQueryThreshold: time.Nanosecond})
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	q := x.SlowQueries()[0]
	if q.Kind != "probe" {
		t.Fatalf("newest slow entry is %q, want probe", q.Kind)
	}
	if q.Seeks == 0 || q.BytesRead == 0 || q.DiskTime <= 0 {
		t.Fatalf("slow entry carries no disk delta: %+v", q)
	}
	if q.BytesWritten != 0 {
		t.Errorf("probe wrote %d bytes", q.BytesWritten)
	}
}

// TestWorkLedger checks Index.Work splits disk cost across causes:
// ingestion charges transition work, queries charge query work, and
// snapshot save charges checkpoint work.
func TestWorkLedger(t *testing.T) {
	x, _ := buildObserved(t, Config{Window: 6, Indexes: 3, Scheme: DEL})
	if _, err := x.Probe(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rows := map[string]CauseStats{}
	for _, r := range x.Work() {
		rows[r.Cause.String()] = r
	}
	if len(rows) != 4 {
		t.Fatalf("work ledger rows = %v", rows)
	}
	if r := rows["transition"]; r.BytesWritten == 0 || r.SimTime <= 0 {
		t.Fatalf("transition row empty: %+v", r)
	}
	if r := rows["query"]; r.BytesRead == 0 || r.Seeks == 0 {
		t.Fatalf("query row empty: %+v", r)
	}
	// SaveSnapshot serialises from the in-memory scheme state; it may or
	// may not touch the store, so only assert it never counts as query
	// writes: query-cause bytes written must be zero for a read-only
	// query workload.
	if r := rows["query"]; r.BytesWritten != 0 {
		t.Fatalf("query row charged writes: %+v", r)
	}
	if r := rows["recovery"]; r.Seeks != 0 || r.BytesRead != 0 || r.BytesWritten != 0 {
		t.Fatalf("recovery row charged without recovery: %+v", r)
	}

	// A journaled recovery attributes the rebuild to the recovery cause.
	j, err := OpenJournaled(Config{Window: 4, Indexes: 2, Scheme: DEL}, NewMemJournalStorage(), JournalOptions{CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for d := 1; d <= 6; d++ {
		if err := j.AddDay(d, day(d, "a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	rec := map[string]CauseStats{}
	for _, r := range j.Index().Work() {
		rec[r.Cause.String()] = r
	}
	if r := rec["recovery"]; r.BytesWritten == 0 {
		t.Fatalf("recovery replay not attributed to recovery: %+v", rec)
	}
	if r := rec["transition"]; r.BytesWritten != 0 {
		t.Fatalf("recovery replay leaked into transition row: %+v", r)
	}
}
