package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"waveindex/wave"
)

// startServer launches a server on a loopback listener and returns a
// dialled client.
func startServer(t *testing.T, cfg wave.Config) (*Client, *wave.Index) {
	t.Helper()
	idx, err := wave.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(idx, Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		idx.Close()
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, idx
}

func postingsFor(day, n int) []wave.Posting {
	out := make([]wave.Posting, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%3)
		out = append(out, wave.Posting{
			Key:   key,
			Entry: wave.Entry{RecordID: uint64(day*100 + i), Aux: uint32(i), Day: int32(day)},
		})
	}
	return out
}

func TestEndToEndLifecycle(t *testing.T) {
	c, _ := startServer(t, wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEXPlusPlus})
	// Window before ready.
	from, to, ready, err := c.Window()
	if err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Errorf("ready before data; window [%d,%d]", from, to)
	}
	for d := 1; d <= 7; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
	from, to, ready, err = c.Window()
	if err != nil {
		t.Fatal(err)
	}
	if !ready || from != 4 || to != 7 {
		t.Fatalf("window = [%d,%d] ready=%v, want [4,7] true", from, to, ready)
	}
	es, err := c.Probe("k0")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 8 { // 2 of 6 postings per day are k0
		t.Errorf("probe k0 = %d entries, want 8", len(es))
	}
	es, err = c.ProbeRange("k1", 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 4 {
		t.Errorf("ranged probe = %d entries, want 4", len(es))
	}
	n, err := c.Count(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Errorf("count = %d, want 24", n)
	}
	n, err = c.Count(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("ranged count = %d, want 6", n)
	}
	top, err := c.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Count < top[1].Count {
		t.Errorf("topk = %v", top)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "scheme=REINDEX++") {
		t.Errorf("stats = %q", stats)
	}
}

// TestCountAnswersFromResultCache: COUNT goes through the aggregate
// fold, so on a cache-on backend a repeated COUNT is answered from the
// memoized per-constituent partials without touching the store — the
// path TOPK already took.
func TestCountAnswersFromResultCache(t *testing.T) {
	c, idx := startServer(t, wave.Config{Window: 4, Indexes: 2, Scheme: wave.DEL, CacheResults: 1 << 12})
	for d := 1; d <= 6; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
	for _, r := range [][2]int{{0, 0}, {4, 5}} {
		cold, err := c.Count(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		hits, reads := idx.CacheInfo().Results.Hits, idx.Stats().Store.BlocksRead
		warm, err := c.Count(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("COUNT %v: warm %d != cold %d", r, warm, cold)
		}
		if idx.CacheInfo().Results.Hits == hits {
			t.Errorf("COUNT %v: repeated count never hit the result cache", r)
		}
		if got := idx.Stats().Store.BlocksRead; got != reads {
			t.Errorf("COUNT %v: repeated count read %d blocks, want 0", r, got-reads)
		}
	}
}

func TestServerErrors(t *testing.T) {
	c, _ := startServer(t, wave.Config{Window: 3, Indexes: 2})
	// Probe before ready.
	if _, err := c.Probe("x"); err == nil {
		t.Error("pre-ready probe accepted")
	}
	// Non-consecutive day.
	if err := c.AddDay(5, nil); err == nil {
		t.Error("non-consecutive day accepted")
	}
	// The connection stays usable after errors.
	if err := c.AddDay(1, postingsFor(1, 2)); err != nil {
		t.Fatalf("AddDay after error: %v", err)
	}
}

func TestRawProtocolErrors(t *testing.T) {
	cLib, _ := startServer(t, wave.Config{Window: 3, Indexes: 2})
	_ = cLib
	// Talk raw to a second connection of the same server via the client's
	// address - simplest is a fresh server.
	idx, err := wave.New(wave.Config{Window: 3, Indexes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(idx, Options{})
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	send := func(s string) string {
		fmt.Fprintln(conn, s)
		if !sc.Scan() {
			t.Fatalf("no reply to %q", s)
		}
		return sc.Text()
	}
	for _, bad := range []string{
		"NOSUCH",
		"ADDDAY",
		"ADDDAY x 1",
		"ADDDAY 1 -1",
		"PROBE",
		"PROBE a b",
		"PROBERANGE k 1",
		"PROBERANGE k x 2",
		"PROBERANGE k 1 x",
		"MPROBE",
		"MPROBE 1 2",
		"MPROBE x 2 k",
		"MPROBE 1 y k",
		"COUNT 1",
		"COUNT x y",
		"TOPK",
		"TOPK 0",
		"SLOWLOG x",
		"SLOWLOG -1",
		"SLOWLOG 1 2",
		"TRACE a b",
	} {
		if reply := send(bad); !strings.HasPrefix(reply, "ERR ") {
			t.Errorf("%q -> %q, want ERR", bad, reply)
		}
	}
	// Queries against a not-ready index report the typed sentinel's text.
	for _, q := range []string{"PROBE k", "PROBERANGE k 1 2", "MPROBE 1 2 k", "COUNT"} {
		reply := send(q)
		if !strings.HasPrefix(reply, "ERR ") || !strings.Contains(reply, "not ready") {
			t.Errorf("not-ready %q -> %q, want ERR ... not ready", q, reply)
		}
	}
	if reply := send("WINDOW"); !strings.HasPrefix(reply, "OK ") {
		t.Errorf("WINDOW -> %q", reply)
	}
	if reply := send("QUIT"); reply != "OK bye" {
		t.Errorf("QUIT -> %q", reply)
	}
}

func TestMetricsCommand(t *testing.T) {
	c, _ := startServer(t, wave.Config{Window: 3, Indexes: 2})
	for d := 1; d <= 5; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Probe("k0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MultiProbe([]string{"k0", "k1"}, 3, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(0, 0); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["query_probe_total"] != 1 || m.Counters["query_mprobe_total"] != 1 || m.Counters["query_scan_total"] != 1 {
		t.Errorf("query counters = %v", m.Counters)
	}
	if m.Counters["ingest_days_total"] != 5 {
		t.Errorf("ingest_days_total = %d, want 5", m.Counters["ingest_days_total"])
	}
	if h := m.Histogram("query_probe_us"); h.Count != 1 {
		t.Errorf("query_probe_us row = %+v, want count 1", h)
	}
	if h := m.Histogram("transition_work_us"); h.Count == 0 {
		t.Error("no transition work timings over the wire")
	}
	if m.Gauges["disk_used_blocks"] == 0 {
		t.Error("disk_used_blocks gauge empty")
	}
}

func TestSlowlogCommand(t *testing.T) {
	c, idx := startServer(t, wave.Config{Window: 3, Indexes: 2, SlowQueryThreshold: 1})
	for d := 1; d <= 4; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Probe("k0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProbeRange("k1", 2, 4); err != nil {
		t.Fatal(err)
	}
	log, err := c.SlowLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("slow log = %d rows, want 2: %+v", len(log), log)
	}
	// Most recent first: the ranged probe.
	if log[0].Kind != "probe" || log[0].Key != "k1" || log[0].From != 2 || log[0].To != 4 {
		t.Errorf("latest slow row = %+v", log[0])
	}
	if log[1].Key != "k0" || log[1].Entries == 0 {
		t.Errorf("older slow row = %+v", log[1])
	}
	// Disable via the protocol, confirm the index saw it and nothing new
	// is recorded.
	if err := c.SetSlowLogThreshold(0); err != nil {
		t.Fatal(err)
	}
	if th := idx.SlowQueryThreshold(); th != 0 {
		t.Errorf("threshold after SLOWLOG 0 = %v", th)
	}
	if _, err := c.Probe("k2"); err != nil {
		t.Fatal(err)
	}
	if log, _ := c.SlowLog(); len(log) != 2 {
		t.Errorf("slow log grew while disabled: %d rows", len(log))
	}
	// Re-enable with a 1ms threshold: fast probes stay unlogged.
	if err := c.SetSlowLogThreshold(1000); err != nil {
		t.Fatal(err)
	}
	if th := idx.SlowQueryThreshold(); th.Milliseconds() != 1000 {
		t.Errorf("threshold = %v, want 1s", th)
	}
}

func TestTraceAndWorkCommands(t *testing.T) {
	c, _ := startServer(t, wave.Config{Window: 3, Indexes: 2, SlowQueryThreshold: 1})
	for d := 1; d <= 4; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Trace("req-77"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Probe("k0"); err != nil {
		t.Fatal(err)
	}
	if err := c.ClearTrace(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Probe("k1"); err != nil {
		t.Fatal(err)
	}
	log, err := c.SlowLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("slow log = %d rows, want 2: %+v", len(log), log)
	}
	// Most recent first: the untraced k1 probe, then the traced k0 one.
	if log[0].TraceID != "" || log[0].Key != "k1" {
		t.Errorf("untraced slow row = %+v", log[0])
	}
	if log[1].TraceID != "req-77" || log[1].Key != "k0" {
		t.Errorf("traced slow row = %+v", log[1])
	}
	if log[1].Seeks == 0 || log[1].BytesRead == 0 {
		t.Errorf("slow row missing disk delta: %+v", log[1])
	}

	rows, err := c.Work()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("work ledger = %d rows, want 4: %+v", len(rows), rows)
	}
	byCause := map[string]WorkRow{}
	for _, r := range rows {
		byCause[r.Cause] = r
	}
	if r := byCause["query"]; r.Seeks == 0 || r.BytesRead == 0 {
		t.Errorf("query work row empty: %+v", r)
	}
	if r := byCause["transition"]; r.BytesWritten == 0 {
		t.Errorf("transition work row has no writes: %+v", r)
	}
	if r := byCause["recovery"]; r.Seeks != 0 || r.BytesRead != 0 || r.BytesWritten != 0 {
		t.Errorf("recovery work row non-zero without recovery: %+v", r)
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := startServer(t, wave.Config{Window: 5, Indexes: 3, Scheme: wave.WATAStar})
	for d := 1; d <= 5; d++ {
		if err := c.AddDay(d, postingsFor(d, 9)); err != nil {
			t.Fatal(err)
		}
	}
	addr := c.conn.RemoteAddr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Query clients hammer while the main client keeps ingesting.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			qc, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer qc.Close()
			for i := 0; i < 50; i++ {
				if _, err := qc.Probe(fmt.Sprintf("k%d", q%3)); err != nil {
					errs <- fmt.Errorf("client %d: %w", q, err)
					return
				}
			}
		}(q)
	}
	for d := 6; d <= 20; d++ {
		if err := c.AddDay(d, postingsFor(d, 9)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAsyncIngestFlush drives the pipelined ingestion path end to end:
// ADDDAY queues under -async, FLUSH drains, and queries then see the
// same window a synchronous server would.
func TestAsyncIngestFlush(t *testing.T) {
	idx, err := wave.New(wave.Config{Window: 4, Indexes: 2, Scheme: wave.REINDEXPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBackend(idx, Options{AsyncIngest: true})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		idx.Close()
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	for d := 1; d <= 7; d++ {
		if err := c.AddDay(d, postingsFor(d, 6)); err != nil {
			t.Fatalf("AddDay(%d): %v", d, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	from, to, ready, err := c.Window()
	if err != nil {
		t.Fatal(err)
	}
	if !ready || from != 4 || to != 7 {
		t.Fatalf("window = [%d,%d] ready=%v, want [4,7] true", from, to, ready)
	}
	es, err := c.Probe("k0")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 8 {
		t.Errorf("probe k0 = %d entries, want 8", len(es))
	}
	// Out-of-order enqueue surfaces immediately (validation is
	// synchronous even under async ingest).
	if err := c.AddDay(42, postingsFor(42, 1)); err == nil {
		t.Error("AddDay(42) after day 7: want error, got nil")
	}
}
