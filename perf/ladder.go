package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/obs"
	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// The ladder attributes a request's time to layers from outside: the
// same ops are replayed, one goroutine, at the public entry of each
// layer in turn, and a layer's self time is its rung's time minus the
// next rung's. The rungs, top down, are the repo's modules.
type rung int

const (
	rungClient rung = iota // server.Client methods
	rungServer             // raw bytes on a net.Conn, reply lines not parsed
	rungShard              // shard.Router methods the server calls
	rungWave               // the same on the owning twin wave.Index
	rungCore               // the core.Wave / core.Scheme call wave.Index makes
	rungIndex              // core.Searcher on each constituent; index.BuildPacked
	numRungs
)

var rungNames = [numRungs]string{"client", "server", "shard", "wave", "core", "index"}

// timedStore is the harness's timing decorator around a block store:
// the simdisk layer's busy time and call counts, measured from outside.
type timedStore struct {
	simdisk.BlockStore
	busyNS, reads, writes atomic.Int64
}

func (t *timedStore) ReadAt(ext simdisk.Extent, off int64, p []byte) error {
	t0 := time.Now()
	err := t.BlockStore.ReadAt(ext, off, p)
	t.busyNS.Add(int64(time.Since(t0)))
	t.reads.Add(1)
	return err
}

func (t *timedStore) WriteAt(ext simdisk.Extent, off int64, p []byte) error {
	t0 := time.Now()
	err := t.BlockStore.WriteAt(ext, off, p)
	t.busyNS.Add(int64(time.Since(t0)))
	t.writes.Add(1)
	return err
}

func (t *timedStore) Alloc(blocks int64) (simdisk.Extent, error) {
	t0 := time.Now()
	ext, err := t.BlockStore.Alloc(blocks)
	t.busyNS.Add(int64(time.Since(t0)))
	return ext, err
}

func (t *timedStore) Free(ext simdisk.Extent) error {
	t0 := time.Now()
	err := t.BlockStore.Free(ext)
	t.busyNS.Add(int64(time.Since(t0)))
	return err
}

// span is one timed call into a layer. Spans of one op share its id.
type span struct {
	cat   string // the rung, or "daemon" for the daemon pass
	kind  opKind
	op    int
	start time.Time
	dur   time.Duration
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): one track per rung, the op id in args.
func (l *spanLog) writeChrome(path string) error {
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for _, s := range l.spans {
		tid, ok := tids[s.cat]
		if !ok {
			tid = len(tids) + 1
			tids[s.cat] = tid
			evs = append(evs, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": s.cat}})
		}
		evs = append(evs, event{
			Name: s.kind.String(), Cat: s.cat, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.op},
		})
	}
	// Not indented: a trace is tens of thousands of events, read by tools.
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// target is one rung on one structure: how to ready an ADDDAY outside
// the timed span, and how to send an op and time it.
type target struct {
	cat string
	// last is the structure's last ingested day, shared by the rungs
	// that drive the same structure.
	last *int
	// prep fills an ADDDAY op's payload for this rung.
	prep func(o *op)
	// exec sends o on the window ending at end and returns the time it
	// attributes to the rung: the call's, or for a scatter op replayed
	// shard by shard, the slowest shard's.
	exec func(o *op, end int) (reply, time.Duration, error)
	// blind marks a rung whose exec returns no reply to check: the
	// server rung drops the lines it reads, the index rung the lists.
	blind bool
}

// passStats is what one measured pass of the ops cost at a rung.
type passStats struct {
	ops     int
	total   time.Duration
	mallocs uint64
	bytes   uint64
}

func (p passStats) usPerOp() float64 { return float64(p.total.Nanoseconds()) / 1e3 / float64(p.ops) }

// ladder replays one workload's ops.
type ladder struct {
	ds  *dataset
	or  *oracle
	log *spanLog
	ops []op
	// attempted and failed count the warm passes' checked replies.
	attempted, failed int
}

// warm replays the ops once untimed, checking every reply: caches
// fill, lazy set-up finishes, and every structure's answers are held
// to the oracle before anything is measured on it.
func (l *ladder) warm(t *target) error {
	for i := range l.ops {
		o := l.ops[i]
		if o.kind == opAddDay {
			o.day = *t.last + 1
			t.prep(&o)
		}
		end := *t.last
		rep, _, err := t.exec(&o, end)
		if err != nil {
			return fmt.Errorf("%s rung, op %d (%s): %w", t.cat, i, o.kind, err)
		}
		if o.kind == opAddDay {
			*t.last = o.day
		}
		l.attempted++
		if !t.blind && l.or.check(&o, &rep, end, end, i%fullEvery == 0) != exact {
			l.failed++
		}
	}
	return nil
}

// measure replays the ops once, timing each call. Allocation counts
// are runtime.MemStats deltas around the timed calls only: an ADDDAY's
// payload is readied outside them, so each ADDDAY is bracketed alone
// and runs of reads are bracketed whole.
func (l *ladder) measure(t *target) (passStats, error) {
	var st passStats
	var m0, m1 runtime.MemStats
	// Collect what earlier passes and torn-down structures left, as
	// testing.B does before a run: otherwise a background cycle lands in
	// whichever pass comes next and takes the second core from it.
	runtime.GC()
	open := false
	openSeg := func() { runtime.ReadMemStats(&m0); open = true }
	closeSeg := func() {
		runtime.ReadMemStats(&m1)
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.bytes += m1.TotalAlloc - m0.TotalAlloc
		open = false
	}
	for i := range l.ops {
		o := l.ops[i]
		if o.kind == opAddDay {
			if open {
				closeSeg()
			}
			o.day = *t.last + 1
			t.prep(&o)
		}
		if !open {
			openSeg()
		}
		start := time.Now()
		_, d, err := t.exec(&o, *t.last)
		if err != nil {
			return st, fmt.Errorf("%s rung, op %d (%s): %w", t.cat, i, o.kind, err)
		}
		if o.kind == opAddDay {
			closeSeg()
			*t.last = o.day
		}
		st.ops++
		st.total += d
		l.log.spans = append(l.log.spans, span{cat: t.cat, kind: o.kind, op: i, start: start, dur: d})
	}
	if open {
		closeSeg()
	}
	return st, nil
}

// ladderOps is the op list the ladder replays: the first ops of the
// workload's own stream. ADDDAY ops carry no day yet: each structure
// numbers them on from its own last day. A stream with ADDDAY sends
// setupDays of them, one full turn of the day pool, so every rung
// ingests the same data.
func ladderOps(ds *dataset, w *workloadSpec, div int) []op {
	day := 0
	reads := (w.ladderOps + div - 1) / div
	var ops []op
	switch w.traffic {
	case trafficIngest:
		for i := 0; i < setupDays; i++ {
			ops = append(ops, op{kind: opAddDay})
		}
	case trafficMixed:
		reader := newStream(ds, w, 1, &day)
		for i := 0; i < setupDays; i++ {
			ops = append(ops, op{kind: opAddDay})
			for j := 0; j < reads/setupDays; j++ {
				ops = append(ops, reader.next())
			}
		}
	default:
		st := newStream(ds, w, 0, &day)
		for i := 0; i < reads; i++ {
			ops = append(ops, st.next())
		}
	}
	return ops
}

// partition splits a day's postings by owning shard, as the router
// does, relabelling them with the day.
func partition(shardFor func(string) int, day int, ps []wave.Posting) [][]wave.Posting {
	parts := make([][]wave.Posting, numShards)
	for _, p := range ps {
		p.Entry.Day = int32(day)
		i := shardFor(p.Key)
		parts[i] = append(parts[i], p)
	}
	return parts
}

func partitionKeys(shardFor func(string) int, keys []string) [][]string {
	parts := make([][]string, numShards)
	for _, k := range keys {
		i := shardFor(k)
		parts[i] = append(parts[i], k)
	}
	return parts
}

// fleet is the system under test rebuilt inside the harness: the
// router waved would build, served on loopback by server.NewBackend
// with the options waved gives it. The client, server and shard rungs
// drive it.
type fleet struct {
	ds   *dataset
	r    *shard.Router
	srv  *server.Server
	ln   net.Listener
	bus  *obs.Bus
	cli  *server.Client
	raw  net.Conn
	rawR *bufio.Reader
	last int
}

func newFleet(ds *dataset, w *workloadSpec) (*fleet, error) {
	f := &fleet{ds: ds, bus: obs.NewBus(0)}
	cfg := fleetConfig(w)
	if !w.embedded {
		// waved's always-on observability plane; a library user has none.
		cfg.Base.Trace = obs.NewSpanEvents(f.bus, 0, func() []simdisk.CauseStats { return f.r.Work() })
	}
	var err error
	if f.r, err = shard.New(cfg); err != nil {
		return nil, err
	}
	for d := 1; d <= setupDays; d++ {
		if err := f.r.AddDay(d, ds.batch(d, true)); err != nil {
			f.close()
			return nil, err
		}
	}
	f.last = setupDays
	f.srv = server.NewBackend(f.r, server.Options{Events: f.bus, SLO: obs.NewEngine(obs.Objectives{}, f.bus)})
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	go f.srv.Serve(f.ln) // returns when close closes the listener
	if f.cli, err = server.Dial(f.ln.Addr().String()); err != nil {
		f.close()
		return nil, err
	}
	if f.raw, err = net.Dial("tcp", f.ln.Addr().String()); err != nil {
		f.close()
		return nil, err
	}
	f.rawR = bufio.NewReaderSize(f.raw, 1<<16)
	// The client's connection is warmed by the ladder's warm pass; give
	// the raw one's server goroutine and buffers the same start.
	for i := 0; i < 200; i++ {
		if _, err := f.raw.Write([]byte("WINDOW\n")); err == nil {
			_, err = f.rawR.ReadSlice('\n')
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	if f.cli != nil {
		f.cli.Close()
	}
	if f.raw != nil {
		f.raw.Close()
	}
	if f.ln != nil {
		f.ln.Close()
		f.srv.Shutdown(time.Second)
	}
	f.bus.Close()
	f.r.Close()
}

func (f *fleet) shardFor(key string) int { return f.r.ShardFor(key) }

// clientTarget is the client rung on any server.Client: the fleet's,
// or a daemon's in the daemon pass.
func clientTarget(cat string, ds *dataset, cli *server.Client, last *int) *target {
	return &target{
		cat: cat, last: last,
		prep: func(o *op) { o.postings = ds.batch(o.day, false) },
		exec: func(o *op, end int) (reply, time.Duration, error) {
			t0 := time.Now()
			r, err := send(cli, ds, o, end)
			return r, time.Since(t0), err
		},
	}
}

// rawCommand is the bytes server.Client would write for o.
func rawCommand(ds *dataset, o *op, end int) []byte {
	switch o.kind {
	case opProbe:
		return []byte("PROBE " + ds.vocab.Word(o.rank) + "\n")
	case opMProbe:
		return []byte(fmt.Sprintf("MPROBE %d %d %s\n", end-windowDays+1, end, strings.Join(o.keys, " ")))
	case opCount:
		return []byte(fmt.Sprintf("COUNT %d %d\n", countFrom(end), end))
	case opTopK:
		return []byte(fmt.Sprintf("TOPK %d\n", topK))
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "ADDDAY %d %d id=raw-%d\n", o.day, len(o.postings), o.day)
	for _, p := range o.postings {
		fmt.Fprintf(&b, "%s %d %d\n", p.Key, p.Entry.RecordID, p.Entry.Aux)
	}
	return b.Bytes()
}

// serverTarget is the server rung: the command's bytes written to a
// raw connection and the reply's lines read and dropped up to the one
// that ends it. What the client rung costs above this is the client's
// formatting and parsing.
func (f *fleet) serverTarget() *target {
	return &target{
		cat: rungNames[rungServer], last: &f.last, blind: true,
		prep: func(o *op) {
			o.postings = f.ds.batch(o.day, false)
			o.raw = rawCommand(f.ds, o, 0)
		},
		exec: func(o *op, end int) (reply, time.Duration, error) {
			cmd := o.raw
			if cmd == nil {
				cmd = rawCommand(f.ds, o, end)
			}
			t0 := time.Now()
			if _, err := f.raw.Write(cmd); err != nil {
				return reply{}, 0, err
			}
			for {
				line, err := f.rawR.ReadSlice('\n')
				if err != nil {
					return reply{}, 0, err
				}
				switch {
				case bytes.HasPrefix(line, []byte("END ")), bytes.HasPrefix(line, []byte("OK ")):
					return reply{}, time.Since(t0), nil
				case bytes.HasPrefix(line, []byte("ERR ")):
					return reply{}, 0, fmt.Errorf("server: %s", bytes.TrimSpace(line))
				}
			}
		},
	}
}

// countVisit is the fold the server's COUNT runs over a scan.
func countVisit(n *int) func(string, wave.Entry) bool {
	return func(string, wave.Entry) bool { *n++; return true }
}

func toKeyCounts(top []wave.KeyCount) []server.KeyCount {
	out := make([]server.KeyCount, len(top))
	for i, t := range top {
		out[i] = server.KeyCount{Key: t.Key, Count: t.Count}
	}
	return out
}

// shardTarget is the shard rung: the Router methods the server calls
// for each command (COUNT is a ScanRange with a counting visitor).
func (f *fleet) shardTarget() *target {
	ctx := context.Background()
	return &target{
		cat: rungNames[rungShard], last: &f.last,
		prep: func(o *op) { o.postings = f.ds.batch(o.day, true) },
		exec: func(o *op, end int) (rep reply, d time.Duration, err error) {
			from := end - windowDays + 1
			t0 := time.Now()
			switch o.kind {
			case opProbe:
				rep.entries, err = f.r.Probe(ctx, f.ds.vocab.Word(o.rank))
			case opMProbe:
				rep.byKey, err = f.r.MultiProbeRange(ctx, o.keys, from, end)
			case opCount:
				err = f.r.ScanRange(ctx, countFrom(end), end, countVisit(&rep.n))
			case opTopK:
				var top []wave.KeyCount
				wf, wt := f.r.Window()
				top, err = f.r.TopKeys(ctx, topK, wf, wt)
				d = time.Since(t0)
				rep.top = toKeyCounts(top)
				return rep, d, err
			case opAddDay:
				err = f.r.AddDay(o.day, o.postings)
			}
			return rep, time.Since(t0), err
		},
	}
}

// twins is one wave.Index per shard, each fed its shard's partition of
// every day: the wave rung. A single-key op goes to the owning twin; a
// scatter op goes to each in turn and costs what the slowest cost.
type twins struct {
	ds       *dataset
	shardFor func(string) int
	idx      []*wave.Index
	last     int
}

func newTwins(ds *dataset, shardFor func(string) int, base wave.Config) (*twins, error) {
	tw := &twins{ds: ds, shardFor: shardFor}
	for i := 0; i < numShards; i++ {
		x, err := wave.New(base)
		if err != nil {
			tw.close()
			return nil, err
		}
		tw.idx = append(tw.idx, x)
	}
	for d := 1; d <= setupDays; d++ {
		for i, part := range partition(shardFor, d, ds.batch(d, false)) {
			if err := tw.idx[i].AddDay(d, part); err != nil {
				tw.close()
				return nil, err
			}
		}
	}
	tw.last = setupDays
	return tw, nil
}

func (tw *twins) close() {
	for _, x := range tw.idx {
		x.Close()
	}
}

// slowest runs f on every shard in turn and returns the longest time.
func slowest(f func(i int) error) (time.Duration, error) {
	var worst time.Duration
	for i := 0; i < numShards; i++ {
		t0 := time.Now()
		err := f(i)
		if d := time.Since(t0); d > worst {
			worst = d
		}
		if err != nil {
			return 0, err
		}
	}
	return worst, nil
}

// mergeTop is the router's fan-in of per-shard top-k lists.
func mergeTop(per [][]wave.KeyCount) []server.KeyCount {
	var all []server.KeyCount
	for _, top := range per {
		all = append(all, toKeyCounts(top)...)
	}
	return topOfCounts(all)
}

func (tw *twins) target(cat string) *target {
	ctx := context.Background()
	return &target{
		cat: cat, last: &tw.last,
		prep: func(o *op) { o.parts = partition(tw.shardFor, o.day, tw.ds.batch(o.day, false)) },
		exec: func(o *op, end int) (rep reply, d time.Duration, err error) {
			from := end - windowDays + 1
			switch o.kind {
			case opProbe:
				key := tw.ds.vocab.Word(o.rank)
				x := tw.idx[tw.shardFor(key)]
				t0 := time.Now()
				rep.entries, err = x.Probe(ctx, key)
				d = time.Since(t0)
			case opMProbe:
				parts := partitionKeys(tw.shardFor, o.keys)
				rep.byKey = map[string][]wave.Entry{}
				d, err = slowest(func(i int) error {
					if len(parts[i]) == 0 {
						return nil
					}
					m, err := tw.idx[i].MultiProbeRange(ctx, parts[i], from, end)
					for k, es := range m {
						rep.byKey[k] = es
					}
					return err
				})
			case opCount:
				d, err = slowest(func(i int) error {
					return tw.idx[i].ScanRange(ctx, countFrom(end), end, countVisit(&rep.n))
				})
			case opTopK:
				per := make([][]wave.KeyCount, numShards)
				d, err = slowest(func(i int) (err error) {
					per[i], err = tw.idx[i].TopKeys(ctx, topK, from, end)
					return err
				})
				rep.top = mergeTop(per)
			case opAddDay:
				d, err = slowest(func(i int) error { return tw.idx[i].AddDay(o.day, o.parts[i]) })
			}
			return rep, d, err
		},
	}
}

// coreTwins is one core.Scheme per shard over core.NewDataBackend on a
// timedStore, built as wave.New builds its own: the core and index
// rungs, and the simdisk layer's time.
type coreTwins struct {
	ds        *dataset
	shardFor  func(string) int
	opts      index.Options
	store     []*timedStore
	src       []*core.MemorySource
	sch       []core.Scheme
	cacheRows int
	last      int
	// entries counts what the index rung's calls handed up.
	entries int
}

func newCoreTwins(ds *dataset, shardFor func(string) int, w *workloadSpec) (*coreTwins, error) {
	ct := &coreTwins{ds: ds, shardFor: shardFor, cacheRows: w.cacheResults}
	for i := 0; i < numShards; i++ {
		var bs simdisk.BlockStore = simdisk.NewRAM(simdisk.Config{})
		if w.cacheBlocks > 0 {
			bs = simdisk.NewCache(bs, w.cacheBlocks)
		}
		ts := &timedStore{BlockStore: bs}
		src := core.NewMemorySource(windowDays + 2)
		sch, err := core.NewScheme(core.KindREINDEX, core.Config{
			W: windowDays, N: numIndexes, Technique: core.SimpleShadow, StartDay: 1,
		}, core.NewDataBackend(ts, ct.opts, src, nil))
		if err != nil {
			return nil, err
		}
		if w.cacheResults > 0 {
			sch.Wave().SetResultCache(core.NewResultCache(w.cacheResults))
		}
		ct.store, ct.src, ct.sch = append(ct.store, ts), append(ct.src, src), append(ct.sch, sch)
	}
	for d := 1; d <= setupDays; d++ {
		for i, part := range partition(shardFor, d, ds.batch(d, false)) {
			if err := ct.transition(i, d, part); err != nil {
				return nil, err
			}
		}
	}
	ct.last = setupDays
	return ct, nil
}

// transition is what wave.Index.AddDay asks of core for one day.
func (ct *coreTwins) transition(i, day int, part []wave.Posting) error {
	ct.src[i].Put(&index.Batch{Day: day, Postings: part})
	switch {
	case day < windowDays:
		return nil
	case day == windowDays:
		return ct.sch[i].Start()
	}
	return ct.sch[i].Transition(day)
}

func (ct *coreTwins) close() {
	for i, s := range ct.sch {
		s.Close()
		ct.store[i].Close()
	}
}

// disk sums the timedStores' counters.
func (ct *coreTwins) disk() (busy time.Duration, reads, writes int64) {
	for _, s := range ct.store {
		busy += time.Duration(s.busyNS.Load())
		reads += s.reads.Load()
		writes += s.writes.Load()
	}
	return
}

func sortedUnique(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	n := 0
	for i, k := range out {
		if i == 0 || out[n-1] != k {
			out[n] = k
			n++
		}
	}
	return out[:n]
}

// coreTarget is the core rung: the core.Wave call wave.Index makes for
// each op (the Agg fold for TOPK when the result cache is on), and
// Scheme.Transition for ADDDAY.
func (ct *coreTwins) coreTarget() *target {
	ctx := context.Background()
	return &target{
		cat: rungNames[rungCore], last: &ct.last,
		prep: func(o *op) { o.parts = partition(ct.shardFor, o.day, ct.ds.batch(o.day, false)) },
		exec: func(o *op, end int) (rep reply, d time.Duration, err error) {
			from := end - windowDays + 1
			switch o.kind {
			case opProbe:
				key := ct.ds.vocab.Word(o.rank)
				w := ct.sch[ct.shardFor(key)].Wave()
				t0 := time.Now()
				rep.entries, err = w.ParallelTimedIndexProbeCtx(ctx, key, from, end)
				d = time.Since(t0)
			case opMProbe:
				parts := partitionKeys(ct.shardFor, o.keys)
				rep.byKey = map[string][]wave.Entry{}
				d, err = slowest(func(i int) error {
					if len(parts[i]) == 0 {
						return nil
					}
					m, err := ct.sch[i].Wave().MultiProbeCtx(ctx, parts[i], from, end)
					for k, es := range m {
						rep.byKey[k] = es
					}
					return err
				})
			case opCount:
				d, err = slowest(func(i int) error {
					return ct.sch[i].Wave().TimedSegmentScanCtx(ctx, countFrom(end), end, countVisit(&rep.n))
				})
			case opTopK:
				per := make([]map[string]int, numShards)
				d, err = slowest(func(i int) error {
					if ct.cacheRows > 0 {
						if m, ok, err := ct.sch[i].Wave().AggKeyCountsCtx(ctx, from, end); ok {
							per[i] = m
							return err
						}
					}
					per[i] = map[string]int{}
					return ct.sch[i].Wave().TimedSegmentScanCtx(ctx, from, end, func(key string, _ wave.Entry) bool {
						per[i][key]++
						return true
					})
				})
				rep.top = topOf(per)
			case opAddDay:
				d, err = slowest(func(i int) error { return ct.transition(i, o.day, o.parts[i]) })
			}
			return rep, d, err
		},
	}
}

// topOf selects the top k of per-shard key counts (the part of TOPK
// that wave and shard do above core).
func topOf(per []map[string]int) []server.KeyCount {
	var all []server.KeyCount
	for _, m := range per {
		for k, n := range m {
			all = append(all, server.KeyCount{Key: k, Count: n})
		}
	}
	return topOfCounts(all)
}

// holds reports whether constituent c indexes a day in [t1, t2]: the
// test core applies before it reads a constituent.
func holds(c core.Constituent, t1, t2 int) bool {
	for _, d := range c.Days() {
		if d >= t1 && d <= t2 {
			return true
		}
	}
	return false
}

// indexTarget is the index rung: core.Searcher.Probe and Scan (and the
// batched MultiProbe core uses) on each constituent of the published
// wave, one after another; for ADDDAY, index.BuildPacked of the
// constituent REINDEX rebuilt. The transition itself runs untimed
// first, so the twin moves on as it did at the core rung.
func (ct *coreTwins) indexTarget() *target {
	return &target{
		cat: rungNames[rungIndex], last: &ct.last, blind: true,
		prep: func(o *op) {
			o.parts = partition(ct.shardFor, o.day, ct.ds.batch(o.day, false))
			for i := range ct.sch {
				if err := ct.transition(i, o.day, o.parts[i]); err != nil {
					panic(fmt.Sprintf("perf: core twin %d, day %d: %v", i, o.day, err)) // it passed at the core rung
				}
			}
		},
		exec: func(o *op, end int) (rep reply, d time.Duration, err error) {
			from := end - windowDays + 1
			each := func(i, t1, t2 int, f func(s core.Searcher) error) error {
				for _, c := range ct.sch[i].Wave().Snapshot() {
					if c == nil || !holds(c, t1, t2) {
						continue
					}
					if err := f(c.(core.Searcher)); err != nil {
						return err
					}
				}
				return nil
			}
			switch o.kind {
			case opProbe:
				key := ct.ds.vocab.Word(o.rank)
				t0 := time.Now()
				err = each(ct.shardFor(key), from, end, func(s core.Searcher) error {
					es, err := s.Probe(key, from, end)
					ct.entries += len(es)
					return err
				})
				d = time.Since(t0)
			case opMProbe:
				parts := partitionKeys(ct.shardFor, o.keys)
				for i := range parts {
					parts[i] = sortedUnique(parts[i])
				}
				d, err = slowest(func(i int) error {
					if len(parts[i]) == 0 {
						return nil
					}
					return each(i, from, end, func(s core.Searcher) error {
						lists, err := s.(core.MultiSearcher).MultiProbe(parts[i], from, end)
						for _, es := range lists {
							ct.entries += len(es)
						}
						return err
					})
				})
			case opCount:
				d, err = slowest(func(i int) error {
					return each(i, countFrom(end), end, func(s core.Searcher) error {
						return s.Scan(countFrom(end), end, countVisit(&ct.entries))
					})
				})
			case opTopK:
				d, err = slowest(func(i int) error {
					counts := map[string]int{}
					err := each(i, from, end, func(s core.Searcher) error {
						return s.Scan(from, end, func(key string, _ wave.Entry) bool {
							counts[key]++
							ct.entries++
							return true
						})
					})
					return err
				})
			case opAddDay:
				d, err = slowest(func(i int) error {
					var batches []*index.Batch
					for _, c := range ct.sch[i].Wave().Snapshot() {
						if c == nil || !c.HasDay(o.day) {
							continue
						}
						for _, day := range c.Days() {
							b, err := ct.src[i].Day(day)
							if err != nil {
								return err
							}
							batches = append(batches, b)
						}
					}
					idx, err := index.BuildPacked(ct.store[i], ct.opts, batches...)
					if err != nil {
						return err
					}
					ct.entries += idx.NumEntries()
					return idx.Drop()
				})
			}
			return rep, d, err
		},
	}
}
