package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/server"
	"waveindex/internal/simdisk"
	"waveindex/wave"
)

// perLayer are the metrics of single layers, from the traced run.
// They have no bound: they place a change, they do not gate it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	for _, r := range rungNames {
		add(r+".total_us", "us", "lower")
		add(r+".self_us", "us", "lower")
		add(r+".allocs_per_op", "count", "lower")
		add(r+".alloc_kb_per_op", "KB", "lower")
	}
	add("simdisk.busy_us", "us", "lower")
	add("simdisk.reads_per_op", "count", "lower")
	add("simdisk.writes_per_op", "count", "lower")
	add("simdisk.seeks_per_op", "count", "lower")
	add("simdisk.read_kb_per_op", "KB", "lower")
	add("simdisk.written_kb_per_op", "KB", "lower")
	add("simdisk.sim_ms_per_op", "ms", "lower")
	add("simdisk.cache_hit_ratio", "ratio", "higher")
	add("simdisk.cache_evictions_per_op", "count", "lower")
	add("simdisk.cache_saved_seeks_per_op", "count", "higher")
	add("core.rescache_hit_ratio", "ratio", "higher")
	add("core.rescache_evictions_per_op", "count", "lower")
	add("core.rescache_invalidated_per_day", "count", "lower")
	for _, s := range schemeKinds {
		add("core.transition_ms."+s.name, "ms", "lower")
	}
	for _, p := range []string{"build", "add", "delete", "packedmerge", "clone"} {
		add("index."+p+"_us_per_kposting", "us", "lower")
	}
	add("index.entries_per_op", "count", "lower")
	add("wave.probe_nometrics_us", "us", "lower")
	add("wave.probe_nocache_us", "us", "lower")
	add("server.cpu_user_us_per_op", "us", "lower")
	add("server.cpu_sys_us_per_op", "us", "lower")
	add("server.request_kb_per_op", "KB", "lower")
	add("server.reply_kb_per_op", "KB", "lower")
	add("client.cpu_us_per_op", "us", "lower")
	add("trace.overhead_pct", "%", "lower")
	return defs
}

// runTraced is the traced run of one workload: the ladder, the
// per-scheme and per-primitive measurements that no daemon run makes,
// and the daemon pass. It writes the spans to the output directory.
func runTraced(env *environment, w *workloadSpec, seed int64) (*outcome, error) {
	ds := newDataset(seed, env.sizes.scale())
	l := &ladder{ds: ds, or: newOracle(ds), log: &spanLog{t0: time.Now()}, ops: ladderOps(ds, w, env.sizes.LadderDiv)}
	m := map[string]float64{}
	if err := l.climb(w, m); err != nil {
		return nil, err
	}
	if err := measureSchemes(ds, m); err != nil {
		return nil, err
	}
	if err := measureIndexPrimitives(ds, m); err != nil {
		return nil, err
	}
	if err := l.daemonPass(env, w, m); err != nil {
		return nil, err
	}
	path := filepath.Join(env.out, "trace-"+w.name+".json")
	if err := l.log.writeChrome(path); err != nil {
		return nil, err
	}
	env.logf("%s: %d spans in %s", w.name, len(l.log.spans), path)
	o := &outcome{Workload: w.name, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]measured{}}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("traced run left %s unmeasured", d.name)
		}
		o.Metrics[d.name] = measured{Value: v, Unit: d.unit}
	}
	return o, nil
}

// climb builds the structures and replays the ops at every rung, each
// structure warmed (and checked) once before it is measured.
func (l *ladder) climb(w *workloadSpec, m map[string]float64) error {
	f, err := newFleet(l.ds, w)
	if err != nil {
		return err
	}
	defer f.close()
	base := fleetConfig(w).Base
	tw, err := newTwins(l.ds, f.shardFor, base)
	if err != nil {
		return err
	}
	defer tw.close()
	ct, err := newCoreTwins(l.ds, f.shardFor, w)
	if err != nil {
		return err
	}
	defer ct.close()

	var st [numRungs]passStats
	client := clientTarget(rungNames[rungClient], l.ds, f.cli, &f.last)
	if err := l.warm(client); err != nil {
		return err
	}
	for r, t := range []*target{client, f.serverTarget(), f.shardTarget()} {
		if st[r], err = l.measure(t); err != nil {
			return err
		}
	}
	wt := tw.target(rungNames[rungWave])
	if err := l.warm(wt); err != nil {
		return err
	}
	if st[rungWave], err = l.measure(wt); err != nil {
		return err
	}
	coreT := ct.coreTarget()
	if err := l.warm(coreT); err != nil {
		return err
	}
	busy0, reads0, writes0 := ct.disk()
	if st[rungCore], err = l.measure(coreT); err != nil {
		return err
	}
	busy1, reads1, writes1 := ct.disk()
	ct.entries = 0
	if st[rungIndex], err = l.measure(ct.indexTarget()); err != nil {
		return err
	}

	n := float64(len(l.ops))
	busyUS := float64((busy1 - busy0).Nanoseconds()) / 1e3 / n
	for r := rung(0); r < numRungs; r++ {
		below := busyUS
		if r+1 < numRungs {
			below = st[r+1].usPerOp()
		}
		name := rungNames[r]
		m[name+".total_us"] = st[r].usPerOp()
		m[name+".self_us"] = st[r].usPerOp() - below
		m[name+".allocs_per_op"] = float64(st[r].mallocs) / n
		m[name+".alloc_kb_per_op"] = float64(st[r].bytes) / 1024 / n
	}
	m["simdisk.busy_us"] = busyUS
	m["simdisk.reads_per_op"] = float64(reads1-reads0) / n
	m["simdisk.writes_per_op"] = float64(writes1-writes0) / n
	m["index.entries_per_op"] = float64(ct.entries) / n

	// The wave rung again on twins without the metrics registry, and on
	// twins without caches: what instrumentation costs, and whether a
	// warm cache beats none.
	for _, v := range []struct {
		metric, cat string
		alter       func(*wave.Config)
	}{
		{"wave.probe_nometrics_us", "wave/nometrics", func(c *wave.Config) { c.DisableMetrics = true }},
		{"wave.probe_nocache_us", "wave/nocache", func(c *wave.Config) { c.CacheBlocks, c.CacheResults = 0, 0 }},
	} {
		cfg := base
		v.alter(&cfg)
		alt, err := newTwins(l.ds, f.shardFor, cfg)
		if err != nil {
			return err
		}
		t := alt.target(v.cat)
		err = l.warm(t)
		var ps passStats
		if err == nil {
			ps, err = l.measure(t)
		}
		alt.close()
		if err != nil {
			return err
		}
		m[v.metric] = ps.usPerOp()
	}
	return nil
}

// schemeKinds are the six maintenance schemes, by metric name.
var schemeKinds = []struct {
	name string
	kind core.Kind
}{
	{"del", core.KindDEL},
	{"reindex", core.KindREINDEX},
	{"reindex_plus", core.KindREINDEXPlus},
	{"reindex_pp", core.KindREINDEXPlusPlus},
	{"wata", core.KindWATAStar},
	{"rata", core.KindRATAStar},
}

// shardZero is one shard's share of day, splitting by rank: what the
// measurements outside any fleet ingest.
func (ds *dataset) shardZero(day int) *index.Batch {
	byRank := func(key string) int { return rankOf(key) % numShards }
	return &index.Batch{Day: day, Postings: partition(byRank, day, ds.batch(day, false))[0]}
}

// measureSchemes times Scheme.Transition for each of the six schemes
// on shard 0's share of the data, so the five the daemon run does not
// use are still measured: one full cycle of windowDays transitions
// after the start, mean ms per transition.
func measureSchemes(ds *dataset, m map[string]float64) error {
	for _, s := range schemeKinds {
		store := simdisk.NewRAM(simdisk.Config{})
		src := core.NewMemorySource(0)
		sch, err := core.NewScheme(s.kind, core.Config{
			W: windowDays, N: numIndexes, Technique: core.SimpleShadow, StartDay: 1,
		}, core.NewDataBackend(store, index.Options{}, src, nil))
		if err != nil {
			return err
		}
		var total time.Duration
		runtime.GC() // see ladder.measure
		for d := 1; d <= 2*windowDays; d++ {
			src.Put(ds.shardZero(d))
			switch {
			case d == windowDays:
				err = sch.Start()
			case d > windowDays:
				t0 := time.Now()
				err = sch.Transition(d)
				total += time.Since(t0)
			}
			if err != nil {
				return fmt.Errorf("%s day %d: %w", s.name, d, err)
			}
		}
		m["core.transition_ms."+s.name] = float64(total.Nanoseconds()) / 1e6 / windowDays
		sch.Close()
		store.Close()
	}
	return nil
}

// measureIndexPrimitives times the index layer's five bulk operations
// on shard 0's share of four days, in µs per thousand postings handled.
// Each is run primitiveReps times on a fresh index; the median stands.
func measureIndexPrimitives(ds *dataset, m map[string]float64) error {
	const primitiveReps = 5
	var days [4]*index.Batch
	for i := range days {
		days[i] = ds.shardZero(i + 1)
	}
	perK := func(d time.Duration, postings int) float64 {
		return float64(d.Nanoseconds()) / 1e3 / (float64(postings) / 1000)
	}
	samples := map[string][]float64{}
	for rep := 0; rep < primitiveReps; rep++ {
		store := simdisk.NewRAM(simdisk.Config{})
		t0 := time.Now()
		idx, err := index.BuildPacked(store, index.Options{}, days[0], days[1])
		if err != nil {
			return err
		}
		samples["build"] = append(samples["build"], perK(time.Since(t0), idx.NumEntries()))

		t0 = time.Now()
		clone, err := idx.Clone()
		if err != nil {
			return err
		}
		samples["clone"] = append(samples["clone"], perK(time.Since(t0), idx.NumEntries()))

		t0 = time.Now()
		if err := clone.Add(days[2]); err != nil {
			return err
		}
		samples["add"] = append(samples["add"], perK(time.Since(t0), days[2].NumPostings()))

		t0 = time.Now()
		if err := clone.Delete(1); err != nil {
			return err
		}
		samples["delete"] = append(samples["delete"], perK(time.Since(t0), days[0].NumPostings()))

		t0 = time.Now()
		merged, err := idx.PackedMerge([]int{1}, days[3])
		if err != nil {
			return err
		}
		samples["packedmerge"] = append(samples["packedmerge"], perK(time.Since(t0), merged.NumEntries()))
		store.Close()
	}
	for name, xs := range samples {
		m["index."+name+"_us_per_kposting"] = median(xs)
	}
	return nil
}

// countingConn counts the bytes each way on a connection.
type countingConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// daemonPass replays the ops through a real waved child three times on
// one connection: once to warm and check, once plain, once traced
// (spans recorded, bytes counted, the daemon's counters read before
// and after). The traced replay gives the server's and the disk
// model's per-op counts; the two timed replays give what tracing costs.
func (l *ladder) daemonPass(env *environment, w *workloadSpec, m map[string]float64) error {
	ws, err := bootWire(env, w)
	if err != nil {
		return err
	}
	defer ws.close()
	for d := 1; d <= setupDays; d++ {
		if err := ws.ctl.AddDay(d, l.ds.batch(d, false)); err != nil {
			return err
		}
	}
	last := setupDays
	raw, err := net.Dial("tcp", ws.d.addr)
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: raw}
	traced := server.NewClient(cc)
	defer traced.Close()
	plain, err := ws.d.dial()
	if err != nil {
		return err
	}
	defer plain.Close()

	if err := l.warm(clientTarget("daemon", l.ds, plain, &last)); err != nil {
		return err
	}
	// Two plain replays and two traced ones, alternating, so that
	// neither kind is always the one that runs first. The plain ones
	// record no spans: measure appends to the log, so they get a log
	// of their own that is thrown away.
	var plainS, tracedS float64
	var d daemonDelta
	for round := 0; round < 2; round++ {
		keep := l.log
		l.log = &spanLog{}
		t0 := time.Now()
		_, err = l.measure(clientTarget("daemon", l.ds, plain, &last))
		plainS += time.Since(t0).Seconds()
		l.log = keep
		if err != nil {
			return err
		}
		before, err := readDaemon(ws, cc)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = l.measure(clientTarget("daemon", l.ds, traced, &last))
		tracedS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		after, err := readDaemon(ws, cc)
		if err != nil {
			return err
		}
		d.add(before, after)
	}

	n := 2 * float64(len(l.ops)) // the traced replays' ops
	days := 0
	for _, o := range l.ops {
		if o.kind == opAddDay {
			days += 2
		}
	}
	m["server.cpu_user_us_per_op"] = float64(d.server.user.Microseconds()) / n
	m["server.cpu_sys_us_per_op"] = float64(d.server.sys.Microseconds()) / n
	m["server.request_kb_per_op"] = float64(d.out) / 1024 / n
	m["server.reply_kb_per_op"] = float64(d.in) / 1024 / n
	m["client.cpu_us_per_op"] = float64(d.harness.total().Microseconds()) / n
	m["trace.overhead_pct"] = 100 * (tracedS - plainS) / plainS

	m["simdisk.seeks_per_op"] = float64(d.work.Seeks) / n
	m["simdisk.read_kb_per_op"] = float64(d.work.BytesRead) / 1024 / n
	m["simdisk.written_kb_per_op"] = float64(d.work.BytesWritten) / 1024 / n
	m["simdisk.sim_ms_per_op"] = float64(d.work.SimUS) / 1000 / n

	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0 // the cache is off, or nothing asked it
		}
		return float64(hits) / float64(hits+misses)
	}
	m["simdisk.cache_hit_ratio"] = ratio(d.blocks.Hits, d.blocks.Misses)
	m["simdisk.cache_evictions_per_op"] = float64(d.blocks.Evictions) / n
	m["simdisk.cache_saved_seeks_per_op"] = float64(d.blocks.SavedSeeks) / n
	m["core.rescache_hit_ratio"] = ratio(d.results.Hits, d.results.Misses)
	m["core.rescache_evictions_per_op"] = float64(d.results.Evictions) / n
	m["core.rescache_invalidated_per_day"] = 0
	if days > 0 {
		m["core.rescache_invalidated_per_day"] = float64(d.results.Invalidated) / float64(days)
	}
	return nil
}

// daemonReading is the daemon's counters, and the harness's own, at
// one instant of the daemon pass.
type daemonReading struct {
	work            server.WorkRow // the ledger's causes summed
	cache           wave.CacheInfo
	server, harness cpuTimes
	in, out         int64 // bytes the traced connection has carried
}

func readDaemon(ws *wireSystem, cc *countingConn) (r daemonReading, err error) {
	rows, err := ws.ctl.Work()
	if err != nil {
		return r, err
	}
	for _, row := range rows {
		r.work.Seeks += row.Seeks
		r.work.BytesRead += row.BytesRead
		r.work.BytesWritten += row.BytesWritten
		r.work.SimUS += row.SimUS
	}
	if r.cache, err = ws.ctl.Cache(); err != nil {
		return r, err
	}
	if r.server, err = ws.cpu(); err != nil {
		return r, err
	}
	if r.harness, err = selfCPU(); err != nil {
		return r, err
	}
	r.in, r.out = cc.in.Load(), cc.out.Load()
	return r, nil
}

// daemonDelta accumulates what the traced replays moved.
type daemonDelta struct {
	work            server.WorkRow
	blocks          wave.BlockCacheStats
	results         wave.ResultCacheStats
	server, harness cpuTimes
	in, out         int64
}

func (d *daemonDelta) add(a, b daemonReading) {
	d.work.Seeks += b.work.Seeks - a.work.Seeks
	d.work.BytesRead += b.work.BytesRead - a.work.BytesRead
	d.work.BytesWritten += b.work.BytesWritten - a.work.BytesWritten
	d.work.SimUS += b.work.SimUS - a.work.SimUS
	d.blocks.Hits += b.cache.Blocks.Hits - a.cache.Blocks.Hits
	d.blocks.Misses += b.cache.Blocks.Misses - a.cache.Blocks.Misses
	d.blocks.Evictions += b.cache.Blocks.Evictions - a.cache.Blocks.Evictions
	d.blocks.SavedSeeks += b.cache.Blocks.SavedSeeks - a.cache.Blocks.SavedSeeks
	d.results.Hits += b.cache.Results.Hits - a.cache.Results.Hits
	d.results.Misses += b.cache.Results.Misses - a.cache.Results.Misses
	d.results.Evictions += b.cache.Results.Evictions - a.cache.Results.Evictions
	d.results.Invalidated += b.cache.Results.Invalidated - a.cache.Results.Invalidated
	d.server.user += b.server.user - a.server.user
	d.server.sys += b.server.sys - a.server.sys
	d.harness.user += b.harness.user - a.harness.user
	d.harness.sys += b.harness.sys - a.harness.sys
	d.in += b.in - a.in
	d.out += b.out - a.out
}
