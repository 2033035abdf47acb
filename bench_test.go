package waveindex

import (
	"context"
	"fmt"
	"testing"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/experiments"
	"waveindex/internal/index"
	"waveindex/internal/obs"
	"waveindex/internal/simdisk"
	"waveindex/internal/workload"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// --- Tables 1-7: transition traces -----------------------------------
//
// One benchmark per example table: the cost of rolling the example's
// wave index forward one day on the phantom backend (pure algorithm
// overhead, no data movement).

func benchTrace(b *testing.B, kind core.Kind, w, n int) {
	b.Helper()
	bk := core.NewPhantomBackend(nil, nil)
	s, err := core.NewScheme(kind, core.Config{W: w, N: n}, bk)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Transition(s.LastDay() + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DEL(b *testing.B)             { benchTrace(b, core.KindDEL, 10, 2) }
func BenchmarkTable2REINDEX(b *testing.B)         { benchTrace(b, core.KindREINDEX, 10, 2) }
func BenchmarkTable3WATAStar(b *testing.B)        { benchTrace(b, core.KindWATAStar, 10, 4) }
func BenchmarkTable4WATAGreedy(b *testing.B)      { benchTrace(b, core.KindWATAStar, 10, 4) }
func BenchmarkTable5REINDEXPlus(b *testing.B)     { benchTrace(b, core.KindREINDEXPlus, 10, 2) }
func BenchmarkTable6REINDEXPlusPlus(b *testing.B) { benchTrace(b, core.KindREINDEXPlusPlus, 10, 2) }
func BenchmarkTable7RATAStar(b *testing.B)        { benchTrace(b, core.KindRATAStar, 10, 4) }

// --- Tables 8-11: the §5 analysis ------------------------------------
//
// Each benchmark regenerates the measured table once per iteration and
// reports the headline cells as custom metrics so `go test -bench` output
// doubles as the reproduction record.

func benchTable(b *testing.B, fn func() (experiments.Table, error), metricRows map[core.Kind]string, unit string) {
	b.Helper()
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	for k, col := range metricRows {
		if row, ok := tab.Row(k); ok {
			b.ReportMetric(row.Values[col], fmt.Sprintf("%s_%s_%s", sanitize(k.String()), sanitize(col), unit))
		}
	}
}

func sanitize(s string) string {
	out := []rune{}
	for _, r := range s {
		switch r {
		case '*', '+':
			out = append(out, 'x')
		case ' ':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkTable8Space(b *testing.B) {
	benchTable(b, experiments.Table8, map[core.Kind]string{
		core.KindDEL:     "avg operation",
		core.KindREINDEX: "avg operation",
	}, "S")
}

func BenchmarkTable9Query(b *testing.B) {
	benchTable(b, experiments.Table9, map[core.Kind]string{
		core.KindDEL:     "TimedSegmentScan",
		core.KindREINDEX: "TimedSegmentScan",
	}, "s")
}

func BenchmarkTable10MaintenanceSimple(b *testing.B) {
	benchTable(b, experiments.Table10, map[core.Kind]string{
		core.KindDEL:     "transition",
		core.KindREINDEX: "transition",
	}, "s")
}

func BenchmarkTable11MaintenancePacked(b *testing.B) {
	benchTable(b, experiments.Table11, map[core.Kind]string{
		core.KindDEL:     "transition",
		core.KindREINDEX: "transition",
	}, "s")
}

// --- Figures 2-11 -----------------------------------------------------

func benchFigure(b *testing.B, fn func() (experiments.Figure, error), series string, x float64, unit string) {
	b.Helper()
	var fig experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	if s, ok := fig.FindSeries(series); ok {
		b.ReportMetric(s.YAt(x), fmt.Sprintf("%s_at_%g_%s", sanitize(series), x, unit))
	}
}

func BenchmarkFigure2UsenetVolume(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure2()
	}
	b.ReportMetric(fig.Series[0].YAt(3), "wednesday_postings")
	b.ReportMetric(fig.Series[0].YAt(7), "sunday_postings")
}

func BenchmarkFigure3SCAMSpace(b *testing.B) {
	benchFigure(b, experiments.Figure3, "REINDEX", 4, "MB")
}

func BenchmarkFigure4SCAMTransition(b *testing.B) {
	benchFigure(b, experiments.Figure4, "REINDEX", 4, "s")
}

func BenchmarkFigure5SCAMTotalWork(b *testing.B) {
	benchFigure(b, experiments.Figure5, "REINDEX", 4, "s")
}

func BenchmarkFigure6WSETotalWork(b *testing.B) {
	benchFigure(b, experiments.Figure6, "DEL", 1, "s")
}

func BenchmarkFigure7TPCDPacked(b *testing.B) {
	benchFigure(b, experiments.Figure7, "DEL", 1, "s")
}

func BenchmarkFigure8TPCDSimple(b *testing.B) {
	benchFigure(b, experiments.Figure8, "WATA*", 10, "s")
}

func BenchmarkFigure9WindowScaling(b *testing.B) {
	benchFigure(b, experiments.Figure9, "WATA*", 42, "s")
}

func BenchmarkFigure10DataScaling(b *testing.B) {
	benchFigure(b, experiments.Figure10, "REINDEX", 5, "s")
}

func BenchmarkFigure11WATASizeRatio(b *testing.B) {
	benchFigure(b, experiments.Figure11, "WATA* / eager", 4, "ratio")
}

// --- Ablations over DESIGN.md's called-out choices --------------------

// BenchmarkAblationGrowthFactor measures real ingest cost on the data
// backend as the CONTIGUOUS growth factor varies: small g saves space but
// pays more bucket-copy work on skewed keys.
func BenchmarkAblationGrowthFactor(b *testing.B) {
	for _, g := range []float64{1.08, 1.5, 2.0, 3.0} {
		b.Run(fmt.Sprintf("g=%.2f", g), func(b *testing.B) {
			gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 3, ArticlesPerDay: 60, WordsPerArticle: 15})
			store := simdisk.NewRAM(simdisk.Config{})
			defer store.Close()
			idx := index.NewEmpty(store, index.Options{Growth: g})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Add(gen.Day(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(idx.SizeBytes())/float64(idx.NumEntries()*index.EntrySize), "space_overhead_x")
		})
	}
}

// BenchmarkAblationDirectory compares hash and B+Tree directories on the
// probe path.
func BenchmarkAblationDirectory(b *testing.B) {
	for _, kind := range []index.DirKind{index.HashDir, index.BTreeDir} {
		b.Run(kind.String(), func(b *testing.B) {
			gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 3, ArticlesPerDay: 100, WordsPerArticle: 20, VocabSize: 3000})
			store := simdisk.NewRAM(simdisk.Config{})
			defer store.Close()
			idx, err := index.BuildPacked(store, index.Options{Dir: kind}, gen.Day(1), gen.Day(2), gen.Day(3))
			if err != nil {
				b.Fatal(err)
			}
			vocab := gen.Vocab()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Probe(vocab.Word(i%1000), 1, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUpdateTechnique measures a full data-bearing daily
// transition per §2.1 technique (DEL, W=7, n=2).
func BenchmarkAblationUpdateTechnique(b *testing.B) {
	for _, tech := range []core.Technique{core.InPlace, core.SimpleShadow, core.PackedShadow} {
		b.Run(tech.String(), func(b *testing.B) {
			benchDataTransitions(b, core.KindDEL, tech)
		})
	}
}

// BenchmarkAblationScheme measures real data-bearing transitions per
// scheme (simple shadowing, W=7, n=2-4).
func BenchmarkAblationScheme(b *testing.B) {
	for _, kind := range core.Kinds {
		b.Run(sanitize(kind.String()), func(b *testing.B) {
			benchDataTransitions(b, kind, core.SimpleShadow)
		})
	}
}

func benchDataTransitions(b *testing.B, kind core.Kind, tech core.Technique) {
	b.Helper()
	const w = 7
	n := 2
	if n < kind.MinN() {
		n = kind.MinN()
	}
	gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 5, ArticlesPerDay: 40, WordsPerArticle: 10})
	store := simdisk.NewRAM(simdisk.Config{})
	defer store.Close()
	src := core.NewMemorySource(w + 2)
	for d := 1; d <= w; d++ {
		src.Put(gen.Day(d))
	}
	bk := core.NewDataBackend(store, index.Options{}, src, nil)
	s, err := core.NewScheme(kind, core.Config{W: w, N: n, Technique: tech}, bk)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := s.LastDay() + 1
		b.StopTimer()
		src.Put(gen.Day(d))
		b.StartTimer()
		if err := s.Transition(d); err != nil {
			b.Fatal(err)
		}
	}
}

// simTimer accumulates per-iteration simulated disk time across a
// multi-store index: serial elapsed is the sum of the per-store deltas
// (devices visited one after another), parallel elapsed is the busiest
// store's delta (devices driven concurrently).
type simTimer struct {
	idx          *wave.Index
	base         []simdisk.Stats
	serial, span time.Duration
}

func newSimTimer(idx *wave.Index) *simTimer {
	return &simTimer{idx: idx, base: idx.Stats().PerStore}
}

func (t *simTimer) lap() {
	cur := t.idx.Stats().PerStore
	var max time.Duration
	for i := range cur {
		d := cur[i].SimTime - t.base[i].SimTime
		t.serial += d
		if d > max {
			max = d
		}
	}
	t.span += max
	t.base = cur
}

func (t *simTimer) report(b *testing.B, mode string) {
	b.Helper()
	elapsed := t.serial
	if mode == "parallel" {
		elapsed = t.span
	}
	b.ReportMetric(float64(elapsed)/float64(time.Millisecond)/float64(b.N), "sim_ms/op")
}

// benchParallelIndex builds a data-bearing wave spread over one store
// per constituent for the serial-vs-parallel ablations.
func benchParallelIndex(b *testing.B, window, n int) (*wave.Index, *workload.Vocabulary) {
	b.Helper()
	idx, err := wave.New(wave.Config{Window: window, Indexes: n, Scheme: wave.DEL, Update: wave.PackedShadow, Stores: n})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { idx.Close() })
	gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 9, ArticlesPerDay: 80, WordsPerArticle: 12})
	for d := 1; d <= window; d++ {
		if err := idx.AddDay(d, gen.Day(d).Postings); err != nil {
			b.Fatal(err)
		}
	}
	return idx, gen.Vocab()
}

// BenchmarkAblationParallelProbe compares the serial and concurrent probe
// paths over 6 constituents spread across 6 simulated disks (the §8
// multi-disk direction). sim_ms/op is the simulated elapsed disk time:
// sum of per-store deltas for the serial path, busiest store for the
// parallel one.
func BenchmarkAblationParallelProbe(b *testing.B) {
	for _, mode := range []string{"serial", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			idx, vocab := benchParallelIndex(b, 12, 6)
			if mode == "serial" {
				idx.SetParallelism(1)
			}
			tm := newSimTimer(idx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Probe(context.Background(), vocab.Word(i%500)); err != nil {
					b.Fatal(err)
				}
				tm.lap()
			}
			tm.report(b, mode)
		})
	}
}

// BenchmarkParallelScan compares a whole-window segment scan with the
// engine forced to one worker (serial) against the streaming k-way
// merged scan with one worker per store (parallel).
func BenchmarkParallelScan(b *testing.B) {
	for _, mode := range []string{"serial", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			idx, _ := benchParallelIndex(b, 12, 6)
			if mode == "serial" {
				idx.SetParallelism(1)
			}
			from, to := idx.Window()
			tm := newSimTimer(idx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := idx.ScanRange(context.Background(), from, to, func(string, wave.Entry) bool {
					n++
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("scan visited no entries")
				}
				tm.lap()
			}
			tm.report(b, mode)
		})
	}
}

// BenchmarkMetricsOverhead measures the instrumentation tax: the
// BenchmarkParallelScan workload with the default metrics registry
// against the same workload with DisableMetrics (no registry, no
// tracer, no slow-query log — queries skip instrumentation entirely).
// The two sim_ms/op figures should be within noise; wall-clock ns/op
// overhead should stay under a few percent.
func BenchmarkMetricsOverhead(b *testing.B) {
	for _, mode := range []string{"metrics", "disabled"} {
		b.Run(mode, func(b *testing.B) {
			cfg := wave.Config{Window: 12, Indexes: 6, Scheme: wave.DEL, Update: wave.PackedShadow, Stores: 6}
			if mode == "disabled" {
				cfg.DisableMetrics = true
			}
			idx, err := wave.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { idx.Close() })
			gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 9, ArticlesPerDay: 80, WordsPerArticle: 12})
			for d := 1; d <= 12; d++ {
				if err := idx.AddDay(d, gen.Day(d).Postings); err != nil {
					b.Fatal(err)
				}
			}
			from, to := idx.Window()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := idx.ScanRange(context.Background(), from, to, func(string, wave.Entry) bool {
					n++
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("scan visited no entries")
				}
			}
		})
	}
}

// BenchmarkEventBusOverhead measures the observability plane's query-
// path tax: the BenchmarkMetricsOverhead workload with the event
// timeline, span→event adapter, and SLO engine wired the way waved
// wires them, against the bare index. Every scan records into the SLO
// engine's three decayed windows and flows through the SpanEvents
// adapter (which drops non-slow query spans after one atomic load).
// The ns/op gap is the per-query overhead and should stay under ~2%.
func BenchmarkEventBusOverhead(b *testing.B) {
	for _, mode := range []string{"baseline", "events"} {
		b.Run(mode, func(b *testing.B) {
			cfg := wave.Config{Window: 12, Indexes: 6, Scheme: wave.DEL, Update: wave.PackedShadow, Stores: 6}
			var engine *obs.Engine
			if mode == "events" {
				bus := obs.NewBus(4096)
				engine = obs.NewEngine(obs.Objectives{LatencyUS: 50_000}, bus)
				// A high slow threshold, as in production: the adapter
				// inspects every whole-query span but publishes none.
				cfg.Trace = obs.NewSpanEvents(bus, time.Second, nil)
			}
			idx, err := wave.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { idx.Close() })
			gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 9, ArticlesPerDay: 80, WordsPerArticle: 12})
			for d := 1; d <= 12; d++ {
				if err := idx.AddDay(d, gen.Day(d).Postings); err != nil {
					b.Fatal(err)
				}
			}
			from, to := idx.Window()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				n := 0
				if err := idx.ScanRange(context.Background(), from, to, func(string, wave.Entry) bool {
					n++
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("scan visited no entries")
				}
				engine.Record("scan", time.Since(start), nil) // nil-safe no-op in baseline
			}
		})
	}
}

// BenchmarkMultiProbe compares probing a key batch one key at a time
// against one batched MultiProbe, which reorders the batch by disk
// position so adjacent buckets cost no extra seek.
func BenchmarkMultiProbe(b *testing.B) {
	for _, mode := range []string{"perkey", "batched"} {
		b.Run(mode, func(b *testing.B) {
			idx, vocab := benchParallelIndex(b, 12, 4)
			from, to := idx.Window()
			// Popular keys in descending rank: an arbitrary client order
			// that is backwards on disk, so the per-key loop seeks per key.
			keys := make([]string, 0, 16)
			for r := 15; r >= 0; r-- {
				keys = append(keys, vocab.Word(r))
			}
			seekBase := idx.Stats().Store.Seeks
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "perkey" {
					for _, k := range keys {
						if _, err := idx.ProbeRange(context.Background(), k, from, to); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					if _, err := idx.MultiProbeRange(context.Background(), keys, from, to); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(idx.Stats().Store.Seeks-seekBase)/float64(b.N), "disk_seeks/op")
		})
	}
}

// BenchmarkAblationWATAVariants compares the WATA design space on the
// Figure 11 experiment: peak index size ratio vs the eager baseline over
// 200 days of Usenet volumes (W=7, n=3). WATA* (threshold 0) is
// length-optimal (Theorem 1); the greedy Table 4 split and size-aware
// thresholds trade a longer soft window for different size profiles.
func BenchmarkAblationWATAVariants(b *testing.B) {
	const days, w, n = 200, 7, 3
	vol := workload.UsenetVolume{Seed: 1997}
	sizes := core.SizeFunc{Packed: vol.PackedBytes, Overhead: 1}
	var eagerMax int64
	for d := w; d <= days; d++ {
		var sum int64
		for k := d - w + 1; k <= d; k++ {
			sum += vol.PackedBytes(k)
		}
		if sum > eagerMax {
			eagerMax = sum
		}
	}
	variants := map[string]func() (core.Scheme, error){
		"WATA-star": func() (core.Scheme, error) {
			return core.NewWATAStar(core.Config{W: w, N: n, Technique: core.InPlace}, core.NewPhantomBackend(sizes, nil))
		},
		"WATA-greedy": func() (core.Scheme, error) {
			return core.NewWATAGreedy(core.Config{W: w, N: n, Technique: core.InPlace}, core.NewPhantomBackend(sizes, nil))
		},
		"WATA-size-aware-300MB": func() (core.Scheme, error) {
			return core.NewWATASizeAware(core.Config{W: w, N: n, Technique: core.InPlace}, core.NewPhantomBackend(sizes, nil), 300<<20)
		},
	}
	for name, mk := range variants {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				s, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Start(); err != nil {
					b.Fatal(err)
				}
				lazyMax := s.Wave().SizeBytes()
				for d := w + 1; d <= days; d++ {
					if err := s.Transition(d); err != nil {
						b.Fatal(err)
					}
					if sz := s.Wave().SizeBytes(); sz > lazyMax {
						lazyMax = sz
					}
				}
				s.Close()
				ratio = float64(lazyMax) / float64(eagerMax)
			}
			b.ReportMetric(ratio, "size_ratio")
		})
	}
}

// BenchmarkAblationVacuumPeriod measures the §7 vacuum baseline's storage
// slack and per-transition cost as the vacuuming period grows.
func BenchmarkAblationVacuumPeriod(b *testing.B) {
	for _, every := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			bk := core.NewPhantomBackend(core.UniformSizes{S: 100, SPrime: 140}, nil)
			s, err := core.NewVacuum(core.Config{W: 7, N: 1}, bk, every)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			var peak int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Transition(s.LastDay() + 1); err != nil {
					b.Fatal(err)
				}
				if l := bk.Meter().Live(); l > peak {
					peak = l
				}
			}
			b.ReportMetric(float64(peak)/700, "peak_vs_window_x")
		})
	}
}

// BenchmarkPublicAPIIngest measures end-to-end AddDay throughput through
// the public wave API.
func BenchmarkPublicAPIIngest(b *testing.B) {
	idx, err := wave.New(wave.Config{Window: 7, Indexes: 3, Scheme: wave.REINDEXPlusPlus})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 1, ArticlesPerDay: 50, WordsPerArticle: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := gen.Day(i + 1)
		b.StartTimer()
		if err := idx.AddDay(i+1, batch.Postings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBuild measures the maintenance engine's build
// fan-out: the wave start (n constituents built over n stores) with the
// build pool held to one worker against the pooled build. sim_ms/op is
// the simulated elapsed disk time of the start — sum of per-store
// deltas when serial, busiest store when parallel. The per-store
// charges themselves are identical in both modes; only the elapsed
// span shrinks.
func BenchmarkParallelBuild(b *testing.B) {
	const window, n = 8, 4
	for _, mode := range []string{"serial", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			par := n
			if mode == "serial" {
				par = 1
			}
			var elapsed time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				idx, err := wave.New(wave.Config{
					Window: window, Indexes: n, Scheme: wave.REINDEX,
					Update: wave.PackedShadow, Stores: n, Parallelism: par,
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 9, ArticlesPerDay: 60, WordsPerArticle: 12})
				for d := 1; d < window; d++ {
					if err := idx.AddDay(d, gen.Day(d).Postings); err != nil {
						b.Fatal(err)
					}
				}
				base := idx.Stats().PerStore
				b.StartTimer()
				// Day `window` completes the window and triggers the start:
				// every constituent is built here.
				if err := idx.AddDay(window, gen.Day(window).Postings); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				cur := idx.Stats().PerStore
				var sum, span time.Duration
				for j := range cur {
					d := cur[j].SimTime - base[j].SimTime
					sum += d
					if d > span {
						span = d
					}
				}
				if mode == "serial" {
					elapsed += sum
				} else {
					elapsed += span
				}
				idx.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(elapsed)/float64(time.Millisecond)/float64(b.N), "sim_ms/op")
		})
	}
}

// BenchmarkAsyncTransition measures what the ingest caller actually
// waits for per day: synchronous AddDay blocks for the whole
// transition, AddDayAsync only for the enqueue (the transition runs on
// the maintenance goroutine behind the caller's back). Wall-clock
// ns/op is the caller-visible blocking; sim_ms/op is the per-day
// simulated disk work, identical in both modes — pipelining moves the
// work off the caller's path, it does not shrink it.
func BenchmarkAsyncTransition(b *testing.B) {
	const window, n = 7, 3
	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			idx, err := wave.New(wave.Config{
				Window: window, Indexes: n, Scheme: wave.REINDEXPlusPlus,
				Update: wave.PackedShadow, Stores: 2, Parallelism: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { idx.Close() })
			gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 9, ArticlesPerDay: 60, WordsPerArticle: 12})
			for d := 1; d <= window; d++ {
				if err := idx.AddDay(d, gen.Day(d).Postings); err != nil {
					b.Fatal(err)
				}
			}
			batches := make([]*index.Batch, b.N)
			for i := range batches {
				batches[i] = gen.Day(window + 1 + i)
			}
			simBase := idx.Stats().Store.SimTime
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				day := window + 1 + i
				if mode == "sync" {
					err = idx.AddDay(day, batches[i].Postings)
				} else {
					err = idx.AddDayAsync(day, batches[i].Postings)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if mode == "async" {
				if err := idx.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sim := idx.Stats().Store.SimTime - simBase
			b.ReportMetric(float64(sim)/float64(time.Millisecond)/float64(b.N), "sim_ms/op")
		})
	}
}

// --- Sharded scale-out ------------------------------------------------

// shardSimTimer accumulates per-iteration simulated elapsed time for a
// hash-partitioned fleet: each shard owns its own simulated device, so
// one scatter-gathered operation's elapsed time is the busiest shard's
// delta (at one shard that is the whole device's delta, the serial
// baseline).
type shardSimTimer struct {
	r    *shard.Router
	base []time.Duration
	span time.Duration
}

func shardSimTotals(r *shard.Router) []time.Duration {
	per := r.ShardStats()
	out := make([]time.Duration, len(per))
	for i, st := range per {
		for _, s := range st.PerStore {
			out[i] += s.SimTime
		}
	}
	return out
}

func newShardSimTimer(r *shard.Router) *shardSimTimer {
	return &shardSimTimer{r: r, base: shardSimTotals(r)}
}

func (t *shardSimTimer) lap() {
	cur := shardSimTotals(t.r)
	var max time.Duration
	for i := range cur {
		if d := cur[i] - t.base[i]; d > max {
			max = d
		}
	}
	t.span += max
	t.base = cur
}

func (t *shardSimTimer) report(b *testing.B) {
	b.Helper()
	b.ReportMetric(float64(t.span)/float64(time.Millisecond)/float64(b.N), "sim_ms/op")
}

// benchShardedRouter builds a hash-partitioned DEL fleet (packed
// shadow, W=8, n=2, one simulated disk and engine parallelism 1 per
// shard) with a filled window. The day volume is heavy enough that
// sequential transfer, not the fixed two seeks each shard pays per
// ingested batch, dominates the simulated ingest cost — an
// already-batched light day is seek-bound and cannot scale out.
func benchShardedRouter(b *testing.B, shards int) (*shard.Router, *workload.NewsGenerator) {
	b.Helper()
	const window = 8
	r, err := shard.New(shard.Config{
		Shards: shards,
		Base: wave.Config{
			Window: window, Indexes: 2,
			Scheme: wave.DEL, Update: wave.PackedShadow, Parallelism: 1,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	gen := workload.NewNewsGenerator(workload.NewsConfig{
		Seed: 23, ArticlesPerDay: 2000, WordsPerArticle: 15, VocabSize: 1600,
	})
	for d := 1; d <= window; d++ {
		if err := r.AddDay(d, gen.Day(d).Postings); err != nil {
			b.Fatal(err)
		}
	}
	return r, gen
}

// BenchmarkShardedProbe measures a stream of single-key probes against
// fleets of growing shard count: each probe touches only its owning
// shard, so the stream spreads across independent devices. sim_ms/op
// should fall roughly linearly with the shard count.
func BenchmarkShardedProbe(b *testing.B) {
	for _, shards := range experiments.DefaultShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r, gen := benchShardedRouter(b, shards)
			vocab := gen.Vocab()
			tm := newShardSimTimer(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 32; k++ {
					if _, err := r.Probe(context.Background(), vocab.Word(k)); err != nil {
						b.Fatal(err)
					}
				}
				tm.lap()
			}
			tm.report(b)
		})
	}
}

// BenchmarkShardedAddDay measures one day's fan-out ingestion: the day
// batch is hash-partitioned and every shard runs its wave transition
// concurrently, so sim_ms/op is the busiest shard's transition.
func BenchmarkShardedAddDay(b *testing.B) {
	for _, shards := range experiments.DefaultShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r, gen := benchShardedRouter(b, shards)
			tm := newShardSimTimer(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				day := 9 + i
				b.StopTimer()
				batch := gen.Day(day)
				b.StartTimer()
				if err := r.AddDay(day, batch.Postings); err != nil {
					b.Fatal(err)
				}
				tm.lap()
			}
			tm.report(b)
		})
	}
}

// BenchmarkAblationBlockCache measures probe cost with and without the
// write-through LRU block cache (wave.Config.CacheBlocks) on a skewed
// query stream — hot buckets are served from memory.
func BenchmarkAblationBlockCache(b *testing.B) {
	for _, cacheBlocks := range []int{0, 1024} {
		name := "none"
		if cacheBlocks > 0 {
			name = fmt.Sprintf("%dblocks", cacheBlocks)
		}
		b.Run(name, func(b *testing.B) {
			idx, err := wave.New(wave.Config{Window: 7, Indexes: 3, Scheme: wave.DEL, CacheBlocks: cacheBlocks})
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			gen := workload.NewNewsGenerator(workload.NewsConfig{Seed: 8, ArticlesPerDay: 100, WordsPerArticle: 15, VocabSize: 2000})
			for d := 1; d <= 7; d++ {
				if err := idx.AddDay(d, gen.Day(d).Postings); err != nil {
					b.Fatal(err)
				}
			}
			vocab := gen.Vocab()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Zipf-hot query stream: mostly the top keys.
				if _, err := idx.Probe(context.Background(), vocab.Word(i%20)); err != nil {
					b.Fatal(err)
				}
			}
			st := idx.Stats()
			b.ReportMetric(float64(st.Store.Seeks)/float64(b.N), "disk_seeks_per_probe")
		})
	}
}

// --- Read path, layer by layer -----------------------------------------
//
// BenchmarkReadPath is the wall-clock counterpart of the sim_ms benches
// above: ns/op, B/op and allocs/op of each query shape perf/ drives, at
// shard.Router, on perf/'s fleet and data (2 shards, window 7, 4 indexes,
// REINDEX, 20 000 words × 4 000 articles × 15 words a day, Zipf 1.2) so
// a read-path change can be placed without the wire in the way.
// entries/op is the number of postings a query returned or folded.
func BenchmarkReadPath(b *testing.B) {
	const (
		window = 7
		vocab  = 20000
		heavy  = 32   // ranks [0, 32): buckets of thousands of entries
		tailLo = 1000 // ranks [1000, vocab): a few entries each
	)
	r, err := shard.New(shard.Config{
		Shards: 2,
		Base:   wave.Config{Window: window, Indexes: 4, Scheme: wave.REINDEX, Update: wave.SimpleShadow},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	gen := workload.NewNewsGenerator(workload.NewsConfig{
		Seed: 5, ArticlesPerDay: 4000, WordsPerArticle: 15, VocabSize: vocab, Skew: 1.2,
	})
	for d := 1; d <= window; d++ {
		if err := r.AddDay(d, gen.Day(d).Postings); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	word := gen.Vocab().Word
	tail := func(i int) string { return word(tailLo + i*7919%(vocab-tailLo)) }
	probe := func(key string) (int, error) {
		es, err := r.Probe(ctx, key)
		return len(es), err
	}
	for _, q := range []struct {
		name string
		run  func(i int) (entries int, err error)
	}{
		{"tail", func(i int) (int, error) { return probe(tail(i)) }},
		{"heavy", func(i int) (int, error) { return probe(word(i % heavy)) }},
		{"mix17", func(i int) (int, error) {
			// perf's embed_probe: 16 rare keys, then 1 frequent.
			if i%17 == 16 {
				return probe(word(i / 17 % heavy))
			}
			return probe(tail(i))
		}},
		{"mprobe64", func(i int) (int, error) {
			keys := make([]string, 64)
			for j := range keys {
				keys[j] = word(heavy + (j*15+i*7)%(tailLo-heavy))
			}
			m, err := r.MultiProbe(ctx, keys)
			n := 0
			for _, es := range m {
				n += len(es)
			}
			return n, err
		}},
		{"count2d", func(int) (int, error) { return r.CountRange(ctx, window-1, window) }},
		{"topk10", func(int) (int, error) {
			top, err := r.TopKeys(ctx, 10, 1, window)
			if err == nil && len(top) != 10 {
				err = fmt.Errorf("TopKeys returned %d keys", len(top))
			}
			return window * 4000 * 15, err
		}},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			entries := 0
			for i := 0; i < b.N; i++ {
				n, err := q.run(i)
				if err != nil {
					b.Fatal(err)
				}
				entries += n
			}
			b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
		})
	}
}
