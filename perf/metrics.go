package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// metricDef names one metric of BENCHMARK.json. bound is the share of
// the parent's median by which it may worsen; per-layer metrics have
// none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system would see, measured
// with tracing off. Every run reports all of them; reportedBy names
// the workloads whose own traffic produces each (the others take it
// from the side lap or the set-up transitions).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"sim_ms_per_op", "ms", "lower", 0.25},
	{"bytes_per_posting", "B", "lower", 0.01},
	{"probe_p50_ms", "ms", "lower", 0.25},
	{"probe_p99_ms", "ms", "lower", 0.25},
	{"mprobe_p50_ms", "ms", "lower", 0.25},
	{"count_p50_ms", "ms", "lower", 0.25},
	{"count_p90_ms", "ms", "lower", 0.25},
	{"topk_p50_ms", "ms", "lower", 0.25},
	{"topk_p90_ms", "ms", "lower", 0.25},
	{"addday_p50_ms", "ms", "lower", 0.25},
	{"addday_p90_ms", "ms", "lower", 0.25},
}

// measured is one metric's value with where it came from.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`      // samples behind a percentile
	Source string  `json:"source,omitempty"` // timed or side lap
}

// latency returns kind's latency summary and its source: the timed
// phase when the workload's traffic has the kind, else the side lap
// (for ADDDAY, together with the transitions of the run's set-ups).
// With top it is the summary the kind's top percentile is read from,
// which is the side lap's for a kind the traffic sends too rarely.
func (res *runResult) latency(kind opKind, top bool) (summary, string) {
	name := kindNames[kind]
	w := workloadByName(res.Workload)
	if s, ok := res.Lat[name]; ok && (!top || w.timesTop(kind)) {
		return s, "timed"
	}
	if s, ok := res.Side[name]; ok {
		return s, "side lap"
	}
	return summary{}, "none"
}

// metrics derives the end-to-end metrics of one run. sim_ms_per_op
// counts from the end of set-up, warm-up included, in work and in ops:
// on a caches-off workload that is the steady-state cost per op; with
// caches on it is what filling them cost, spread over the ops that
// profited, and not the ≈ 0 of the warm state, which no bound could
// be a share of.
func (res *runResult) metrics() map[string]measured {
	ops := float64(res.Ops)
	m := map[string]measured{
		"setup_s":           {Value: median(res.SetupS), N: len(res.SetupS)},
		"ops_per_s":         {Value: ops / res.ElapsedS, N: res.Ops},
		"cpu_us_per_op":     {Value: res.CPUUS / ops},
		"rss_peak_mb":       {Value: res.RSSPeakMB},
		"sim_ms_per_op":     {Value: res.SimUS / 1000 / float64(res.SimOps)},
		"bytes_per_posting": {Value: float64(res.Bytes) / float64(res.Days*res.PostingsPerDay)},
	}
	pct := func(metric string, kind opKind, p float64) {
		s, src := res.latency(kind, p > 50)
		v := s.P50MS
		switch p {
		case 90:
			v = s.P90MS
		case 99:
			v = s.P99MS
		}
		m[metric] = measured{Value: v, N: s.N, Source: src}
	}
	pct("probe_p50_ms", opProbe, 50)
	pct("probe_p99_ms", opProbe, 99)
	pct("mprobe_p50_ms", opMProbe, 50)
	pct("count_p50_ms", opCount, 50)
	pct("count_p90_ms", opCount, 90)
	pct("topk_p50_ms", opTopK, 50)
	pct("topk_p90_ms", opTopK, 90)
	pct("addday_p50_ms", opAddDay, 50)
	pct("addday_p90_ms", opAddDay, 90)
	for _, d := range endToEnd {
		v := m[d.name]
		v.Unit = d.unit
		m[d.name] = v
	}
	return m
}

// printMetrics prints defs' metrics of m by name, one per line, with
// unit and, for percentiles, sample count and source.
func printMetrics(workload string, defs []metricDef, m map[string]measured) {
	for _, d := range defs {
		v := m[d.name]
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Source != "" {
			note += " (" + v.Source + ")"
		}
		fmt.Printf("%-14s %-34s %14.4f %-6s%s\n", workload, d.name, v.Value, v.Unit, note)
	}
}

// runSeconds is the timed phase the driver asks for. The driver makes
// 4 + 22 × 7 runs inside 3 420 s, so a run may take ≈ 21 s; one takes
// 13–18.5 s at 8 s, nearly all of it phases of fixed length, so a
// slower machine lengthens only set-up and the build.
const runSeconds = 8

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the harness cannot drift (a test compares them).
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // strings and numbers only
	}
	return b.Bytes()
}
