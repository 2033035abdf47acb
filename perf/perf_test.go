package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"waveindex/internal/server"
	"waveindex/internal/workload"
	"waveindex/wave"
)

// TestMain lets the test binary stand in for the harness when
// embed_probe re-executes it as its child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPct(c.n); got != c.want {
			t.Errorf("highestPct(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P50MS != 3 || s.Highest != 0 {
		t.Errorf("summarize of 5 samples = %+v, want n=5 p50=3 and no percentile supported", s)
	}
	if s := summarize(xs); s.Highest != 99 || s.HighestMS != 990 {
		t.Errorf("summarize of 1000 samples reports p%g = %g, want p99 = 990", s.Highest, s.HighestMS)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

var tinyScale = scale{articlesPerDay: 40}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := newDataset(5, tinyScale), newDataset(5, tinyScale), newDataset(6, tinyScale)
	if !reflect.DeepEqual(a.pool, b.pool) {
		t.Fatal("the same seed gave different day batches")
	}
	if reflect.DeepEqual(a.pool, other.pool) {
		t.Fatal("different seeds gave the same day batches")
	}
	for _, d := range []int{1, 21, 22, 43} {
		if len(a.batch(d, false)) != tinyScale.postingsPerDay() {
			t.Fatalf("day %d has %d postings, want %d", d, len(a.batch(d, false)), tinyScale.postingsPerDay())
		}
	}
	// Day 22 recycles day 1's postings under the new day number.
	for i, p := range a.batch(22, true) {
		q := a.pool[0][i]
		if p.Key != q.Key || p.Entry.RecordID != q.Entry.RecordID || p.Entry.Aux != q.Entry.Aux || p.Entry.Day != 22 {
			t.Fatalf("day 22 posting %d = %+v, want day 1's %+v relabelled", i, p, q)
		}
	}

	for _, w := range workloads {
		ops := func(ds *dataset, caller int) []op {
			day := setupDays + 1
			st := newStream(ds, w, caller, &day)
			var out []op
			for i := 0; i < 50; i++ {
				o := st.next()
				o.postings = nil // compared through the pool above
				out = append(out, o)
			}
			return out
		}
		if !reflect.DeepEqual(ops(a, 0), ops(b, 0)) {
			t.Errorf("%s: the same seed gave caller 0 different ops", w.name)
		}
		if w.kinds[0] != opAddDay && reflect.DeepEqual(ops(a, 0), ops(other, 0)) {
			t.Errorf("%s: different seeds gave caller 0 the same ops", w.name)
		}
	}
}

func TestKeyStreamsStayInTheirRanks(t *testing.T) {
	k := newKeyStream(9)
	for i := 0; i < 10000; i++ {
		if r := k.tail(); r < tailLo || r >= vocabSize {
			t.Fatalf("tail drew rank %d", r)
		}
		if r := k.heavy(); r < 0 || r >= heavyRanks {
			t.Fatalf("heavy drew rank %d", r)
		}
		if r := k.mid(); r < midLo || r >= tailLo {
			t.Fatalf("mid drew rank %d", r)
		}
		if r := k.hot(); r < heavyRanks || r >= vocabSize {
			t.Fatalf("hot drew rank %d", r)
		}
	}
}

// handBuilt is a dataset small enough to check by eye: one article of
// 15 words a day. On the day of pool slot s, w00000 has 1+s%3 entries,
// w00001 has 2, and the rest are words nobody else uses.
func handBuilt() *dataset {
	ds := &dataset{seed: 1, sc: scale{articlesPerDay: 1}, vocab: workload.NewVocabulary(vocabSize)}
	for s := range ds.pool {
		var ps []wave.Posting
		add := func(rank int) {
			ps = append(ps, wave.Posting{Key: ds.vocab.Word(rank), Entry: wave.Entry{RecordID: uint64(100 * (s + 1)), Aux: uint32(len(ps)), Day: int32(s + 1)}})
		}
		for i := 0; i < 1+s%3; i++ {
			add(0)
		}
		add(1)
		add(1)
		for len(ps) < wordsPerArticle {
			add(10000 + 100*s + len(ps))
		}
		ds.pool[s] = ps
		ds.off[s], ds.ent[s] = groupByRank(ps)
	}
	return ds
}

func TestOracleOnAHandBuiltWindow(t *testing.T) {
	ds := handBuilt()
	or := newOracle(ds)
	const end = 23 // window 17..23: pool slots 16..20, then 0 and 1 again
	from := end - windowDays + 1

	// w00000 has 1+s%3 entries on slot s: slots 16..20, 0, 1 give 2+3+1+2+3+1+2.
	if got := ds.countRange(0, from, end); got != 14 {
		t.Fatalf("oracle counts %d entries of w00000 in [%d, %d], want 14", got, from, end)
	}
	var want []wave.Entry
	for d := from; d <= end; d++ {
		s := slot(d)
		for i := 0; i < 1+s%3; i++ {
			want = append(want, wave.Entry{Day: int32(d), RecordID: uint64(100 * (s + 1)), Aux: uint32(i)})
		}
	}
	if got := ds.entries(0, from, end); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle entries of w00000:\n got %v\nwant %v", got, want)
	}

	probe := &op{kind: opProbe, rank: 0}
	if v := or.check(probe, &reply{entries: want}, end, end, true); v != exact {
		t.Errorf("the exact answer judged %d, want exact", v)
	}
	if v := or.check(probe, &reply{entries: want[1:]}, end, end, false); v != wrong {
		t.Errorf("an answer one entry short judged %d, want wrong", v)
	}
	swapped := append([]wave.Entry(nil), want...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if v := or.check(probe, &reply{entries: swapped}, end, end, false); v != exact {
		t.Errorf("a count check caught the order: judged %d", v)
	}
	if v := or.check(probe, &reply{entries: swapped}, end, end, true); v != wrong {
		t.Errorf("a full check missed two entries out of order: judged %d", v)
	}

	// A read racing the transition to day 24 may see window 23, window
	// 24, or the six days they share, and nothing else.
	shared := ds.entries(0, from+1, end)
	if v := or.check(probe, &reply{entries: shared}, end, end+1, true); v != transitional {
		t.Errorf("the shared six days judged %d during a transition, want transitional", v)
	}
	if v := or.check(probe, &reply{entries: shared}, end, end, true); v != wrong {
		t.Errorf("the shared six days judged %d with no transition in flight, want wrong", v)
	}
	if v := or.check(probe, &reply{entries: ds.entries(0, from+1, end+1)}, end, end+1, true); v != exact {
		t.Errorf("the next window judged %d during a transition, want exact", v)
	}
	if v := or.check(probe, &reply{entries: ds.entries(0, from+2, end+1)}, end, end+1, true); v != wrong {
		t.Errorf("five days judged %d, want wrong", v)
	}

	mp := &op{kind: opMProbe, keys: []string{"w00001", "w00000", "w00001", "w19999"}}
	good := map[string][]wave.Entry{"w00000": want, "w00001": ds.entries(1, from, end)}
	if v := or.check(mp, &reply{byKey: good}, end, end, true); v != exact {
		t.Errorf("the exact MPROBE answer judged %d", v)
	}
	extra := map[string][]wave.Entry{"w00000": want, "w00001": good["w00001"], "w00002": nil}
	if v := or.check(mp, &reply{byKey: extra}, end, end, true); v != wrong {
		t.Errorf("an MPROBE answer with a key nobody asked for judged %d", v)
	}
	if v := or.check(mp, &reply{byKey: map[string][]wave.Entry{"w00000": want}}, end, end, true); v != wrong {
		t.Errorf("an MPROBE answer missing a key judged %d", v)
	}

	if v := or.check(&op{kind: opCount}, &reply{n: countDays * wordsPerArticle}, end, end, false); v != exact {
		t.Errorf("COUNT of %d days judged %d", countDays, v)
	}
	if v := or.check(&op{kind: opCount}, &reply{n: countDays*wordsPerArticle - 1}, end, end, false); v != wrong {
		t.Errorf("COUNT one short judged %d", v)
	}

	// w00000 and w00001 both have 14 entries in the window: the tie goes
	// to the smaller key. Every other word has one.
	top := or.topKeys(from, end)
	if len(top) != topK || top[0] != (server.KeyCount{Key: "w00000", Count: 14}) || top[1] != (server.KeyCount{Key: "w00001", Count: 14}) || top[2].Count != 1 {
		t.Fatalf("oracle TOPK = %v", top)
	}
	if v := or.check(&op{kind: opTopK}, &reply{top: top}, end, end, false); v != exact {
		t.Errorf("the exact TOPK answer judged %d", v)
	}
	flipped := append([]server.KeyCount(nil), top...)
	flipped[0], flipped[1] = flipped[1], flipped[0]
	if v := or.check(&op{kind: opTopK}, &reply{top: flipped}, end, end, false); v != wrong {
		t.Errorf("TOPK with the tie broken the wrong way judged %d", v)
	}
}

// quickEnv is an environment whose runs take a fraction of a second:
// tiny days, one boot, short fixed series.
func quickEnv(t *testing.T) *environment {
	t.Helper()
	env, err := newEnvironment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env.logf = t.Logf
	env.sizes = sizes{
		ArticlesPerDay: tinyScale.articlesPerDay,
		Setups:         1,
		WarmupMS:       50,
		SideOps:        [numKinds]int{opMProbe: 5, opCount: 3, opTopK: 3, opAddDay: 2},
		SideMS:         [numKinds]int{20, 20, 20, 20, 20},
		LadderDiv:      6,
	}
	t.Cleanup(killChildren)
	return env
}

func TestSmokeEveryWorkload(t *testing.T) {
	env := quickEnv(t)
	for _, w := range workloads {
		res, err := runWorkload(env, w, 1, 0.3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Ops == 0 {
			t.Errorf("%s: %d ops completed, %d of %d failed", w.name, res.Ops, res.Failed, res.Attempted)
		}
		m := res.metrics()
		for _, d := range endToEnd {
			v, ok := m[d.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v", w.name, d.name, v)
			}
			if v.Value == 0 && d.name != "sim_ms_per_op" { // tiny data can be all cached
				t.Errorf("%s: %s is zero", w.name, d.name)
			}
		}
		for _, k := range w.kinds {
			if _, src := res.latency(k, false); src != "timed" {
				t.Errorf("%s: %s latency comes from %q, want the timed phase", w.name, k, src)
			}
		}
	}
}

func TestLadderIdentityAndSpans(t *testing.T) {
	env := quickEnv(t)
	for _, name := range []string{"analytic", "mixed_roll"} { // every op kind, caches off and on
		o, err := runTraced(env, workloadByName(name), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d ladder replies failed the oracle", name, o.Failed, o.Attempted)
		}
		sum := o.Metrics["simdisk.busy_us"].Value
		for _, r := range rungNames {
			sum += o.Metrics[r+".self_us"].Value
		}
		total := o.Metrics["client.total_us"].Value
		if total <= 0 || math.Abs(sum-total) > 1e-6*total {
			t.Errorf("%s: six self_us + simdisk.busy_us = %g, client.total_us = %g", name, sum, total)
		}
		if len(o.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(o.Metrics), len(perLayer))
		}

		var trace struct {
			TraceEvents []struct {
				Cat, Ph string
				Args    map[string]any
			}
		}
		b, err := os.ReadFile(filepath.Join(env.out, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &trace); err != nil {
			t.Fatalf("%s: span file: %v", name, err)
		}
		perRung := map[string]int{}
		opZero := 0
		for _, e := range trace.TraceEvents {
			if e.Ph == "X" {
				perRung[e.Cat]++
				if e.Args["op"] == float64(0) {
					opZero++
				}
			}
		}
		for _, r := range append(rungNames[:], "daemon") {
			if perRung[r] == 0 {
				t.Errorf("%s: no spans at rung %s", name, r)
			}
		}
		if opZero < int(numRungs) {
			t.Errorf("%s: op 0 has %d spans, want one per rung sharing its id", name, opZero)
		}
	}
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json is not what `go run ./perf -describe` prints: regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", d)
		}
	}
	if endToEnd[0].name != "setup_s" || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) > 8 {
		t.Error("BENCHMARK.json's shape is outside the contract")
	}
}
