package wave

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"
)

func buildAggIndex(t *testing.T) *Index {
	t.Helper()
	x, err := New(Config{Window: 5, Indexes: 2, Scheme: RATAStar})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	// Day d: d postings for "hot", 1 for "cold"; hot aux = 10.
	for d := 1; d <= 8; d++ {
		var ps []Posting
		for i := 0; i < d; i++ {
			ps = append(ps, Posting{Key: "hot", Entry: Entry{RecordID: uint64(d*100 + i), Aux: 10, Day: int32(d)}})
		}
		ps = append(ps, Posting{Key: "cold", Entry: Entry{RecordID: uint64(d*100 + 99), Aux: 1, Day: int32(d)}})
		if err := x.AddDay(d, ps); err != nil {
			t.Fatal(err)
		}
	}
	return x // window 4..8: hot counts 4+5+6+7+8 = 30, cold 5
}

func TestCountAndHistogram(t *testing.T) {
	x := buildAggIndex(t)
	n, err := x.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 35 {
		t.Errorf("Count = %d, want 35", n)
	}
	n, err = x.CountRange(context.Background(), 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 { // (6+1)+(7+1)
		t.Errorf("CountRange(6,7) = %d, want 15", n)
	}
	h, err := x.Histogram(context.Background(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(h) != "[5 6 7 8 9]" {
		t.Errorf("Histogram = %v", h)
	}
	if h, _ := x.Histogram(context.Background(), 8, 4); h != nil {
		t.Errorf("inverted histogram = %v, want nil", h)
	}
}

func TestSumAux(t *testing.T) {
	x := buildAggIndex(t)
	sum, err := x.SumAux(context.Background(), "hot", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 300 {
		t.Errorf("SumAux(hot) = %d, want 300", sum)
	}
	sum, err = x.SumAux(context.Background(), "cold", 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 2 {
		t.Errorf("SumAux(cold, 7..8) = %d, want 2", sum)
	}
	if sum, _ := x.SumAux(context.Background(), "missing", 4, 8); sum != 0 {
		t.Errorf("SumAux(missing) = %d", sum)
	}
}

func TestTopKeysAndDistinct(t *testing.T) {
	x := buildAggIndex(t)
	top, err := x.TopKeys(context.Background(), 2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Key != "hot" || top[0].Count != 30 || top[1].Key != "cold" || top[1].Count != 5 {
		t.Errorf("TopKeys = %v", top)
	}
	// k larger than distinct keys.
	top, err = x.TopKeys(context.Background(), 10, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Errorf("TopKeys(10) = %v", top)
	}
	if top, _ := x.TopKeys(context.Background(), 0, 4, 8); top != nil {
		t.Errorf("TopKeys(0) = %v", top)
	}
	n, err := x.DistinctKeys(context.Background(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("DistinctKeys = %d, want 2", n)
	}
}

// fakeKernel is a Querier over a posting slice sorted by (key, day,
// record): the seven kernel methods and nothing else, so whatever Over
// derives from it provably needs no more.
type fakeKernel struct {
	ps       []Posting
	from, to int
}

func (f fakeKernel) ScanRange(_ context.Context, from, to int, fn func(string, Entry) bool) error {
	for _, p := range f.ps {
		if d := int(p.Entry.Day); d >= from && d <= to && !fn(p.Key, p.Entry) {
			break
		}
	}
	return nil
}

func (f fakeKernel) ProbeRange(ctx context.Context, key string, from, to int) (es []Entry, _ error) {
	return es, f.ScanRange(ctx, from, to, func(k string, e Entry) bool {
		if k == key {
			es = append(es, e)
		}
		return true
	})
}

func (f fakeKernel) MultiProbeRange(ctx context.Context, keys []string, from, to int) (map[string][]Entry, error) {
	out := map[string][]Entry{}
	for _, k := range keys {
		if es, _ := f.ProbeRange(ctx, k, from, to); len(es) > 0 {
			out[k] = es
		}
	}
	return out, nil
}

func (f fakeKernel) Aggregate(ctx context.Context, _ AggKind, from, to int) (Agg, error) {
	a := Agg{Days: map[int]int{}, Keys: []map[string]int{{}}}
	return a, f.ScanRange(ctx, from, to, func(k string, e Entry) bool {
		a.N++
		a.Days[int(e.Day)]++
		a.Keys[0][k]++
		return true
	})
}

func (f fakeKernel) Ready() bool        { return true }
func (f fakeKernel) Window() (int, int) { return f.from, f.to }
func (f fakeKernel) Stats() Stats       { return Stats{} }

// TestDerivedQueriesNeedOnlyTheKernel runs every derived query over the
// fake kernel and over a real index holding the same postings: the two
// must render identically, and neither can reach past the Querier
// interface.
func TestDerivedQueriesNeedOnlyTheKernel(t *testing.T) {
	x := buildAggIndex(t)
	from, to := x.Window()
	fake := fakeKernel{from: from, to: to}
	if err := x.Scan(context.Background(), func(k string, e Entry) bool {
		fake.ps = append(fake.ps, Posting{Key: k, Entry: e})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(fake.ps, func(i, j int) bool {
		a, b := fake.ps[i], fake.ps[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Entry.Day != b.Entry.Day {
			return a.Entry.Day < b.Entry.Day
		}
		return a.Entry.RecordID < b.Entry.RecordID
	})
	keys := []string{"hot", "cold", "missing"}
	if got, want := querierSignature(t, fake, from, to, keys), querierSignature(t, x, from, to, keys); got != want {
		t.Fatalf("derived queries over the fake kernel diverge from the index:\n--- index\n%s\n--- fake\n%s", want, got)
	}
}

func TestIntervalMapping(t *testing.T) {
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	iv := Daily(epoch)
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    time.Time
		want int
	}{
		{epoch, 1},
		{epoch.Add(23 * time.Hour), 1},
		{epoch.Add(24 * time.Hour), 2},
		{epoch.Add(10 * 24 * time.Hour), 11},
		{epoch.Add(-time.Second), 0},
		{epoch.Add(-25 * time.Hour), -1},
		{epoch.Add(-24 * time.Hour), 0},
	}
	for _, c := range cases {
		if got := iv.DayOf(c.t); got != c.want {
			t.Errorf("DayOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := iv.StartOf(3); !got.Equal(epoch.Add(48 * time.Hour)) {
		t.Errorf("StartOf(3) = %v", got)
	}
	if got := iv.EndOf(1); !got.Equal(epoch.Add(24 * time.Hour)) {
		t.Errorf("EndOf(1) = %v", got)
	}
	// Hourly intervals ("time intervals need not be 24 hours").
	hourly := Interval{Epoch: epoch, Length: time.Hour}
	if got := hourly.DayOf(epoch.Add(90 * time.Minute)); got != 2 {
		t.Errorf("hourly DayOf = %d, want 2", got)
	}
	if err := (Interval{Epoch: epoch}).Validate(); err == nil {
		t.Error("zero-length interval accepted")
	}
	if got := (Interval{Epoch: epoch}).DayOf(epoch); got != 0 {
		t.Errorf("zero-length DayOf = %d", got)
	}
}
