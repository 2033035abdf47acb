package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waveindex/internal/index"
	"waveindex/internal/simdisk"
)

// genDay builds a synthetic day batch with a small Zipf-ish key mix.
func genDay(day int, rng *rand.Rand) *index.Batch {
	b := &index.Batch{Day: day}
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	n := 5 + rng.Intn(25)
	for i := 0; i < n; i++ {
		// Skew towards early keys.
		k := keys[rng.Intn(1+rng.Intn(len(keys)))]
		b.Postings = append(b.Postings, index.Posting{
			Key:   k,
			Entry: index.Entry{RecordID: uint64(day)*1000 + uint64(i), Aux: uint32(i), Day: int32(day)},
		})
	}
	return b
}

// runDataScheme starts a scheme over real data and returns the scheme and
// its source.
func newDataScheme(t *testing.T, kind Kind, w, n int, tech Technique, dir index.DirKind) (Scheme, *MemorySource, *simdisk.Store) {
	t.Helper()
	store := simdisk.NewRAM(simdisk.Config{BlockSize: 256})
	t.Cleanup(func() { store.Close() })
	src := NewMemorySource(0)
	rng := rand.New(rand.NewSource(int64(w*100 + n)))
	for d := 1; d <= 6*w+5; d++ {
		src.Put(genDay(d, rng))
	}
	bk := NewDataBackend(store, index.Options{Dir: dir, Growth: 2}, src, nil)
	s, err := NewScheme(kind, Config{W: w, N: n, Technique: tech}, bk)
	if err != nil {
		t.Fatal(err)
	}
	return s, src, store
}

// windowAnswer computes the expected probe result for key over the
// window [lo, hi] directly from the raw data.
func windowAnswer(t *testing.T, src *MemorySource, key string, lo, hi int) []index.Entry {
	t.Helper()
	var out []index.Entry
	for d := lo; d <= hi; d++ {
		b, err := src.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range b.Postings {
			if p.Key == key {
				out = append(out, p.Entry)
			}
		}
	}
	sortEntries(out)
	return out
}

// TestSchemesAnswerIdenticalQueries runs every scheme and technique over
// the same data and checks that timed probes and scans restricted to the
// required window return exactly the ground-truth answer after every
// transition. This is the paper's core correctness claim: all wave
// indexes present the same window, however they maintain it.
func TestSchemesAnswerIdenticalQueries(t *testing.T) {
	const w, n = 7, 3
	keys := []string{"alpha", "beta", "theta", "missing"}
	for _, kind := range Kinds {
		for _, tech := range []Technique{InPlace, SimpleShadow, PackedShadow} {
			t.Run(fmt.Sprintf("%s/%s", kind, tech), func(t *testing.T) {
				s, src, _ := newDataScheme(t, kind, w, n, tech, index.HashDir)
				defer s.Close()
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				for d := w + 1; d <= 4*w; d++ {
					if err := s.Transition(d); err != nil {
						t.Fatalf("Transition(%d): %v", d, err)
					}
					lo, hi := s.WindowStart(), s.LastDay()
					for _, key := range keys {
						got, err := s.Wave().TimedIndexProbe(key, lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						want := windowAnswer(t, src, key, lo, hi)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("day %d key %q: probe = %v, want %v", d, key, got, want)
						}
					}
					// Timed scan over the window counts every posting once.
					wantTotal := 0
					for day := lo; day <= hi; day++ {
						b, _ := src.Day(day)
						wantTotal += b.NumPostings()
					}
					gotTotal := 0
					if err := s.Wave().TimedSegmentScan(lo, hi, func(string, index.Entry) bool {
						gotTotal++
						return true
					}); err != nil {
						t.Fatal(err)
					}
					if gotTotal != wantTotal {
						t.Fatalf("day %d: scan visited %d entries, want %d", d, gotTotal, wantTotal)
					}
				}
			})
		}
	}
}

// TestTimedSubRangeQueries checks timed queries narrower than the window.
func TestTimedSubRangeQueries(t *testing.T) {
	s, src, _ := newDataScheme(t, KindWATAStar, 10, 4, SimpleShadow, index.BTreeDir)
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for d := 11; d <= 30; d++ {
		if err := s.Transition(d); err != nil {
			t.Fatal(err)
		}
	}
	// Sub-ranges inside the window [21, 30].
	for _, r := range [][2]int{{25, 27}, {21, 21}, {30, 30}, {22, 29}} {
		got, err := s.Wave().TimedIndexProbe("alpha", r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		want := windowAnswer(t, src, "alpha", r[0], r[1])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("range %v: got %v, want %v", r, got, want)
		}
	}
}

// TestSoftWindowExposesExtraDays confirms WATA*'s documented behaviour:
// an untimed probe may return entries older than the required window, and
// a window-clamped timed probe filters them out.
func TestSoftWindowExposesExtraDays(t *testing.T) {
	s, src, _ := newDataScheme(t, KindWATAStar, 10, 4, InPlace, index.HashDir)
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	sawExtra := false
	for d := 11; d <= 40; d++ {
		if err := s.Transition(d); err != nil {
			t.Fatal(err)
		}
		all, err := s.Wave().IndexProbe("alpha")
		if err != nil {
			t.Fatal(err)
		}
		clamped, err := s.Wave().TimedIndexProbe("alpha", s.WindowStart(), s.LastDay())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range all {
			if int(e.Day) < s.WindowStart() {
				sawExtra = true
			}
		}
		want := windowAnswer(t, src, "alpha", s.WindowStart(), s.LastDay())
		if fmt.Sprint(clamped) != fmt.Sprint(want) {
			t.Fatalf("day %d: clamped probe wrong", d)
		}
	}
	if !sawExtra {
		t.Error("WATA* never exposed a soft-window day to untimed probes")
	}
}

// TestParallelProbeMatchesSerial compares the §8 parallel probe with the
// serial one.
func TestParallelProbeMatchesSerial(t *testing.T) {
	s, _, _ := newDataScheme(t, KindDEL, 12, 4, SimpleShadow, index.HashDir)
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for d := 13; d <= 24; d++ {
		if err := s.Transition(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"alpha", "beta", "gamma", "missing"} {
		serial, err := s.Wave().TimedIndexProbe(key, s.WindowStart(), s.LastDay())
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := s.Wave().ParallelTimedIndexProbe(key, s.WindowStart(), s.LastDay())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(serial) != fmt.Sprint(parallel) {
			t.Errorf("key %q: parallel = %v, serial = %v", key, parallel, serial)
		}
	}
}

// TestPackedShadowKeepsConstituentsPacked checks the §2.1 claim: with
// packed shadow updating, the published constituents stay packed under
// every scheme.
func TestPackedShadowKeepsConstituentsPacked(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			s, _, _ := newDataScheme(t, kind, 8, 4, PackedShadow, index.HashDir)
			defer s.Close()
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			for d := 9; d <= 32; d++ {
				if err := s.Transition(d); err != nil {
					t.Fatal(err)
				}
				for i, c := range s.Wave().Snapshot() {
					dc, ok := c.(*dataConstituent)
					if !ok {
						t.Fatalf("slot %d: not a data constituent", i)
					}
					if !dc.Index().Packed() {
						t.Fatalf("day %d slot %d: constituent unpacked under packed shadowing (days %v)", d, i, c.Days())
					}
				}
			}
		})
	}
}

// TestDataStorageReclaimed checks that after Close, every scheme returns
// the block store to zero occupancy — no leaked extents across a long
// run of transitions.
func TestDataStorageReclaimed(t *testing.T) {
	for _, kind := range Kinds {
		for _, tech := range []Technique{InPlace, SimpleShadow, PackedShadow} {
			t.Run(fmt.Sprintf("%s/%s", kind, tech), func(t *testing.T) {
				s, _, store := newDataScheme(t, kind, 7, 3, tech, index.HashDir)
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				for d := 8; d <= 35; d++ {
					if err := s.Transition(d); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if used := store.Stats().UsedBlocks; used != 0 {
					t.Errorf("leaked %d blocks after Close", used)
				}
			})
		}
	}
}

// TestMemorySourceRetention checks trimming.
func TestMemorySourceRetention(t *testing.T) {
	src := NewMemorySource(3)
	for d := 1; d <= 10; d++ {
		src.Put(&index.Batch{Day: d})
	}
	if src.Len() != 3 {
		t.Errorf("Len = %d, want 3", src.Len())
	}
	if _, err := src.Day(7); err == nil {
		t.Error("trimmed day still available")
	}
	if _, err := src.Day(10); err != nil {
		t.Errorf("newest day unavailable: %v", err)
	}
	unlimited := NewMemorySource(0)
	for d := 1; d <= 10; d++ {
		unlimited.Put(&index.Batch{Day: d})
	}
	if unlimited.Len() != 10 {
		t.Errorf("unlimited Len = %d, want 10", unlimited.Len())
	}
}

// TestMergeEntryListsAgainstSort holds the order-aware merge to the
// reference — sort the concatenation — over the shapes per-constituent
// probe results take: disjoint day clusters in slot order, disjoint but
// out of slot order, touching at equal entries, and genuinely
// interleaving. Inputs may be shared result-cache entries, so with more
// than one live list the result must not alias any of them and no input
// may be written to.
func TestMergeEntryListsAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// sortedRun returns n sorted entries with days drawn from [lo, hi].
	sortedRun := func(n, lo, hi int) []index.Entry {
		es := make([]index.Entry, n)
		for i := range es {
			es[i] = index.Entry{Day: int32(lo + rng.Intn(hi-lo+1)), RecordID: uint64(rng.Intn(6)), Aux: uint32(rng.Intn(3))}
		}
		sortEntries(es)
		return es
	}
	shapes := map[string]func(k int) [][]index.Entry{
		"disjoint": func(k int) [][]index.Entry {
			lists := make([][]index.Entry, k)
			for i := range lists {
				lists[i] = sortedRun(rng.Intn(6), 10*i, 10*i+9) // may be empty
			}
			return lists
		},
		"disjoint-shuffled": func(k int) [][]index.Entry {
			lists := make([][]index.Entry, k)
			for i, p := range rng.Perm(k) {
				lists[i] = sortedRun(1+rng.Intn(5), 10*p, 10*p+9)
			}
			return lists
		},
		"touching": func(k int) [][]index.Entry {
			// Each list ends on the very entry the next begins with.
			lists := make([][]index.Entry, k)
			for i := range lists {
				edge := func(j int) index.Entry { return index.Entry{Day: int32(10 * j), RecordID: 1, Aux: 1} }
				l := append([]index.Entry{edge(i)}, sortedRun(rng.Intn(4), 10*i+1, 10*i+9)...)
				lists[i] = append(l, edge(i+1))
			}
			return lists
		},
		"interleaving": func(k int) [][]index.Entry {
			lists := make([][]index.Entry, k)
			for i := range lists {
				lists[i] = sortedRun(rng.Intn(12), 0, 4)
			}
			return lists
		},
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 300; round++ {
				lists := gen(1 + rng.Intn(5))
				var want []index.Entry
				live := 0
				pristine := make([][]index.Entry, len(lists))
				for i, l := range lists {
					// Spare capacity is what an append-in-place merge would
					// scribble on; give every input some.
					lists[i] = append(make([]index.Entry, 0, len(l)+4), l...)
					pristine[i] = append([]index.Entry(nil), l...)
					want = append(want, l...)
					if len(l) > 0 {
						live++
					}
				}
				sortEntries(want)
				inputs := append([][]index.Entry(nil), lists...)
				got := mergeEntryLists(lists)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("round %d: merge of %v = %v, want %v", round, pristine, got, want)
				}
				if live > 1 {
					// The result is the caller's to mutate; if it shared
					// memory with an input the scribble would show below.
					for i := range got {
						got[i].Aux = ^got[i].Aux
					}
				}
				for i, in := range inputs {
					if fmt.Sprint(in) != fmt.Sprint(pristine[i]) {
						t.Fatalf("round %d: input %d now reads %v, was %v: rewritten by the merge or aliased by its result", round, i, in, pristine[i])
					}
					if tail := in[len(in):cap(in)]; fmt.Sprint(tail) != fmt.Sprint(make([]index.Entry, len(tail))) {
						t.Fatalf("round %d: merge wrote past the end of input %d: %v", round, i, tail)
					}
				}
			}
		})
	}
}
