package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"waveindex/internal/simdisk"
)

func synthBatches(days, perDay int, seed int64) []*Batch {
	rng := rand.New(rand.NewSource(seed))
	batches := make([]*Batch, 0, days)
	var id uint64
	for d := 1; d <= days; d++ {
		b := &Batch{Day: d}
		for i := 0; i < perDay; i++ {
			id++
			b.Postings = append(b.Postings, Posting{
				Key:   fmt.Sprintf("k%03d", rng.Intn(137)),
				Entry: Entry{RecordID: id, Aux: uint32(rng.Intn(1000)), Day: int32(d)},
			})
		}
		batches = append(batches, b)
	}
	return batches
}

// render flattens the index into scan order, the logical content a query
// would observe.
func render(t *testing.T, idx *Index) []string {
	t.Helper()
	var rows []string
	if err := idx.Scan(-1<<30, 1<<30, func(key string, e Entry) bool {
		rows = append(rows, fmt.Sprintf("%s %d %d %d", key, e.RecordID, e.Aux, e.Day))
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return rows
}

func sameRows(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d: %q vs %q", what, i, a[i], b[i])
		}
	}
}

// TestParallelBuildDeterminism checks the Parallelism knob is invisible:
// BuildPacked at any setting yields the same scan order and charges the
// store the identical simulated cost.
func TestParallelBuildDeterminism(t *testing.T) {
	batches := synthBatches(7, 400, 1)
	var refRows []string
	var refStats simdisk.Stats
	for _, p := range []int{1, 2, 8} {
		s := simdisk.NewRAM(simdisk.Config{BlockSize: 256})
		idx, err := BuildPacked(s, Options{Parallelism: p}, batches...)
		if err != nil {
			t.Fatalf("parallelism %d: build: %v", p, err)
		}
		rows, stats := render(t, idx), s.Stats()
		if p == 1 {
			refRows, refStats = rows, stats
			continue
		}
		sameRows(t, fmt.Sprintf("parallelism %d build", p), refRows, rows)
		if stats != refStats {
			t.Errorf("parallelism %d: stats %+v, want %+v", p, stats, refStats)
		}
	}
}

// TestParallelPackedMergeDeterminism checks PackedMerge — the packed
// shadow transition step — is likewise parallelism-invariant, in both
// content and simulated disk charges.
func TestParallelPackedMergeDeterminism(t *testing.T) {
	base := synthBatches(7, 300, 2)
	add := synthBatches(8, 300, 3)[7:]
	var refRows []string
	var refStats simdisk.Stats
	for _, p := range []int{1, 8} {
		s := simdisk.NewRAM(simdisk.Config{BlockSize: 256})
		idx, err := BuildPacked(s, Options{Parallelism: p}, base...)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		s.ResetStats()
		merged, err := idx.PackedMerge([]int{1}, add...)
		if err != nil {
			t.Fatalf("parallelism %d: merge: %v", p, err)
		}
		rows, stats := render(t, merged), s.Stats()
		if p == 1 {
			refRows, refStats = rows, stats
			continue
		}
		sameRows(t, fmt.Sprintf("parallelism %d merge", p), refRows, rows)
		if stats != refStats {
			t.Errorf("parallelism %d: stats %+v, want %+v", p, stats, refStats)
		}
	}
}

// TestClonePooledBuffers exercises the pooled-buffer clone path on both
// physical shapes.
func TestCloneEquivalence(t *testing.T) {
	batches := synthBatches(5, 200, 4)
	s := simdisk.NewRAM(simdisk.Config{BlockSize: 256})
	idx, err := BuildPacked(s, Options{Parallelism: 4}, batches...)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := idx.Add(synthBatches(6, 100, 5)[5:]...); err != nil {
		t.Fatalf("add: %v", err)
	}
	cl, err := idx.Clone()
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	sameRows(t, "clone", render(t, idx), render(t, cl))
}

func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct {
		n, chunks int
		want      int // number of ranges
	}{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 4}, {10, 3, 3}, {10, 0, 1}, {3, 8, 3},
	} {
		got := chunkRanges(tc.n, tc.chunks)
		if len(got) != tc.want {
			t.Errorf("chunkRanges(%d,%d) = %v ranges, want %d", tc.n, tc.chunks, got, tc.want)
		}
		next := 0
		for _, r := range got {
			if r[0] != next || r[1] < r[0] {
				t.Errorf("chunkRanges(%d,%d) = %v: not contiguous", tc.n, tc.chunks, got)
			}
			next = r[1]
		}
		if tc.n > 0 && next != tc.n {
			t.Errorf("chunkRanges(%d,%d) covers %d items", tc.n, tc.chunks, next)
		}
	}
}

// TestBufPoolStabilises checks putBuf's capacity cap: pool-sized
// buffers round-trip, but an outsized buffer returned to the pool must
// not come back from a later small getBuf. Without the cap one giant
// transient (a hot key's merged bucket) pins its capacity in the pool
// and every subsequent small request drags the whole allocation along.
func TestBufPoolStabilises(t *testing.T) {
	// Pool-sized buffers are recycled: capacity survives a round trip.
	b := getBuf(512)
	*b = append((*b)[:0], make([]byte, 4096)...) // grow within the cap
	putBuf(b)

	// An outsized buffer must be dropped on put...
	huge := getBuf(maxPooledBuf + 1)
	if cap(*huge) <= maxPooledBuf {
		t.Fatalf("getBuf(%d) cap = %d", maxPooledBuf+1, cap(*huge))
	}
	putBuf(huge)

	// ...so no later get, small or large, may observe a pooled buffer
	// over the cap. Drain more gets than we ever put to force pool
	// misses too.
	for i := 0; i < 64; i++ {
		g := getBuf(64)
		if cap(*g) > maxPooledBuf {
			t.Fatalf("get %d returned over-cap buffer: cap %d > %d", i, cap(*g), maxPooledBuf)
		}
		putBuf(g)
	}
}

// TestBufPoolReuseUnderChurn drives concurrent get/put churn with
// mixed sizes under the race detector and checks every handed-out
// buffer has the requested length.
func TestBufPoolReuseUnderChurn(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{16, 900, 64 << 10, maxPooledBuf + 7}
			for i := 0; i < 200; i++ {
				n := sizes[(w+i)%len(sizes)]
				bp := getBuf(n)
				b := *bp
				if len(b) != n {
					t.Errorf("getBuf(%d) len = %d", n, len(b))
					return
				}
				b[0], b[n-1] = byte(w), byte(i)
				putBuf(bp)
			}
		}(w)
	}
	wg.Wait()
}
