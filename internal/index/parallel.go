package index

import (
	"sync"
)

// This file holds the index package's maintenance execution helpers: a
// bounded worker pool with the same semantics as the core query engine
// (inline when sequential, one goroutine per task otherwise, first error
// by task index) and a byte-buffer pool for the bulk I/O hot paths.
//
// Parallelism inside an index operation applies to CPU-side work only —
// collating, encoding, and decoding entries. All block-store I/O keeps
// its sequential issue order: a simulated store serialises operations
// under one mutex and charges a seek whenever the access position moves,
// so interleaving I/O from several workers on one store would only
// inflate the simulated cost nondeterministically. Cross-store I/O
// parallelism lives a layer up, in core's multi-disk backend, where
// whole constituents are built on distinct stores concurrently.

// runWorkers executes tasks 0..n-1 with at most parallelism running at
// once and returns the first error by task index. With n <= 1 or
// parallelism <= 1 the tasks run inline on the caller's goroutine — the
// deterministic sequential path, mirroring core.Engine.Run.
func runWorkers(parallelism, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 || parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, parallelism)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = task(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkRanges splits n items into at most chunks contiguous [lo, hi)
// ranges of near-equal size.
func chunkRanges(n, chunks int) [][2]int {
	if n <= 0 {
		return nil
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	out := make([][2]int, 0, chunks)
	small := n / chunks
	extra := n % chunks
	lo := 0
	for i := 0; i < chunks; i++ {
		size := small
		if i < extra {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// groupByKeyParallel collates batches into per-key entry lists like
// groupByKey, but splits the batches across workers with private maps and
// merges them in chunk order — so each key's entries appear in the same
// batch-then-posting order the serial collation produces.
func groupByKeyParallel(parallelism int, batches []*Batch) map[string][]Entry {
	ranges := chunkRanges(len(batches), parallelism)
	if len(ranges) <= 1 {
		return groupByKey(batches)
	}
	parts := make([]map[string][]Entry, len(ranges))
	runWorkers(parallelism, len(ranges), func(ci int) error {
		r := ranges[ci]
		parts[ci] = groupByKey(batches[r[0]:r[1]])
		return nil
	})
	m := parts[0]
	for _, p := range parts[1:] {
		for k, es := range p {
			m[k] = append(m[k], es...)
		}
	}
	return m
}

// bufPool recycles the byte buffers of bucket reads, shadow copies, and
// packed builds. Buffers are handed out at least n bytes long and
// returned whole; the pool keeps capacities up to maxPooledBuf.
var bufPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// maxPooledBuf caps the capacity putBuf recycles. Without it a single
// outsized allocation — a hot key's merged bucket, a whole packed
// constituent image — pins its high-water capacity in the pool
// indefinitely: later small getBuf calls keep handing the giant buffer
// back out, and the pool's steady-state footprint becomes the largest
// transient ever seen instead of the working set.
const maxPooledBuf = 1 << 20

// getBuf returns a pooled buffer resliced to length n. The pointer is the
// pool's own box: handing it back to putBuf, instead of boxing the slice
// afresh, is what lets a pooled bucket read allocate nothing.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putBuf returns a buffer obtained from getBuf to the pool. The caller
// must not retain any reference into it. Buffers over maxPooledBuf are
// dropped for the GC instead of pooled.
func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	bufPool.Put(bp)
}
