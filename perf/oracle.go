package main

import (
	"sort"
	"sync"

	"waveindex/internal/server"
	"waveindex/wave"
)

// fullEvery: one reply in this many is compared entry by entry; every
// reply has its counts checked.
const fullEvery = 64

// reply is what a front door answered to one op.
type reply struct {
	entries []wave.Entry            // opProbe
	byKey   map[string][]wave.Entry // opMProbe
	n       int                     // opCount
	top     []server.KeyCount       // opTopK
}

// oracle knows the exact answer to every op from the generator's own
// per-key, per-day posting counts.
type oracle struct {
	ds *dataset

	mu   sync.Mutex
	tops map[[2]int][]server.KeyCount // days [from, end] -> TOPK answer
}

func newOracle(ds *dataset) *oracle {
	return &oracle{ds: ds, tops: map[[2]int][]server.KeyCount{}}
}

// countDays is how many days COUNT scans: the last ones of the window.
const countDays = 2

func countFrom(end int) int { return end - countDays + 1 }

// verdict is the oracle's judgement of one reply.
type verdict int

const (
	wrong verdict = iota
	exact
	// transitional: exact over the days two successive windows share.
	// While a day is being added the router answers over the
	// intersection of its shards' windows, and a shard publishes its
	// rebuilt constituent before it moves its own window, so a read
	// that races a transition can see neither the old day nor the new
	// one. Every entry of such a reply is right and none is missing
	// from the six days it covers. It passes, and is counted.
	transitional
)

// check judges r as the answer to o on the window ending at some day
// in [loEnd, hiEnd]. A read racing a transition may see the window
// before it, after it, or the days both share; a read alone sees one
// window and passes loEnd == hiEnd.
func (or *oracle) check(o *op, r *reply, loEnd, hiEnd int, full bool) verdict {
	for end := loEnd; end <= hiEnd; end++ {
		if or.checkAt(o, r, end-windowDays+1, end, full) {
			return exact
		}
	}
	for end := loEnd; end < hiEnd; end++ {
		if or.checkAt(o, r, end-windowDays+2, end, full) {
			return transitional
		}
	}
	return wrong
}

// checkAt reports whether r is the exact answer to o over days
// [from, end].
func (or *oracle) checkAt(o *op, r *reply, from, end int, full bool) bool {
	switch o.kind {
	case opProbe:
		return or.entriesMatch(o.rank, r.entries, from, end, full)
	case opMProbe:
		seen := 0
		distinct := map[string]bool{}
		for _, k := range o.keys {
			if distinct[k] {
				continue
			}
			distinct[k] = true
			es, ok := r.byKey[k]
			if ok {
				seen++
			}
			if !or.entriesMatch(rankOf(k), es, from, end, full) {
				return false
			}
		}
		return seen == len(r.byKey) // no key that was not asked for
	case opCount:
		return r.n == countDays*or.ds.sc.postingsPerDay() // every day has as many
	case opTopK:
		want := or.topKeys(from, end)
		if len(want) != len(r.top) {
			return false
		}
		for i := range want {
			if want[i] != r.top[i] {
				return false
			}
		}
		return true
	case opAddDay:
		return true // the OK reply is the answer; later reads check the data
	}
	return false
}

// entriesMatch checks a key's entries against the oracle: always the
// count, and on a full check day, record, aux and order.
func (or *oracle) entriesMatch(rank int, got []wave.Entry, from, to int, full bool) bool {
	if rank < 0 || len(got) != or.ds.countRange(rank, from, to) {
		return false
	}
	if !full {
		return true
	}
	want := or.ds.entries(rank, from, to)
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}

// topKeys is the TOPK answer over days [from, end]: largest count
// first, ties by key.
func (or *oracle) topKeys(from, end int) []server.KeyCount {
	or.mu.Lock()
	defer or.mu.Unlock()
	if t, ok := or.tops[[2]int{from, end}]; ok {
		return t
	}
	all := make([]server.KeyCount, 0, vocabSize)
	for r := 0; r < vocabSize; r++ {
		if n := or.ds.countRange(r, from, end); n > 0 {
			all = append(all, server.KeyCount{Key: or.ds.vocab.Word(r), Count: n})
		}
	}
	all = topOfCounts(all)
	or.tops[[2]int{from, end}] = all
	return all
}

// topOfCounts sorts all into TOPK's order, largest count first and ties
// by key, and keeps the first topK.
func topOfCounts(all []server.KeyCount) []server.KeyCount {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > topK {
		all = all[:topK]
	}
	return all
}
