package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"waveindex/internal/workload"
	"waveindex/wave"
)

// The system under test and its data are fixed, so numbers compare
// across runs, seeds and machines. Only the seed varies.
const (
	vocabSize       = 20000
	wordsPerArticle = 15
	zipfSkew        = 1.2

	windowDays = 7  // waved -window default
	numIndexes = 4  // waved -indexes default
	numShards  = 2  // fixed whatever nproc says
	numConns   = 2  // closed-loop callers
	setupDays  = 21 // 7 to fill, then 14 transitions

	// Key-stream rank ranges (rank 0 = most frequent word).
	heavyRanks = 32   // [0, 32): buckets of thousands of entries
	midLo      = 32   // [32, 1000): MPROBE keys
	tailLo     = 1000 // [1000, vocab): a few entries each
	mprobeKeys = 64
	topK       = 10
)

// scale sizes a day. Everything the benchmark reports is at fullScale;
// the tests shrink the days so that every code path runs in seconds.
type scale struct{ articlesPerDay int }

var fullScale = scale{articlesPerDay: 4000}

func (s scale) postingsPerDay() int { return s.articlesPerDay * wordsPerArticle }

// dataset holds setupDays day batches from workload.NewsGenerator and
// the answer oracle over them. Days beyond setupDays recycle the pool:
// day d carries the postings of pool slot (d-1) mod setupDays under the
// new day number. The window is 7 days and the pool 21, so no window
// ever holds one slot twice, and rolling workloads need no generation
// inside or between timed spans.
type dataset struct {
	seed  int64
	sc    scale
	vocab *workload.Vocabulary
	pool  [setupDays][]wave.Posting
	// Oracle, per pool slot, in CSR form: the entries of rank r are
	// ent[s][off[s][r]:off[s][r+1]], in (record, aux) order.
	off [setupDays][]uint32
	ent [setupDays][]wave.Entry
}

func newDataset(seed int64, sc scale) *dataset {
	gen := workload.NewNewsGenerator(workload.NewsConfig{
		ArticlesPerDay:  sc.articlesPerDay,
		WordsPerArticle: wordsPerArticle,
		VocabSize:       vocabSize,
		Skew:            zipfSkew,
		Seed:            seed,
	})
	ds := &dataset{seed: seed, sc: sc, vocab: gen.Vocab()}
	for s := range ds.pool {
		ds.pool[s] = gen.Day(s + 1).Postings
		ds.off[s], ds.ent[s] = groupByRank(ds.pool[s])
	}
	return ds
}

// rankOf inverts Vocabulary.Word ("w%05d").
func rankOf(key string) int {
	if len(key) < 2 || key[0] != 'w' {
		return -1
	}
	r, err := strconv.Atoi(key[1:])
	if err != nil || r < 0 || r >= vocabSize {
		return -1
	}
	return r
}

// groupByRank is a stable counting sort of one day's postings by key
// rank. The generator emits articles in record order and words in aux
// order, so each rank's run is already in (record, aux) order.
func groupByRank(ps []wave.Posting) ([]uint32, []wave.Entry) {
	off := make([]uint32, vocabSize+1)
	for _, p := range ps {
		off[rankOf(p.Key)+1]++
	}
	for r := 0; r < vocabSize; r++ {
		off[r+1] += off[r]
	}
	ent := make([]wave.Entry, len(ps))
	next := append([]uint32(nil), off[:vocabSize]...)
	for _, p := range ps {
		r := rankOf(p.Key)
		ent[next[r]] = p.Entry
		next[r]++
	}
	return off, ent
}

func slot(day int) int { return (day - 1) % setupDays }

// batch returns day's postings. Over the wire only key, record and aux
// travel (ADDDAY's header carries the day), so the pool slice is sent
// as is. The library path indexes Entry.Day and keeps the slice, so it
// gets a relabelled copy.
func (ds *dataset) batch(day int, relabel bool) []wave.Posting {
	ps := ds.pool[slot(day)]
	if !relabel {
		return ps
	}
	out := make([]wave.Posting, len(ps))
	for i, p := range ps {
		p.Entry.Day = int32(day)
		out[i] = p
	}
	return out
}

// count is the number of entries rank has on day.
func (ds *dataset) count(rank, day int) int {
	o := ds.off[slot(day)]
	return int(o[rank+1] - o[rank])
}

// countRange sums count over days [from, to].
func (ds *dataset) countRange(rank, from, to int) int {
	n := 0
	for d := from; d <= to; d++ {
		n += ds.count(rank, d)
	}
	return n
}

// entries is the exact PROBE answer for rank over [from, to]: (day,
// record, aux) order.
func (ds *dataset) entries(rank, from, to int) []wave.Entry {
	var out []wave.Entry
	for d := from; d <= to; d++ {
		s := slot(d)
		for _, e := range ds.ent[s][ds.off[s][rank]:ds.off[s][rank+1]] {
			e.Day = int32(d)
			out = append(out, e)
		}
	}
	return out
}

// opKind is a request type of the line protocol.
type opKind int

const (
	opProbe opKind = iota
	opMProbe
	opCount
	opTopK
	opAddDay
	numKinds
)

var kindNames = [numKinds]string{"probe", "mprobe", "count", "topk", "addday"}

func (k opKind) String() string { return kindNames[k] }

// op is one request. Everything it needs is prepared by the stream
// before the timed span starts.
type op struct {
	kind     opKind
	rank     int            // opProbe
	keys     []string       // opMProbe
	day      int            // opAddDay
	postings []wave.Posting // opAddDay
	think    int            // ms to sleep after the reply (mixed_roll's writer)
	// The ladder's forms of an ADDDAY payload: per-shard partitions for
	// the twins, the command's bytes for the raw connection.
	parts [][]wave.Posting
	raw   []byte
}

// keyStream draws ranks; each caller owns one.
type keyStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	// deck is the heavy ranks in the order of the current deal, and
	// dealt how many of them heavy has handed out.
	deck  [heavyRanks]int
	dealt int
}

func newKeyStream(seed int64) *keyStream {
	rng := rand.New(rand.NewSource(seed))
	return &keyStream{rng: rng, zipf: rand.NewZipf(rng, zipfSkew, 1, vocabSize-heavyRanks-1)}
}

func (k *keyStream) tail() int { return tailLo + k.rng.Intn(vocabSize-tailLo) }
func (k *keyStream) mid() int  { return midLo + k.rng.Intn(tailLo-midLo) }
func (k *keyStream) hot() int  { return heavyRanks + int(k.zipf.Uint64()) }

// heavy deals the heavy ranks like a deck of cards, reshuffled when it
// runs out: uniform over [0, heavyRanks) in a random order, and every
// rank equally often. Rank 0's reply is 40 times rank 31's, so with
// independent draws the few thousand probes of a run would cost what
// their luck made them cost.
func (k *keyStream) heavy() int {
	if k.dealt%heavyRanks == 0 {
		for i := range k.deck {
			k.deck[i] = i
		}
		k.rng.Shuffle(heavyRanks, func(a, b int) { k.deck[a], k.deck[b] = k.deck[b], k.deck[a] })
	}
	k.dealt++
	return k.deck[(k.dealt-1)%heavyRanks]
}

// stream yields the ops of one caller of one workload. nextDay is
// shared by the callers of a run: the writer advances it.
type stream struct {
	ds      *dataset
	keys    *keyStream
	w       *workloadSpec
	caller  int
	i       int
	nextDay *int
	// rotation is the analytic workload's current six ops.
	rotation [6]opKind
}

// newStream seeds caller c's stream from the run seed, the workload
// and c, so the same seed gives every caller the same ops.
func newStream(ds *dataset, w *workloadSpec, caller int, nextDay *int) *stream {
	h := ds.seed*1_000_003 + int64(caller)*7919
	for _, ch := range w.name {
		h = h*131 + int64(ch)
	}
	return &stream{ds: ds, keys: newKeyStream(h), w: w, caller: caller, nextDay: nextDay}
}

func (s *stream) probe(rank int) op { return op{kind: opProbe, rank: rank} }

func (s *stream) addDay(thinkMS int) op {
	d := *s.nextDay
	*s.nextDay = d + 1
	return op{kind: opAddDay, day: d, postings: s.ds.batch(d, s.w.embedded), think: thinkMS}
}

func (s *stream) mprobe() op {
	keys := make([]string, mprobeKeys)
	for i := range keys {
		keys[i] = s.ds.vocab.Word(s.keys.mid())
	}
	return op{kind: opMProbe, keys: keys}
}

func (s *stream) next() op {
	i := s.i
	s.i++
	switch s.w.traffic {
	case trafficTail:
		return s.probe(s.keys.tail())
	case trafficHeavy:
		return s.probe(s.keys.heavy())
	case trafficHot:
		return s.probe(s.keys.hot())
	case trafficAnalytic:
		// Every rotation of six is 4 MPROBE, 1 COUNT and 1 TOPK in an
		// order drawn afresh: in a fixed order two closed-loop callers
		// fall into step, and which step differs from run to run.
		if i%6 == 0 {
			s.rotation = [6]opKind{opMProbe, opMProbe, opMProbe, opMProbe, opCount, opTopK}
			s.keys.rng.Shuffle(6, func(a, b int) { s.rotation[a], s.rotation[b] = s.rotation[b], s.rotation[a] })
		}
		if k := s.rotation[i%6]; k != opMProbe {
			return op{kind: k}
		}
		return s.mprobe()
	case trafficIngest:
		return s.addDay(0)
	case trafficMixed:
		if s.caller == 0 {
			return s.addDay(mixedThinkMS)
		}
		return s.probe(s.keys.hot())
	case trafficEmbed:
		if i%17 == 16 {
			return s.probe(s.keys.heavy())
		}
		return s.probe(s.keys.tail())
	}
	panic(fmt.Sprintf("perf: workload %s has no traffic", s.w.name))
}

// sideOp is op i of the side lap's series of kind. The series draw
// nothing, so every run and every seed asks for the same ranks and only
// the data behind them differs: MPROBE takes 64 evenly spread mid keys,
// shifted by 7 ranks per op.
func sideOp(ds *dataset, kind opKind, i int) op {
	if kind == opMProbe {
		keys := make([]string, mprobeKeys)
		for j := range keys {
			keys[j] = ds.vocab.Word(midLo + (j*15+i*7)%(tailLo-midLo))
		}
		return op{kind: opMProbe, keys: keys}
	}
	return op{kind: kind}
}
