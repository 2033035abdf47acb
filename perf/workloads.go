package main

import "slices"

// traffic selects the op mix a workload's callers send.
type traffic int

const (
	trafficTail traffic = iota
	trafficHeavy
	trafficHot
	trafficAnalytic
	trafficIngest
	trafficMixed
	trafficEmbed
)

// mixedThinkMS is the writer's pause between days on mixed_roll.
const mixedThinkMS = 200

// workloadSpec is one traffic mix against one configuration of the
// system under test. Names are fixed: later issues cite them.
type workloadSpec struct {
	name    string
	why     string // one line, copied into BENCHMARK.json
	traffic traffic
	callers int
	// cacheBlocks and cacheResults are waved's -cache-blocks and
	// -cache-results, per shard; 0 = off.
	cacheBlocks, cacheResults int
	// embedded runs wave/shard in a child of the harness, no TCP.
	embedded bool
	// kinds lists the op kinds the traffic itself contains. The other
	// kinds are measured by the side lap (see runWorkload).
	kinds []opKind
	// sparse lists kinds of the traffic too rare for a top percentile
	// (mixed_roll adds ≈ 35 days in 8 s; a p90 wants 100): theirs comes
	// from the side lap too.
	sparse []opKind
	// ladderOps is how many of the stream's read ops the traced run
	// replays at each rung, sized so a rung takes under a second.
	ladderOps int
}

var workloads = []*workloadSpec{
	{
		name:    "probe_tail",
		why:     "PROBE on rare keys, caches off: fixed per-request cost (wire, parse, metrics, dispatch) dominates; bypasses caches and per-entry work",
		traffic: trafficTail, ladderOps: 8000, callers: numConns, kinds: []opKind{opProbe},
	},
	{
		name:    "probe_heavy",
		why:     "PROBE on the 32 most frequent keys, caches off: per-entry cost (bucket read, merge, ENTRY lines) dominates; a fixed-overhead change should not move it",
		traffic: trafficHeavy, ladderOps: 300, callers: numConns, kinds: []opKind{opProbe},
	},
	{
		name:    "probe_cached",
		why:     "PROBE on Zipf keys with both caches larger than the data: the cache-hit path, which every caches-off workload bypasses",
		traffic: trafficHot, ladderOps: 1500, callers: numConns, kinds: []opKind{opProbe},
		cacheBlocks: 8192, cacheResults: 1 << 20,
	},
	{
		name:    "analytic",
		why:     "4 MPROBE of 64 keys, 1 COUNT, 1 TOPK in rotation, caches off: scans and scatter-gather across both shards; point-probe fast paths should not move it",
		traffic: trafficAnalytic, ladderOps: 36, callers: numConns, kinds: []opKind{opMProbe, opCount, opTopK},
	},
	{
		name:    "ingest_roll",
		why:     "ADDDAY back to back on one connection, no queries: parse, partition, REINDEX transition, index build and store writes alone",
		traffic: trafficIngest, ladderOps: 0, callers: 1, kinds: []opKind{opAddDay},
	},
	{
		name:    "mixed_roll",
		why:     "ADDDAY with think time beside PROBE on Zipf keys, caches smaller than the data: reads under transitions, eviction and invalidation",
		traffic: trafficMixed, ladderOps: 840, callers: numConns, kinds: []opKind{opAddDay, opProbe}, sparse: []opKind{opAddDay},
		cacheBlocks: 128, cacheResults: 4096,
	},
	{
		name:    "embed_probe",
		why:     "wave/shard as a library, no TCP: 2 goroutines on Router.Probe, 16 rare keys then 1 frequent; wave, core and index are the whole request",
		traffic: trafficEmbed, ladderOps: 5100, callers: numConns, kinds: []opKind{opProbe},
		embedded: true,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workloadSpec) has(kind opKind) bool { return slices.Contains(w.kinds, kind) }

// timesTop reports whether the timed phase gives kind's top percentile.
func (w *workloadSpec) timesTop(kind opKind) bool {
	return w.has(kind) && !slices.Contains(w.sparse, kind)
}
