package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waveindex/internal/server"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// frontDoor is how a caller reaches the system: *server.Client over
// TCP, the client users are given, or libDoor on an embedded router.
type frontDoor interface {
	Probe(key string) ([]wave.Entry, error)
	MultiProbe(keys []string, from, to int) (map[string][]wave.Entry, error)
	Count(from, to int) (int, error)
	TopK(k int) ([]server.KeyCount, error)
	AddDay(day int, postings []wave.Posting) error
}

// system is one booted instance of the system under test and the
// measurements the harness takes of it from outside.
type system interface {
	// door opens a caller's own way in.
	door() (frontDoor, error)
	// lastDay is the last day of the current window.
	lastDay() (int, error)
	// simUS is the work ledger's total simulated disk time.
	simUS() (int64, error)
	// stored is the constituents' bytes and the days they index.
	stored() (bytes int64, days int, err error)
	// cpu and rssPeakMB are of the process the system runs in.
	cpu() (cpuTimes, error)
	rssPeakMB() (float64, error)
	close()
}

// cpuTimes is user and system CPU time a process has consumed.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// wireSystem is a waved child reached over loopback TCP. ctl carries
// the harness's own questions and is idle during timed phases.
type wireSystem struct {
	d     *daemon
	ctl   *server.Client
	doors []*server.Client
}

func bootWire(env *environment, w *workloadSpec) (*wireSystem, error) {
	d, err := startDaemon(env.waved, w, filepath.Join(env.out, "waved-"+w.name+".log"))
	if err != nil {
		return nil, err
	}
	ctl, err := d.dial()
	if err != nil {
		d.kill()
		return nil, err
	}
	return &wireSystem{d: d, ctl: ctl}, nil
}

func (s *wireSystem) door() (frontDoor, error) {
	c, err := s.d.dial()
	if err != nil {
		return nil, err
	}
	s.doors = append(s.doors, c)
	return c, nil
}

func (s *wireSystem) lastDay() (int, error) {
	_, to, ready, err := s.ctl.Window()
	if err == nil && !ready {
		err = fmt.Errorf("window not ready at day %d", to)
	}
	return to, err
}

func (s *wireSystem) simUS() (int64, error) {
	rows, err := s.ctl.Work()
	var us int64
	for _, r := range rows {
		us += r.SimUS
	}
	return us, err
}

// stored parses STATS: "scheme=REINDEX days=7 bytes=6883328 window=15..21".
func (s *wireSystem) stored() (int64, int, error) {
	body, err := s.ctl.Stats()
	if err != nil {
		return 0, 0, err
	}
	var bytes int64
	days := 0
	for _, f := range strings.Fields(body) {
		if v, ok := strings.CutPrefix(f, "bytes="); ok {
			bytes, err = strconv.ParseInt(v, 10, 64)
		} else if v, ok := strings.CutPrefix(f, "days="); ok {
			days, err = strconv.Atoi(v)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("STATS %q: %w", body, err)
		}
	}
	if bytes == 0 || days == 0 {
		return 0, 0, fmt.Errorf("STATS %q: no bytes or days", body)
	}
	return bytes, days, nil
}

func (s *wireSystem) cpu() (cpuTimes, error)      { return procCPU(s.d.pid()) }
func (s *wireSystem) rssPeakMB() (float64, error) { return rssPeakMB(s.d.pid()) }

func (s *wireSystem) close() {
	for _, c := range s.doors {
		c.Close()
	}
	s.ctl.Close()
	s.d.kill()
}

// libSystem is wave/shard embedded in this process: the fleet waved
// would build, without the server in front of it.
type libSystem struct{ r *shard.Router }

func fleetConfig(w *workloadSpec) shard.Config {
	return shard.Config{
		Shards: numShards,
		Base: wave.Config{
			Window:       windowDays,
			Indexes:      numIndexes,
			Scheme:       wave.REINDEX,
			Update:       wave.SimpleShadow,
			CacheBlocks:  w.cacheBlocks,
			CacheResults: w.cacheResults,
		},
	}
}

func bootLib(w *workloadSpec) (*libSystem, error) {
	r, err := shard.New(fleetConfig(w))
	if err != nil {
		return nil, err
	}
	return &libSystem{r: r}, nil
}

func (s *libSystem) door() (frontDoor, error) { return libDoor{s.r}, nil }

func (s *libSystem) lastDay() (int, error) {
	if !s.r.Ready() {
		return 0, fmt.Errorf("window not ready")
	}
	_, to := s.r.Window()
	return to, nil
}

func (s *libSystem) simUS() (int64, error) {
	var us int64
	for _, c := range s.r.Work() {
		us += c.SimTime.Microseconds()
	}
	return us, nil
}

func (s *libSystem) stored() (int64, int, error) {
	st := s.r.Stats()
	return st.ConstituentBytes, st.DaysIndexed, nil
}

func (s *libSystem) cpu() (cpuTimes, error)      { return selfCPU() }
func (s *libSystem) rssPeakMB() (float64, error) { return rssPeakMB(os.Getpid()) }
func (s *libSystem) close()                      { s.r.Close() }

// libDoor gives shard.Router the shape of server.Client, calling what
// a library user would call for each request.
type libDoor struct{ r *shard.Router }

func (d libDoor) Probe(key string) ([]wave.Entry, error) {
	return d.r.Probe(context.Background(), key)
}

func (d libDoor) MultiProbe(keys []string, from, to int) (map[string][]wave.Entry, error) {
	return d.r.MultiProbeRange(context.Background(), keys, from, to)
}

func (d libDoor) Count(from, to int) (int, error) {
	return d.r.CountRange(context.Background(), from, to)
}

func (d libDoor) TopK(k int) ([]server.KeyCount, error) {
	from, to := d.r.Window()
	top, err := d.r.TopKeys(context.Background(), k, from, to)
	return toKeyCounts(top), err
}

func (d libDoor) AddDay(day int, postings []wave.Posting) error { return d.r.AddDay(day, postings) }

// send sends o through door on the window ending at end.
func send(door frontDoor, ds *dataset, o *op, end int) (reply, error) {
	var r reply
	var err error
	switch o.kind {
	case opProbe:
		r.entries, err = door.Probe(ds.vocab.Word(o.rank))
	case opMProbe:
		r.byKey, err = door.MultiProbe(o.keys, end-windowDays+1, end)
	case opCount:
		r.n, err = door.Count(countFrom(end), end)
	case opTopK:
		r.top, err = door.TopK(topK)
	case opAddDay:
		err = door.AddDay(o.day, o.postings)
	}
	return r, err
}

// environment is what every run of one harness process shares.
type environment struct {
	out   string // directory for logs, traces and results
	waved string // the built daemon
	logf  func(format string, args ...any)
	// The sizes below are fullSizes in every measurement; the tests
	// shrink them.
	sizes sizes
}

// sizes is how much data a run holds and how much it does around the
// timed phase.
type sizes struct {
	// ArticlesPerDay sizes a day: see scale.
	ArticlesPerDay int `json:"articles_per_day"`
	// Setups is how many times a run boots the system, keeping the last:
	// setup_s is the median. WarmupMS is the untimed traffic before the
	// timed phase.
	Setups   int `json:"setups"`
	WarmupMS int `json:"warmup_ms"`
	// SideOps is the fewest ops of each kind but PROBE the side lap sends
	// when the workload's own traffic has none, and SideMS how long it
	// keeps sending the kind if those take less: a GC cycle of the
	// process under test lasts tens of ms, and a series shorter than a
	// few cycles measures where in one it happened to fall. TOPK's lap is
	// three times the others': from the result cache it takes 2 ms, one
	// in eight of them beside a GC cycle of the daemon, and a p90 on that
	// edge moved by 40 % between runs of 270 samples. COUNT's and ADDDAY's
	// are twice the others': at 25-30 ms an op, 800 ms gave 30 samples, and
	// over ten seeds the quartile spread of count_p50_ms reached 14 % and
	// that of addday_p90_ms 18 %.
	SideOps [numKinds]int `json:"side_ops"`
	SideMS  [numKinds]int `json:"side_ms"`
	// LadderDiv divides every workload's ladderOps.
	LadderDiv int `json:"ladder_div"`
}

// sideOpsMax caps a side-lap series whose ops are very fast.
const sideOpsMax = 5000

var fullSizes = sizes{
	ArticlesPerDay: fullScale.articlesPerDay,
	Setups:         3,
	WarmupMS:       1000,
	SideOps:        [numKinds]int{opMProbe: 100, opCount: 40, opTopK: 40, opAddDay: 2 * windowDays},
	SideMS:         [numKinds]int{opProbe: 800, opMProbe: 800, opCount: 1600, opTopK: 2400, opAddDay: 1600},
	LadderDiv:      1,
}

func (s sizes) scale() scale { return scale{articlesPerDay: s.ArticlesPerDay} }

// runResult is one run of one workload: raw material for the metrics.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Transitional counts replies that raced a transition and were
	// exact over the days the old and new windows share.
	Transitional int `json:"transitional"`
	// SetupS is the time of each boot: child start to WINDOW ready
	// after day 21. SetupAddDayMS are the transitions those boots
	// made (days 8 to 21), as the client saw them.
	SetupS        []float64 `json:"setup_s"`
	SetupAddDayMS []float64 `json:"setup_addday_ms"`
	// The timed phase, except SimUS and SimOps, which run from the end
	// of set-up: see metrics.
	Ops       int     `json:"ops"`
	ElapsedS  float64 `json:"elapsed_s"`
	CPUUS     float64 `json:"cpu_us"`
	SimUS     float64 `json:"sim_us"`
	SimOps    int     `json:"sim_ops"`
	RSSPeakMB float64 `json:"rss_peak_mb"`
	Bytes     int64   `json:"bytes"`
	Days      int     `json:"days"`
	// PostingsPerDay is the data's, so bytes per posting can be derived.
	PostingsPerDay int `json:"postings_per_day"`
	// Lat holds the timed phase's latencies by op kind; Side the side
	// lap's, for kinds the traffic does not contain.
	Lat  map[string]summary `json:"lat"`
	Side map[string]summary `json:"side"`
}

// caller is one closed-loop client: it sends its next request when the
// previous reply is complete and checked.
type caller struct {
	door      frontDoor
	st        *stream
	lat       [numKinds][]float64
	attempted int
	failed    int
	replies   int
	// transitional counts replies that were exact over the days two
	// successive windows share (see verdict).
	transitional int
}

// run is the state of one workload run on one booted system.
type run struct {
	w   *workloadSpec
	ds  *dataset
	or  *oracle
	sys system
	// last is the last acknowledged day; readers bracket each request
	// with two loads of it to know which windows the reply may show.
	last    atomic.Int64
	nextDay int
	callers []*caller
}

// do sends one op for c, checks the reply and records the latency. A
// reply that is an error, that the transport dropped, or that is
// wrong is a failed op and has no latency.
func (r *run) do(c *caller, o *op, record bool) {
	lo := int(r.last.Load())
	t0 := time.Now()
	rep, err := send(c.door, r.ds, o, lo)
	dt := time.Since(t0)
	if o.kind == opAddDay && err == nil {
		r.last.Store(int64(o.day))
	}
	hi := lo
	if r.w.has(opAddDay) && o.kind != opAddDay {
		hi = int(r.last.Load()) + 1 // the next transition may have published already
	}
	c.replies++
	v := wrong
	if err == nil {
		v = r.or.check(o, &rep, lo, hi, c.replies%fullEvery == 0)
	}
	if !record {
		return
	}
	c.attempted++
	switch v {
	case wrong:
		c.failed++
		return
	case transitional:
		c.transitional++
	}
	c.lat[o.kind] = append(c.lat[o.kind], float64(dt.Nanoseconds())/1e6)
}

// phase runs each of callers' closed loops for dur and returns how long
// the phase really took (the last op in flight is allowed to finish).
func (r *run) phase(callers []*caller, dur time.Duration, record bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := c.st.next()
				r.do(c, &o, record)
				if o.think > 0 {
					if rest := time.Until(deadline); rest < time.Duration(o.think)*time.Millisecond {
						time.Sleep(max(rest, 0))
						return
					}
					time.Sleep(time.Duration(o.think) * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// setup boots the system and ingests days 1 to setupDays through one
// front door. It returns the time from process start to WINDOW ready
// and the latency of each transition (the days after the window
// filled).
func setup(env *environment, w *workloadSpec, ds *dataset) (system, float64, []float64, error) {
	t0 := time.Now()
	var sys system
	var err error
	if w.embedded {
		sys, err = bootLib(w)
	} else {
		sys, err = bootWire(env, w)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	door, err := sys.door()
	if err != nil {
		sys.close()
		return nil, 0, nil, err
	}
	var trans []float64
	for d := 1; d <= setupDays; d++ {
		ps := ds.batch(d, w.embedded)
		t := time.Now()
		if err := door.AddDay(d, ps); err != nil {
			sys.close()
			return nil, 0, nil, fmt.Errorf("set-up day %d: %w", d, err)
		}
		if d > windowDays {
			trans = append(trans, float64(time.Since(t).Nanoseconds())/1e6)
		}
	}
	last, err := sys.lastDay()
	if err == nil && last != setupDays {
		err = fmt.Errorf("window ends at day %d after set-up, want %d", last, setupDays)
	}
	if err != nil {
		sys.close()
		return nil, 0, nil, err
	}
	return sys, time.Since(t0).Seconds(), trans, nil
}

// runWorkload measures one workload once: sizes.Setups boots (the last
// one kept), warm-up, the timed phase between two readings of the
// system's counters, then the side lap.
func runWorkload(env *environment, w *workloadSpec, seed int64, seconds float64) (*runResult, error) {
	if w.embedded && env.waved != "" {
		return runEmbedded(env, w, seed, seconds)
	}
	ds := newDataset(seed, env.sizes.scale())
	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, PostingsPerDay: ds.sc.postingsPerDay(),
		Lat: map[string]summary{}, Side: map[string]summary{},
	}
	var sys system
	for i := 0; i < env.sizes.Setups; i++ {
		if sys != nil {
			sys.close()
		}
		var s float64
		var trans []float64
		var err error
		if sys, s, trans, err = setup(env, w, ds); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, s)
		res.SetupAddDayMS = append(res.SetupAddDayMS, trans...)
		env.logf("%s: set-up %d/%d %.3f s", w.name, i+1, env.sizes.Setups, s)
	}
	defer sys.close()
	if seconds <= 0 {
		return res, nil // a set-up-only boot
	}

	r := &run{w: w, ds: ds, or: newOracle(ds), sys: sys, nextDay: setupDays + 1}
	r.last.Store(setupDays)
	for i := 0; i < w.callers; i++ {
		door, err := sys.door()
		if err != nil {
			return nil, err
		}
		r.callers = append(r.callers, &caller{door: door, st: newStream(ds, w, i, &r.nextDay)})
	}
	sim0, err := sys.simUS()
	if err != nil {
		return nil, err
	}
	r.phase(r.callers, time.Duration(env.sizes.WarmupMS)*time.Millisecond, false)
	cpu0, err := sys.cpu()
	if err != nil {
		return nil, err
	}
	elapsed := r.phase(r.callers, time.Duration(seconds*float64(time.Second)), true)
	cpu1, err := sys.cpu()
	if err != nil {
		return nil, err
	}
	sim1, err := sys.simUS()
	if err != nil {
		return nil, err
	}
	if res.RSSPeakMB, err = sys.rssPeakMB(); err != nil {
		return nil, err
	}
	if res.Bytes, res.Days, err = sys.stored(); err != nil {
		return nil, err
	}
	res.ElapsedS = elapsed.Seconds()
	res.CPUUS = float64(cpu1.sub(cpu0).total().Microseconds())
	res.SimUS = float64(sim1 - sim0)

	var lat [numKinds][]float64
	for _, c := range r.callers {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Transitional += c.transitional
		res.SimOps += c.replies
		for k := range lat {
			lat[k] = append(lat[k], c.lat[k]...)
		}
	}
	res.Ops = res.Attempted - res.Failed
	for k, ms := range lat {
		if len(ms) > 0 {
			res.Lat[kindNames[k]] = summarize(ms)
		}
	}
	if err := r.sideLap(env.sizes, res); err != nil {
		return nil, err
	}
	return res, nil
}

// sideLap measures the op kinds the workload's traffic does not send,
// on the same system in the state the timed phase left it. The
// benchmark's contract wants every metric from every workload; these
// are the values for the pairs the workload table does not list. PROBE
// is sent as probe_tail sends it, by numConns callers at once: one
// caller alone leaves both cores idle between requests, and what it
// then measures is how fast the machine wakes up. The other kinds are
// fixed series on one connection. ADDDAY comes last, because it moves
// the window, and its samples join those of the set-up transitions.
func (r *run) sideLap(sz sizes, res *runResult) error {
	c := &caller{door: r.callers[0].door, st: newStream(r.ds, r.w, len(r.callers), &r.nextDay)}
	// REINDEX's layout repeats every windowDays days, and what a scan
	// costs depends on where in that cycle the window stands. A rolling
	// workload stops on whatever day its speed took it to; move on to
	// the phase set-up ends in, so the lap measures the same layout on
	// every workload and every run.
	for i := 0; i < windowDays && r.last.Load()%windowDays != setupDays%windowDays; i++ {
		o := c.st.addDay(0)
		r.do(c, &o, false)
	}
	for k := opKind(0); k < numKinds; k++ {
		if r.w.timesTop(k) {
			continue
		}
		lap := time.Duration(sz.SideMS[k]) * time.Millisecond
		if k == opProbe {
			probers, err := r.sideProbers()
			if err != nil {
				return err
			}
			r.phase(probers, lap, true)
			var ms []float64
			for _, p := range probers {
				ms = append(ms, p.lat[k]...)
				res.Attempted += p.attempted
				res.Failed += p.failed
			}
			res.Side[kindNames[k]] = summarize(ms)
			continue
		}
		until := time.Now().Add(lap)
		for i := 0; i < sz.SideOps[k] || (time.Now().Before(until) && i < sideOpsMax); i++ {
			o := sideOp(r.ds, k, i)
			if k == opAddDay {
				o = c.st.addDay(0)
			}
			r.do(c, &o, true)
		}
		if k == opAddDay {
			c.lat[k] = append(c.lat[k], res.SetupAddDayMS...)
		}
		res.Side[kindNames[k]] = summarize(c.lat[k])
	}
	res.Attempted += c.attempted
	res.Failed += c.failed
	return nil
}

// sideProbers are the side lap's PROBE callers: numConns of them, each
// with probe_tail's stream of keys.
func (r *run) sideProbers() ([]*caller, error) {
	as := *r.w
	as.traffic = trafficTail
	var cs []*caller
	for i := 0; i < numConns; i++ {
		var door frontDoor
		if i < len(r.callers) {
			door = r.callers[i].door
		} else {
			var err error
			if door, err = r.sys.door(); err != nil {
				return nil, err
			}
		}
		cs = append(cs, &caller{door: door, st: newStream(r.ds, &as, len(r.callers)+1+i, &r.nextDay)})
	}
	return cs, nil
}
