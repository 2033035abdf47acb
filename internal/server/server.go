// Package server exposes a wave index over a line-oriented TCP protocol —
// the deployment shape of the paper's motivating applications (a Web
// service indexing the past month of Netnews). One goroutine per
// connection; queries run concurrently while daily batch ingestion is
// serialised, exactly the concurrency model the shadow update techniques
// are designed for.
//
// Protocol (one request per line, space-separated):
//
//	ADDDAY <day> <n> [id=<rid>] declare a day batch of n postings, then
//	  <key> <recordID> <aux>    n posting lines; id= marks the batch for
//	                            idempotent retry — a replayed id answers
//	                            from the dedupe cache without re-applying
//	FLUSH                       drain pipelined ingestion (see
//	                            Options.AsyncIngest); reports the first
//	                            failed transition, if any
//	PROBE <key>                 window probe
//	PROBERANGE <key> <from> <to>
//	MPROBE <from> <to> <key>... batched multi-key probe over [from, to]
//	COUNT [<from> <to>]         count window entries (optionally ranged)
//	TOPK <k>                    k most frequent keys in the window
//	WINDOW                      current window bounds
//	STATS                       scheme, days indexed, storage bytes
//	METRICS                     metrics snapshot (fleet rollup)
//	METRICS SHARDS              per-shard snapshots + breaker positions
//	CACHE                       caching-tier snapshot: block buffer pool,
//	                            result cache, constituent generations
//	EVENTS [since=<seq>] [max=<n>]  replay the event timeline after seq
//	SLO                         per-command SLO windows and burn rates
//	SLOWLOG                     slow-query log, most recent first
//	SLOWLOG <ms>                set the slow-query threshold (0 disables)
//	WORK                        per-cause disk work ledger
//	TRACE <id>                  stamp this connection's queries with id
//	TRACE [-]                   clear the connection's trace ID
//	PARTIAL on|off              opt this connection's queries into
//	                            partial results: slices of the keyspace
//	                            behind an open shard breaker are skipped
//	                            and announced as DEGRADED lines instead
//	                            of failing the query
//	HEALTH                      readiness, degradation, recovery state
//	RECOVER                     run the journal recovery protocol
//	QUIT                        close the connection
//
// Responses: "OK ..." or "ERR <message>"; probes stream
// "ENTRY <day> <recordID> <aux>" lines terminated by "END <count>";
// TOPK streams "KEY <key> <count>" lines terminated by "END <k>".
// MPROBE streams, per distinct key in ascending order, one
// "KEY <key> <count>" line followed by that key's ENTRY lines, all
// terminated by "END <nkeys>". METRICS streams "COUNTER <name> <v>",
// "GAUGE <name> <v>", and
// "HIST <name> <count> <sum> <min> <max> <p50> <p90> <p95> <p99>" lines
// (histograms in microseconds), terminated by "END <n>". METRICS SHARDS
// streams the same record shapes prefixed "SHARD <i>", plus one
// "SHARD <i> BREAKER <state> <failures>" line per shard when breakers
// run. SLOWLOG streams
// "SLOW <kind> <shard> <from> <to> <keys> <entries> <us> <seeks>
// <bytesRead> <bytesWritten> <diskus> <trace|-> <key|-> [err]" lines
// terminated by "END <n>". WORK streams
// "WORK <cause> <seeks> <bytesRead> <bytesWritten> <simus>" lines
// terminated by "END <n>". EVENTS streams
// "EVENT <seq> <unix_us> <type> <shard> [k=v ...]" lines terminated by
// "END <n> last=<seq> dropped=<d>"; CACHE streams
// "BLOCKS <on> <hits> <misses> <evictions> <resident> <savedSeeks> <savedSimUs>",
// "RESULTS <on> <hits> <misses> <evictions> <invalidated> <entries> <costUsed> <costCap>",
// and one "GEN <i> <generation>" line per wave slot, terminated by
// "END <n>"; SLO streams one "OBJ ..." line and
// "SLO <cmd> <window> <rateMilli> <errMilli> <slowMilli> <quantileUs>
// <burnMilli> <alerting>" lines terminated by "END <n>".
//
// Under PARTIAL on, query replies are preceded by zero or more
// "DEGRADED <shard> <shards> <cause>" lines naming the keyspace slices
// the answer excludes. Under admission control (Options.MaxInFlight), a
// shed query answers "ERR BUSY retry-after=<ms>" without touching the
// backend — always safe to retry after the hinted backoff. Queries
// refused because a shard breaker is open (and the connection did not
// opt into partial results) answer "ERR UNAVAILABLE <message>", the
// other retryable error class.
//
// A trace ID set by TRACE rides the connection: every subsequent probe,
// multi-probe, and scan carries it in its query context, so the ID shows
// up in the engine's spans (exported Chrome traces included) and in
// slow-query-log entries — wire-level request correlation.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"waveindex/internal/metrics"
	"waveindex/internal/obs"
	"waveindex/wave"
	"waveindex/wave/shard"
)

// Options tunes connection handling. The zero value keeps the historical
// behaviour (no deadlines) apart from the defaulted line and batch caps.
type Options struct {
	// ReadTimeout bounds the wait for each protocol line — the next
	// command, or each posting line of an ADDDAY batch. A stalled or
	// half-written command times out and the connection is closed instead
	// of wedging its goroutine forever. Zero means no deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush. Zero means no deadline.
	WriteTimeout time.Duration
	// MaxLineBytes caps a single protocol line; a longer line gets an ERR
	// and the connection is closed. Zero defaults to 1 MiB.
	MaxLineBytes int
	// MaxBatchPostings caps the posting count one ADDDAY may declare, so
	// a malicious header cannot demand an unbounded allocation. Zero
	// defaults to 1<<20.
	MaxBatchPostings int
	// AsyncIngest pipelines ingestion: ADDDAY queues the batch and
	// responds as soon as it is accepted, while a single maintenance
	// goroutine applies queued days in order and queries keep being
	// served. Transition failures then surface on FLUSH (or a later
	// ADDDAY) instead of the ADDDAY that queued the failing day.
	AsyncIngest bool
	// MaxInFlight caps concurrently-executing queries (admission
	// control). An arriving query waits up to AdmissionWait for a slot
	// and is then shed with "ERR BUSY retry-after=<ms>". Zero means
	// unlimited — the historical behaviour.
	MaxInFlight int
	// AdmissionWait is how long a query may queue for an admission slot
	// before being shed. Zero defaults to 10ms when MaxInFlight is set.
	AdmissionWait time.Duration
	// RetryAfter is the backoff hint carried by BUSY errors. Zero
	// defaults to 50ms.
	RetryAfter time.Duration
	// Events, when set, is the fleet event bus: the server publishes
	// admission sheds, unavailable replies, and degraded slices onto
	// it, and serves the timeline over the EVENTS command. Nil
	// disables both (EVENTS answers ERR).
	Events *obs.Bus
	// SLO, when set, receives one Record per query and ingest command
	// and is served over the SLO command. Nil disables both.
	SLO *obs.Engine
}

func (o Options) withDefaults() Options {
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	if o.MaxBatchPostings <= 0 {
		o.MaxBatchPostings = 1 << 20
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 50 * time.Millisecond
	}
	return o
}

// Recoverer is the optional recovery surface of a backend. Journaled
// indexes and shard routers implement it; RECOVER is refused when the
// backend does not, or when it reports Journaled() false (a
// shard.Router built without journals carries the methods but no
// journal).
type Recoverer interface {
	Recover() (*wave.RecoveryReport, error)
	Journaled() bool
}

// Server serves a wave backend over a listener.
type Server struct {
	b    wave.Backend
	q    wave.Queries // the derived queries over b
	opts Options

	lim    *limiter          // admission control; nil = unlimited
	dedupe *dedupeCache      // applied ADDDAY request IDs → cached replies
	reg    *metrics.Registry // wire-level counters, merged into METRICS

	mu           sync.Mutex // serialises AddDay and Recover; queries need no lock
	lastReplayed int        // shard count of the most recent RECOVER (under mu)
	closed       chan struct{}
	wg           sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewBackend serves any wave.Backend — a plain *wave.Index, a crash-safe
// *wave.Journaled (ADDDAY runs through the transition journal, RECOVER
// runs the recovery protocol), or a *shard.Router fleet — without caring
// which. The server takes over maintenance: callers must not invoke the
// backend's AddDay concurrently with Serve, and the server never closes
// it.
func NewBackend(b wave.Backend, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		b:      b,
		q:      wave.Over(b),
		opts:   opts,
		lim:    newLimiter(opts.MaxInFlight, opts.AdmissionWait),
		dedupe: newDedupeCache(1024),
		reg:    metrics.New(),
		closed: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
}

// MetricsSnapshot is the backend's metrics merged with the server's own
// wire-level registry (connections, admitted/shed queries, dedupe
// hits) — what METRICS streams and what admin /metrics should export.
func (s *Server) MetricsSnapshot() wave.MetricsSnapshot {
	return metrics.Merge(s.b.Metrics(), s.reg.Snapshot())
}

// journaled reports whether the backend supports RECOVER.
func (s *Server) journaled() bool {
	r, ok := s.b.(Recoverer)
	return ok && r.Journaled()
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	defer s.wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close marks the server closing (the caller closes the listener).
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
}

// Shutdown closes the server gracefully: no new commands are accepted,
// in-flight commands finish and their responses are written, and any
// connection still open after the grace period is force-closed. The
// caller closes the listener, as with Close.
func (s *Server) Shutdown(grace time.Duration) {
	s.Close()
	// Wake handlers blocked reading the next command; their current
	// command (if any) still completes before the loop re-checks closed.
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
}

func (s *Server) track(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// scanLine reads one protocol line under the configured read deadline.
func (s *Server) scanLine(conn net.Conn, in *bufio.Scanner) bool {
	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
	return in.Scan()
}

// flush writes the buffered response under the configured write deadline.
func (s *Server) flush(conn net.Conn, out *bufio.Writer) error {
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	return out.Flush()
}

func (s *Server) handle(conn net.Conn) {
	s.track(conn)
	defer s.untrack(conn)
	defer conn.Close()
	s.reg.Counter("server_conns_total").Inc()
	s.reg.Gauge("server_conns_open").Add(1)
	defer s.reg.Gauge("server_conns_open").Add(-1)
	// Per-connection rate accounting: how many commands this connection
	// issued, observed into a fleet histogram at hangup.
	connCmds := int64(0)
	defer func() { s.reg.Histogram("server_conn_cmds").Observe(connCmds) }()
	in := bufio.NewScanner(conn)
	// Scanner takes the larger of the initial capacity and the max, so
	// the initial buffer must not exceed the configured line cap.
	in.Buffer(make([]byte, 0, min(1<<16, s.opts.MaxLineBytes)), s.opts.MaxLineBytes)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	// traceID and partial are connection state: TRACE <id> stamps every
	// later query's context, PARTIAL on opts queries into partial
	// results (degraded slices stream as DEGRADED lines).
	traceID := ""
	partial := false
	qctx := func() context.Context {
		ctx := wave.WithTraceID(context.Background(), traceID)
		if partial {
			ctx, _ = wave.WithPartialResults(ctx)
		}
		return ctx
	}
	// query wraps the read commands with admission control: a shed query
	// never reaches the backend and reports BUSY with the retry hint.
	// Every outcome — shed included, since a shed spends error budget —
	// is recorded into the SLO engine under the command's wire name.
	query := func(name string, f func() error) error {
		start := time.Now()
		if !s.lim.acquire() {
			s.reg.Counter("server_busy_total").Inc()
			err := &BusyError{RetryAfter: s.opts.RetryAfter}
			s.opts.SLO.Record(name, time.Since(start), err)
			s.opts.Events.Publish(obs.Event{
				Type: obs.EventShed, Shard: -1, Cmd: name, TraceID: traceID,
				Value: int64(s.opts.MaxInFlight),
			})
			return err
		}
		defer s.lim.release()
		s.reg.Counter("server_queries_total").Inc()
		s.reg.Gauge("server_inflight_queries").Add(1)
		defer s.reg.Gauge("server_inflight_queries").Add(-1)
		err := f()
		s.opts.SLO.Record(name, time.Since(start), err)
		return err
	}
	for {
		select {
		case <-s.closed:
			fmt.Fprintln(out, "ERR server shutting down")
			s.flush(conn, out)
			return
		default:
		}
		if !s.scanLine(conn, in) {
			if err := in.Err(); errors.Is(err, bufio.ErrTooLong) {
				fmt.Fprintf(out, "ERR line exceeds %d bytes\n", s.opts.MaxLineBytes)
				s.flush(conn, out)
			}
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd := strings.ToUpper(fields[0])
		connCmds++
		s.reg.Counter("server_cmds_total").Inc()
		var err error
		switch cmd {
		case "QUIT":
			fmt.Fprintln(out, "OK bye")
			s.flush(conn, out)
			return
		case "ADDDAY":
			err = s.addDay(conn, in, out, fields[1:])
		case "FLUSH":
			err = s.flushIngest(out)
		case "PROBE":
			err = query("probe", func() error { return s.probe(qctx(), out, fields[1:], false) })
		case "PROBERANGE":
			err = query("proberange", func() error { return s.probe(qctx(), out, fields[1:], true) })
		case "MPROBE":
			err = query("mprobe", func() error { return s.mprobe(qctx(), out, fields[1:]) })
		case "COUNT":
			err = query("count", func() error { return s.count(qctx(), out, fields[1:]) })
		case "TOPK":
			err = query("topk", func() error { return s.topk(qctx(), out, fields[1:]) })
		case "PARTIAL":
			switch {
			case len(fields) == 2 && strings.EqualFold(fields[1], "on"):
				partial = true
				fmt.Fprintln(out, "OK partial on")
			case len(fields) == 2 && strings.EqualFold(fields[1], "off"):
				partial = false
				fmt.Fprintln(out, "OK partial off")
			default:
				err = errors.New("usage: PARTIAL on|off")
			}
		case "TRACE":
			switch {
			case len(fields) == 1 || (len(fields) == 2 && fields[1] == "-"):
				traceID = ""
				fmt.Fprintln(out, "OK trace cleared")
			case len(fields) == 2:
				traceID = fields[1]
				fmt.Fprintf(out, "OK trace %s\n", traceID)
			default:
				err = errors.New("usage: TRACE [<id>|-]")
			}
		case "WORK":
			s.work(out)
		case "WINDOW":
			from, to := s.b.Window()
			fmt.Fprintf(out, "OK %d %d ready=%v\n", from, to, s.b.Ready())
		case "STATS":
			st := s.b.Stats()
			fmt.Fprintf(out, "OK scheme=%s days=%d bytes=%d window=%d..%d\n",
				st.Scheme, st.DaysIndexed, st.ConstituentBytes, st.WindowFrom, st.WindowTo)
		case "METRICS":
			if len(fields) == 2 && strings.EqualFold(fields[1], "SHARDS") {
				s.shardMetrics(out)
			} else {
				s.metrics(out)
			}
		case "CACHE":
			s.cache(out)
		case "EVENTS":
			err = s.events(out, fields[1:])
		case "SLO":
			err = s.slo(out)
		case "SLOWLOG":
			err = s.slowlog(out, fields[1:])
		case "HEALTH":
			s.health(out)
		case "RECOVER":
			err = s.recover(out)
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			msg := strings.ReplaceAll(err.Error(), "\n", " ")
			// wave.ErrUnavailable gets a stable wire prefix so clients can
			// type it (retryable) without matching on message text.
			if errors.Is(err, wave.ErrUnavailable) {
				s.reg.Counter("server_unavailable_total").Inc()
				s.opts.Events.Publish(obs.Event{
					Type: obs.EventUnavailable, Shard: -1,
					Cmd: strings.ToLower(cmd), TraceID: traceID, Cause: msg,
				})
				fmt.Fprintf(out, "ERR UNAVAILABLE %s\n", msg)
			} else {
				fmt.Fprintf(out, "ERR %s\n", msg)
			}
		}
		if err := s.flush(conn, out); err != nil {
			return
		}
	}
}

// emitDegraded streams the query's degraded-keyspace annotation, one
// "DEGRADED <shard> <shards> <cause>" line per skipped slice, ahead of
// the command's normal reply, and mirrors each slice onto the event
// bus. Only connections that issued PARTIAL on carry a report, so
// legacy clients never see these lines.
func (s *Server) emitDegraded(ctx context.Context, out *bufio.Writer, cmd string) {
	rep := wave.PartialFromContext(ctx)
	if rep == nil {
		return
	}
	for _, sl := range rep.Degraded() {
		s.opts.Events.Publish(obs.Event{
			Type: obs.EventDegraded, Shard: sl.Shard, Cmd: cmd,
			Cause: sl.Cause, TraceID: wave.TraceIDFrom(ctx),
		})
		cause := strings.ReplaceAll(sl.Cause, " ", "-")
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(out, "DEGRADED %d %d %s\n", sl.Shard, sl.Shards, cause)
	}
}

func (s *Server) addDay(conn net.Conn, in *bufio.Scanner, out *bufio.Writer, args []string) error {
	// An optional trailing id=<rid> marks the batch for idempotent
	// retry: if a batch with the same ID already applied, the posting
	// lines are still consumed (framing) but the cached reply is
	// returned instead of re-executing.
	rid := ""
	if len(args) == 3 && strings.HasPrefix(args[2], "id=") && len(args[2]) > 3 {
		rid, args = args[2][3:], args[:2]
	}
	if len(args) != 2 {
		return errors.New("usage: ADDDAY <day> <n> [id=<rid>]")
	}
	day, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad day: %w", err)
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 0 {
		return fmt.Errorf("bad posting count %q", args[1])
	}
	if n > s.opts.MaxBatchPostings {
		return fmt.Errorf("batch of %d postings exceeds limit %d", n, s.opts.MaxBatchPostings)
	}
	postings := make([]wave.Posting, 0, n)
	for i := 0; i < n; i++ {
		if !s.scanLine(conn, in) {
			return errors.New("connection ended mid-batch")
		}
		f := strings.Fields(in.Text())
		if len(f) != 3 {
			return fmt.Errorf("posting line %d: want '<key> <recordID> <aux>'", i+1)
		}
		recID, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("posting line %d: bad recordID: %w", i+1, err)
		}
		aux, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return fmt.Errorf("posting line %d: bad aux: %w", i+1, err)
		}
		postings = append(postings, wave.Posting{
			Key:   f[0],
			Entry: wave.Entry{RecordID: recID, Aux: uint32(aux), Day: int32(day)},
		})
	}
	// Claim the request ID before applying. A replayed ID blocks in
	// begin until the original attempt resolves — even one still
	// executing under s.mu — so a retry racing an in-flight apply reads
	// the cached reply instead of ingesting the batch a second time.
	if rid != "" {
		if reply, cached := s.dedupe.begin(rid); cached {
			s.reg.Counter("server_addday_dedup_total").Inc()
			fmt.Fprint(out, reply)
			return nil
		}
	}
	start := time.Now()
	s.mu.Lock()
	if s.opts.AsyncIngest {
		err = s.b.AddDayAsync(day, postings)
	} else {
		err = s.b.AddDay(day, postings)
	}
	s.mu.Unlock()
	s.opts.SLO.Record("addday", time.Since(start), err)
	if err != nil {
		// Only applied batches are remembered: a failed attempt must
		// stay retryable under the same ID.
		if rid != "" {
			s.dedupe.abandon(rid)
		}
		return err
	}
	var reply string
	if s.opts.AsyncIngest {
		reply = fmt.Sprintf("OK day %d queued (%d postings)\n", day, n)
	} else {
		reply = fmt.Sprintf("OK day %d ingested (%d postings)\n", day, n)
	}
	if rid != "" {
		s.dedupe.commit(rid, reply)
	}
	fmt.Fprint(out, reply)
	return nil
}

// flushIngest drains the async ingestion pipeline and reports the first
// transition failure, if any. On a synchronous server it is a no-op
// acknowledgement.
func (s *Server) flushIngest(out *bufio.Writer) error {
	if err := s.b.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "OK flushed\n")
	return nil
}

// health reports liveness in one line: overall status, readiness, the
// two degradation signals queries should care about, how many shard
// circuit breakers are open, and how many shards the most recent
// RECOVER actually replayed.
func (s *Server) health(out *bufio.Writer) {
	needs, degraded := s.b.NeedsRecovery(), s.b.Degraded()
	open := 0
	if ob, ok := s.b.(interface{ OpenBreakers() []int }); ok {
		open = len(ob.OpenBreakers())
	}
	status := "ok"
	if degraded || open > 0 {
		status = "degraded"
	}
	if needs {
		status = "needs-recovery"
	}
	s.mu.Lock()
	replayed := s.lastReplayed
	s.mu.Unlock()
	fmt.Fprintf(out, "OK %s ready=%v degraded=%v needsRecovery=%v journaled=%v openBreakers=%d replayedShards=%d\n",
		status, s.b.Ready(), degraded, needs, s.journaled(), open, replayed)
}

func (s *Server) recover(out *bufio.Writer) error {
	rec, ok := s.b.(Recoverer)
	if !ok || !rec.Journaled() {
		return errors.New("RECOVER requires a journaled index (start waved with -journal)")
	}
	s.mu.Lock()
	rep, err := rec.Recover()
	if err == nil {
		s.lastReplayed = len(rep.ShardsReplayed)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	shards := "-"
	if len(rep.ShardsReplayed) > 0 {
		parts := make([]string, len(rep.ShardsReplayed))
		for i, sh := range rep.ShardsReplayed {
			parts[i] = strconv.Itoa(sh)
		}
		shards = strings.Join(parts, ",")
	}
	fmt.Fprintf(out, "OK recovered checkpointDay=%d replayed=%d uncommitted=%d torn=%v shardsReplayed=%s\n",
		rep.CheckpointDay, len(rep.ReplayedDays), len(rep.Uncommitted), rep.TornTail, shards)
	return nil
}

func (s *Server) probe(ctx context.Context, out *bufio.Writer, args []string, ranged bool) error {
	var es []wave.Entry
	var err error
	switch {
	case !ranged && len(args) == 1:
		es, err = s.q.Probe(ctx, args[0])
	case ranged && len(args) == 3:
		var from, to int
		if from, err = strconv.Atoi(args[1]); err != nil {
			return fmt.Errorf("bad from: %w", err)
		}
		if to, err = strconv.Atoi(args[2]); err != nil {
			return fmt.Errorf("bad to: %w", err)
		}
		es, err = s.b.ProbeRange(ctx, args[0], from, to)
	default:
		return errors.New("usage: PROBE <key> | PROBERANGE <key> <from> <to>")
	}
	if err != nil {
		return err
	}
	name := "probe"
	if ranged {
		name = "proberange"
	}
	s.emitDegraded(ctx, out, name)
	for _, e := range es {
		fmt.Fprintf(out, "ENTRY %d %d %d\n", e.Day, e.RecordID, e.Aux)
	}
	fmt.Fprintf(out, "END %d\n", len(es))
	return nil
}

func (s *Server) mprobe(ctx context.Context, out *bufio.Writer, args []string) error {
	if len(args) < 3 {
		return errors.New("usage: MPROBE <from> <to> <key>...")
	}
	from, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad from: %w", err)
	}
	to, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("bad to: %w", err)
	}
	res, err := s.b.MultiProbeRange(ctx, args[2:], from, to)
	if err != nil {
		return err
	}
	s.emitDegraded(ctx, out, "mprobe")
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		es := res[k]
		fmt.Fprintf(out, "KEY %s %d\n", k, len(es))
		for _, e := range es {
			fmt.Fprintf(out, "ENTRY %d %d %d\n", e.Day, e.RecordID, e.Aux)
		}
	}
	fmt.Fprintf(out, "END %d\n", len(keys))
	return nil
}

func (s *Server) count(ctx context.Context, out *bufio.Writer, args []string) error {
	from, to := s.b.Window()
	switch len(args) {
	case 0:
	case 2:
		var err error
		if from, err = strconv.Atoi(args[0]); err != nil {
			return fmt.Errorf("bad from: %w", err)
		}
		if to, err = strconv.Atoi(args[1]); err != nil {
			return fmt.Errorf("bad to: %w", err)
		}
	default:
		return errors.New("usage: COUNT [<from> <to>]")
	}
	// The fold, not a scan: a cache-on backend answers from memoized
	// per-constituent partials, and a router sums one count per shard.
	n, err := s.q.CountRange(ctx, from, to)
	if err != nil {
		return err
	}
	s.emitDegraded(ctx, out, "count")
	fmt.Fprintf(out, "OK %d\n", n)
	return nil
}

func (s *Server) metrics(out *bufio.Writer) {
	m := s.MetricsSnapshot()
	n := 0
	for _, c := range m.Counters {
		fmt.Fprintf(out, "COUNTER %s %d\n", c.Name, c.Value)
		n++
	}
	for _, g := range m.Gauges {
		fmt.Fprintf(out, "GAUGE %s %d\n", g.Name, g.Value)
		n++
	}
	for _, h := range m.Histograms {
		fmt.Fprintf(out, "HIST %s %d %d %d %d %d %d %d %d\n",
			h.Name, h.Count, h.Sum, h.Min, h.Max,
			h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.95), h.Quantile(0.99))
		n++
	}
	fmt.Fprintf(out, "END %d\n", n)
}

// shardMetrics streams per-shard metrics snapshots plus breaker
// positions: "SHARD <i> COUNTER|GAUGE|HIST ..." lines in the METRICS
// formats, and one "SHARD <i> BREAKER <state> <failures>" line per
// shard when the backend runs breakers. An unsharded backend streams
// its single snapshot as shard 0, so consumers need no special case.
func (s *Server) shardMetrics(out *bufio.Writer) {
	var snaps []wave.MetricsSnapshot
	if sm, ok := s.b.(interface{ ShardMetrics() []wave.MetricsSnapshot }); ok {
		snaps = sm.ShardMetrics()
	} else {
		snaps = []wave.MetricsSnapshot{s.b.Metrics()}
	}
	n := 0
	for i, m := range snaps {
		for _, c := range m.Counters {
			fmt.Fprintf(out, "SHARD %d COUNTER %s %d\n", i, c.Name, c.Value)
			n++
		}
		for _, g := range m.Gauges {
			fmt.Fprintf(out, "SHARD %d GAUGE %s %d\n", i, g.Name, g.Value)
			n++
		}
		for _, h := range m.Histograms {
			fmt.Fprintf(out, "SHARD %d HIST %s %d %d %d %d %d %d %d %d\n",
				i, h.Name, h.Count, h.Sum, h.Min, h.Max,
				h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.95), h.Quantile(0.99))
			n++
		}
	}
	if bs, ok := s.b.(interface{ BreakerStates() []shard.BreakerInfo }); ok {
		for _, bi := range bs.BreakerStates() {
			fmt.Fprintf(out, "SHARD %d BREAKER %s %d\n", bi.Shard, bi.State, bi.Failures)
			n++
		}
	}
	fmt.Fprintf(out, "END %d\n", n)
}

// events streams the retained event timeline after an optional cursor:
// "EVENT <seq> <unix_us> <type> <shard> [k=v ...]" lines terminated by
// "END <n> last=<seq> dropped=<d>". Pass last back as since= to
// resume; dropped > 0 means the cursor fell behind the ring.
func (s *Server) events(out *bufio.Writer, args []string) error {
	if s.opts.Events == nil {
		return errors.New("EVENTS requires the event bus (start waved with -events)")
	}
	var since uint64
	max := 0
	for _, a := range args {
		var err error
		switch {
		case strings.HasPrefix(a, "since="):
			since, err = strconv.ParseUint(a[len("since="):], 10, 64)
		case strings.HasPrefix(a, "max="):
			max, err = strconv.Atoi(a[len("max="):])
		default:
			return errors.New("usage: EVENTS [since=<seq>] [max=<n>]")
		}
		if err != nil {
			return fmt.Errorf("bad argument %q", a)
		}
	}
	evs, dropped := s.opts.Events.Since(since)
	if max > 0 && len(evs) > max {
		evs = evs[:max]
	}
	last := since + dropped
	// A cursor ahead of the bus means the caller outlived a server
	// restart (the bus renumbers from 1). Echoing the stale cursor back
	// would wedge the caller forever; hand it the bus's true position so
	// its next request resyncs.
	if lastSeq := s.opts.Events.LastSeq(); last > lastSeq {
		last = lastSeq
	}
	for _, ev := range evs {
		fmt.Fprintln(out, ev.WireLine())
		last = ev.Seq
	}
	fmt.Fprintf(out, "END %d last=%d dropped=%d\n", len(evs), last, dropped)
	return nil
}

// cache streams the caching-tier snapshot: one BLOCKS line (the block
// buffer pool summed across stores and shards), one RESULTS line (the
// per-constituent result cache), and one GEN line per wave slot with its
// current constituent generation.
func (s *Server) cache(out *bufio.Writer) {
	ci := s.b.CacheInfo()
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	n := 2
	fmt.Fprintf(out, "BLOCKS %d %d %d %d %d %d %d\n",
		b2i(ci.BlocksEnabled), ci.Blocks.Hits, ci.Blocks.Misses, ci.Blocks.Evictions,
		ci.Blocks.Resident, ci.Blocks.SavedSeeks, ci.Blocks.SavedSimTime.Microseconds())
	fmt.Fprintf(out, "RESULTS %d %d %d %d %d %d %d %d\n",
		b2i(ci.ResultsEnabled), ci.Results.Hits, ci.Results.Misses, ci.Results.Evictions,
		ci.Results.Invalidated, ci.Results.Entries, ci.Results.CostUsed, ci.Results.CostCap)
	for i, g := range ci.Generations {
		fmt.Fprintf(out, "GEN %d %d\n", i, g)
		n++
	}
	fmt.Fprintf(out, "END %d\n", n)
}

// slo streams the SLO report: one "OBJ ..." line with the objectives,
// then one "SLO <cmd> <window> <rateMilli> <errMilli> <slowMilli>
// <quantileUs> <burnMilli> <alerting>" line per command×window,
// terminated by "END <n>".
func (s *Server) slo(out *bufio.Writer) error {
	if s.opts.SLO == nil {
		return errors.New("SLO requires the SLO engine (start waved with -slo)")
	}
	rep := s.opts.SLO.Report()
	o := rep.Objectives
	fmt.Fprintf(out, "OBJ availability=%g quantile=%g latencyus=%d burnalert=%g\n",
		o.Availability, o.LatencyQuantile, o.LatencyUS, o.BurnAlert)
	n := 0
	for _, c := range rep.Commands {
		for _, w := range c.Windows {
			alert := 0
			if w.Alerting {
				alert = 1
			}
			fmt.Fprintf(out, "SLO %s %s %d %d %d %d %d %d\n",
				c.Cmd, w.Window, w.RateMilli, w.ErrMilli, w.SlowMilli, w.QuantileUS, w.BurnMilli, alert)
			n++
		}
	}
	fmt.Fprintf(out, "END %d\n", n)
	return nil
}

// work streams the index's per-cause disk work ledger.
func (s *Server) work(out *bufio.Writer) {
	rows := s.b.Work()
	for _, r := range rows {
		fmt.Fprintf(out, "WORK %s %d %d %d %d\n",
			r.Cause, r.Seeks, r.BytesRead, r.BytesWritten, r.SimTime.Microseconds())
	}
	fmt.Fprintf(out, "END %d\n", len(rows))
}

func (s *Server) slowlog(out *bufio.Writer, args []string) error {
	switch len(args) {
	case 0:
		log := s.b.SlowQueries()
		for _, q := range log {
			key := q.Key
			if key == "" {
				key = "-"
			}
			trace := q.TraceID
			if trace == "" {
				trace = "-"
			}
			fmt.Fprintf(out, "SLOW %s %d %d %d %d %d %d %d %d %d %d %s %s", q.Kind, q.Shard, q.From, q.To,
				q.Keys, q.Entries, q.Duration.Microseconds(),
				q.Seeks, q.BytesRead, q.BytesWritten, q.DiskTime.Microseconds(), trace, key)
			if q.Err != "" {
				fmt.Fprintf(out, " %s", strings.ReplaceAll(q.Err, "\n", " "))
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "END %d\n", len(log))
		return nil
	case 1:
		ms, err := strconv.Atoi(args[0])
		if err != nil || ms < 0 {
			return fmt.Errorf("bad threshold %q (milliseconds)", args[0])
		}
		s.b.SetSlowQueryThreshold(time.Duration(ms) * time.Millisecond)
		fmt.Fprintf(out, "OK threshold %dms\n", ms)
		return nil
	default:
		return errors.New("usage: SLOWLOG [<thresholdms>]")
	}
}

func (s *Server) topk(ctx context.Context, out *bufio.Writer, args []string) error {
	if len(args) != 1 {
		return errors.New("usage: TOPK <k>")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 {
		return fmt.Errorf("bad k %q", args[0])
	}
	from, to := s.b.Window()
	top, err := s.q.TopKeys(ctx, k, from, to)
	if err != nil {
		return err
	}
	s.emitDegraded(ctx, out, "topk")
	for _, e := range top {
		fmt.Fprintf(out, "KEY %s %d\n", e.Key, e.Count)
	}
	fmt.Fprintf(out, "END %d\n", len(top))
	return nil
}
