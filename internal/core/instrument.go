package core

import (
	"context"
	"time"

	"waveindex/internal/metrics"
)

// This file is the core's observability surface: per-query engine
// counters (QueryMetrics), structured span events (Tracer/TraceEvent),
// and an Observer that converts the schemes' maintenance-operation
// stream into per-phase wall-clock timings (MetricsObserver). Everything
// here is nil-safe — an uninstrumented wave records nothing and pays one
// nil check per query.

// QueryMetrics holds the engine-level instrumentation handles of one
// wave. Handles may be nil (no-op); the zero value records nothing.
type QueryMetrics struct {
	// Constituents counts constituents touched by queries (the paper's
	// "indexes accessed per TimedIndexProbe" term).
	Constituents *metrics.Counter
	// Workers observes the worker count each parallel query ran with:
	// min(engine parallelism, qualifying constituents).
	Workers *metrics.Histogram
	// MergeDepth observes the stream count of each k-way merged scan.
	MergeDepth *metrics.Histogram
	// EarlyStops counts scans stopped early by the visitor returning
	// false.
	EarlyStops *metrics.Counter
}

// TraceEvent is one structured span emitted by the engine, a scheme
// transition, or snapshot persistence. Fields irrelevant to a Kind are
// zero.
type TraceEvent struct {
	// Kind names the span: "probe", "probe.constituent", "mprobe",
	// "mprobe.constituent", "scan", "scan.constituent",
	// "transition.pre", "transition.work", "transition.post",
	// "snapshot.save", "snapshot.load", and — from the journaled
	// wrapper — "journal.checkpoint" and "journal.recovery" (Day is
	// the last day covered; Ops the replayed-day count on recovery).
	Kind string
	// Start is when the span began; Duration its wall-clock length.
	Start    time.Time
	Duration time.Duration
	// Key is the probed search value ("" for scans); Keys the batch size
	// of a multi-probe.
	Key  string
	Keys int
	// From and To delimit the queried day range.
	From, To int
	// Constituent is the wave slot of a per-constituent span (-1 for
	// whole-query and transition spans); Constituents the number of
	// qualifying constituents of a whole-query span.
	Constituent  int
	Constituents int
	// Entries counts the entries returned or visited.
	Entries int
	// Day is the transition's new day; Ops the operation count of a
	// transition phase span.
	Day int
	Ops int
	// TraceID is the caller-supplied trace ID carried by the query's
	// context (see WithTraceID); "" when the query was not traced.
	// Transition and snapshot spans have no trace ID.
	TraceID string
	// Shard labels spans produced inside a shard router: 1-based shard
	// number, 0 for an unsharded index. Filled by the router's per-shard
	// tracer wrapper, never by the engine itself.
	Shard int
	// Err is the span's error, if it failed.
	Err error
}

// traceIDKey keys the trace ID carried in a query context.
type traceIDKey struct{}

// WithTraceID returns a context whose queries are stamped with the given
// wire-level trace ID: every span they emit and every slow-query-log
// entry they produce carries it, so a client-chosen ID can be followed
// from the wire through the engine into exported traces. An empty id
// returns ctx unchanged.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom returns the trace ID carried by ctx, or "" if none.
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// Tracer receives span events. Implementations must be safe for
// concurrent use: query spans are emitted from query goroutines while
// transition spans come from the maintenance goroutine.
type Tracer interface {
	TraceEvent(ev TraceEvent)
}

// spanStart reads the clock for a span only when a tracer will receive
// it; the per-constituent hot paths pair it with an explicit tr != nil
// guard around the event so an untraced query neither reads the clock
// nor builds a TraceEvent.
func spanStart(tr Tracer) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// emit sends ev to tr if a tracer is wired.
func emit(tr Tracer, ev TraceEvent) {
	if tr != nil {
		tr.TraceEvent(ev)
	}
}

// SetInstrumentation wires query metrics and a tracer into the wave.
// Either may be nil. Queries already in flight keep the instrumentation
// they started with.
func (w *Wave) SetInstrumentation(qm *QueryMetrics, tr Tracer) {
	w.mu.Lock()
	if qm != nil {
		w.qm = *qm
	} else {
		w.qm = QueryMetrics{}
	}
	w.tracer = tr
	w.mu.Unlock()
}

// instrumentation returns the wave's current instrumentation handles.
func (w *Wave) instrumentation() (QueryMetrics, Tracer) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.qm, w.tracer
}

// TransitionMetrics holds the maintenance-side instrumentation handles a
// MetricsObserver records into. Handles may be nil (no-op).
type TransitionMetrics struct {
	// Transitions counts BeginTransition events (Start counts as day 0).
	Transitions *metrics.Counter
	// Ops counts maintenance operations by kind; index by OpKind.
	Ops [6]*metrics.Counter
	// OpDays counts the day-arguments of maintenance operations — the
	// paper's per-day work attribution (e.g. REINDEX rebuilding W/n days
	// charges W/n here per transition).
	OpDays *metrics.Counter
	// PreUS, WorkUS, and PostUS observe the wall-clock microseconds of
	// the paper's three transition phases: pre-computation, the critical
	// path from new-day arrival to publish, and post-work.
	PreUS, WorkUS, PostUS *metrics.Histogram
	// BuildUS observes the wall-clock microseconds of individual
	// constituent builds reported by parallel-building backends.
	BuildUS *metrics.Histogram
}

// NewTransitionMetrics binds the standard transition metric names on reg
// (nil-safe: a nil registry yields all-no-op handles).
func NewTransitionMetrics(reg *metrics.Registry) TransitionMetrics {
	tm := TransitionMetrics{
		Transitions: reg.Counter("transition_total"),
		OpDays:      reg.Counter("transition_op_days_total"),
		PreUS:       reg.Histogram("transition_pre_us"),
		WorkUS:      reg.Histogram("transition_work_us"),
		PostUS:      reg.Histogram("transition_post_us"),
		BuildUS:     reg.Histogram("transition_build_us"),
	}
	for k := OpBuild; k <= OpDropIndex; k++ {
		tm.Ops[k] = reg.Counter("transition_op_" + k.String() + "_total")
	}
	return tm
}

// MetricsObserver is an Observer that times the three phases of every
// transition (§5's pre-computation / transition / post-work split) and
// counts maintenance operations, recording into TransitionMetrics and
// emitting transition.{pre,work,post} trace spans. Like all observers it
// is driven from the single maintenance goroutine.
type MetricsObserver struct {
	m      TransitionMetrics
	tracer Tracer
	now    func() time.Time

	active     bool
	newDay     int
	phase      Phase
	phaseStart time.Time
	phaseOps   int
}

// NewMetricsObserver returns an observer recording into m and emitting
// spans to tr (tr may be nil).
func NewMetricsObserver(m TransitionMetrics, tr Tracer) *MetricsObserver {
	return &MetricsObserver{m: m, tracer: tr, now: time.Now}
}

// phaseKind maps a phase to its span kind and histogram.
func (o *MetricsObserver) phaseKind() (string, *metrics.Histogram) {
	switch o.phase {
	case PhasePre:
		return "transition.pre", o.m.PreUS
	case PhaseTransition:
		return "transition.work", o.m.WorkUS
	default:
		return "transition.post", o.m.PostUS
	}
}

// closePhase records the running phase's duration and op count, then
// restarts the clock for the next phase.
func (o *MetricsObserver) closePhase() {
	now := o.now()
	d := now.Sub(o.phaseStart)
	kind, hist := o.phaseKind()
	hist.Observe(d.Microseconds())
	emit(o.tracer, TraceEvent{
		Kind: kind, Start: o.phaseStart, Duration: d,
		Day: o.newDay, Ops: o.phaseOps, Constituent: -1,
	})
	o.phaseStart = now
	o.phaseOps = 0
}

// BeginTransition implements Observer.
func (o *MetricsObserver) BeginTransition(newDay int) {
	if o.active {
		o.closePhase() // the previous transition's post-work ends here
	}
	o.active = true
	o.newDay = newDay
	o.phase = PhasePre
	o.phaseStart = o.now()
	o.phaseOps = 0
	o.m.Transitions.Inc()
}

// RecordOp implements Observer. The phase flips from pre-computation to
// transition work at the first operation touching the new day — the §5
// attribution rule shared with Recorder.
func (o *MetricsObserver) RecordOp(kind OpKind, days []int) {
	if !o.active {
		return
	}
	if o.phase == PhasePre && o.newDay != 0 && containsDay(days, o.newDay) {
		o.closePhase()
		o.phase = PhaseTransition
	}
	o.phaseOps++
	if kind >= OpBuild && kind <= OpDropIndex {
		o.m.Ops[kind].Inc()
	}
	o.m.OpDays.Add(int64(len(days)))
}

// MarkPhase implements PhaseObserver: an explicit pre-computation →
// transition-work boundary from the scheme. It moves the boundary
// earlier than the op-stream heuristic would place it; once the phase
// has flipped, both the marks and the heuristic are no-ops.
func (o *MetricsObserver) MarkPhase(p Phase) {
	if !o.active || p != PhaseTransition || o.phase != PhasePre || o.newDay == 0 {
		return
	}
	o.closePhase()
	o.phase = PhaseTransition
}

// TraceBuild implements BuildObserver: each concurrent constituent build
// becomes a transition.build span and a BuildUS observation.
func (o *MetricsObserver) TraceBuild(days []int, disk int, start time.Time, elapsed time.Duration) {
	o.m.BuildUS.Observe(elapsed.Microseconds())
	ev := TraceEvent{
		Kind: "transition.build", Start: start, Duration: elapsed,
		Day: o.newDay, Ops: 1, Constituent: disk,
	}
	if len(days) > 0 {
		ev.From, ev.To = days[0], days[len(days)-1]
	}
	emit(o.tracer, ev)
}

// Publish implements Observer: the critical path ends when newDay
// becomes queryable.
func (o *MetricsObserver) Publish(newDay int) {
	if !o.active || newDay != o.newDay {
		return
	}
	o.closePhase()
	o.phase = PhasePost
}

// Flush closes the currently running phase (normally the last
// transition's post-work); call it before reading final phase timings.
func (o *MetricsObserver) Flush() {
	if o.active {
		o.closePhase()
		o.active = false
	}
}

// FanoutObserver replicates events to several observers — e.g. a
// MetricsObserver plus a Recorder.
type FanoutObserver []Observer

// BeginTransition implements Observer.
func (f FanoutObserver) BeginTransition(newDay int) {
	for _, o := range f {
		o.BeginTransition(newDay)
	}
}

// RecordOp implements Observer.
func (f FanoutObserver) RecordOp(kind OpKind, days []int) {
	for _, o := range f {
		o.RecordOp(kind, days)
	}
}

// Publish implements Observer.
func (f FanoutObserver) Publish(newDay int) {
	for _, o := range f {
		o.Publish(newDay)
	}
}

// MarkPhase implements PhaseObserver, forwarding to members that
// understand explicit phase boundaries.
func (f FanoutObserver) MarkPhase(p Phase) {
	for _, o := range f {
		if po, ok := o.(PhaseObserver); ok {
			po.MarkPhase(p)
		}
	}
}

// TraceBuild implements BuildObserver, forwarding to members that
// record per-build timings.
func (f FanoutObserver) TraceBuild(days []int, disk int, start time.Time, elapsed time.Duration) {
	for _, o := range f {
		if bo, ok := o.(BuildObserver); ok {
			bo.TraceBuild(days, disk, start, elapsed)
		}
	}
}
