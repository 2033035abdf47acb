package shard

import (
	"context"
	"errors"
	"sync"
	"time"

	"waveindex/wave"
)

// Per-shard circuit breakers. A shard whose queries fail repeatedly —
// its store scripted to fail, its disk genuinely sick — would otherwise
// drag every scatter-gather query down with it forever, because the
// router fans out to all shards and joins errors. The breaker converts
// that into bounded degradation: after Threshold consecutive query
// failures the shard's breaker opens and the router stops sending it
// queries. Callers that opted into partial results (wave.
// WithPartialResults) get answers from the healthy shards with the
// skipped slice annotated; callers that didn't get wave.ErrUnavailable,
// a typed retryable error.
//
// An open breaker half-opens after Cooldown: exactly one query is let
// through as a probe. If the probe succeeds the breaker closes and full
// results resume; if it fails the breaker re-opens for another
// cooldown; if it ends with a non-countable error (the caller hung up,
// the index not ready) the outcome is inconclusive and the breaker
// stays half-open for the next query to probe. A successful Recover
// resets the recovered shards' breakers outright — recovery rebuilt the
// shard, so there is nothing left to probe for.
//
// Failures are counted per completed shard call. Context cancellation
// and deadline expiry are the caller's doing and never count; neither
// does wave.ErrNotReady, which is a lifecycle phase, not a fault.

// BreakerConfig configures the router's per-shard circuit breakers.
// The zero value disables them, preserving fail-stop fan-out.
type BreakerConfig struct {
	// Threshold is the number of consecutive query failures that opens
	// a shard's breaker. <= 0 disables breakers entirely.
	Threshold int
	// Cooldown is how long an open breaker waits before half-opening to
	// admit a single probe query. <= 0 defaults to one second.
	Cooldown time.Duration
}

func (c BreakerConfig) enabled() bool { return c.Threshold > 0 }

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return time.Second
	}
	return c.Cooldown
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker positions, in the usual closed → open → half-open cycle.
const (
	// BreakerClosed: queries flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: queries skip the shard until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe query is in flight; everything else
	// still skips the shard.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerInfo is one shard's breaker snapshot.
type BreakerInfo struct {
	Shard    int
	State    BreakerState
	Failures int // consecutive failures observed while closed
}

// breaker is one shard's circuit breaker.
type breaker struct {
	cfg    BreakerConfig
	now    func() time.Time            // test hook; time.Now in production
	notify func(from, to BreakerState) // optional state-change hook

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive, while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // the half-open probe slot is taken
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg, now: time.Now}
}

// announce fires the state-change hook for a from→to move. Called
// after b.mu is released, so the hook may take its own locks (publish
// to an event bus, log) without ordering against the breaker.
func (b *breaker) announce(from, to BreakerState) {
	if b.notify != nil && from != to {
		b.notify(from, to)
	}
}

// allow decides whether a query may hit the shard. probe marks the
// caller as the half-open probe: it must report its outcome via result,
// which either closes or re-opens the breaker.
func (b *breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	from := b.state
	ok, probe = b.allowLocked()
	to := b.state
	b.mu.Unlock()
	b.announce(from, to)
	return ok, probe
}

func (b *breaker) allowLocked() (ok, probe bool) {
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.cooldown() {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true
	default: // BreakerHalfOpen
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// countable reports whether err is a shard fault (as opposed to the
// caller hanging up or the index merely not being ready yet).
func countable(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, wave.ErrNotReady)
}

// result records a completed shard call's outcome.
func (b *breaker) result(err error, probe bool) {
	b.mu.Lock()
	from := b.state
	b.resultLocked(err, probe)
	to := b.state
	b.mu.Unlock()
	b.announce(from, to)
}

func (b *breaker) resultLocked(err error, probe bool) {
	failed := countable(err)
	if probe {
		b.probing = false
		switch {
		case err == nil:
			b.state = BreakerClosed
			b.failures = 0
		case failed:
			b.state = BreakerOpen
			b.openedAt = b.now()
		default:
			// Non-countable error (caller cancelled, index not ready):
			// the shard never demonstrated health, so the probe is
			// inconclusive. Stay half-open with the probe slot freed —
			// the next query probes again.
		}
		return
	}
	if b.state != BreakerClosed {
		return // a straggler from before the breaker moved; ignore
	}
	if !failed {
		if err == nil {
			b.failures = 0
		}
		return
	}
	b.failures++
	if b.failures >= b.cfg.Threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// reset force-closes the breaker (after a successful Recover).
func (b *breaker) reset() {
	b.mu.Lock()
	from := b.state
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
	b.announce(from, BreakerClosed)
}

// snapshot returns the breaker's current position.
func (b *breaker) snapshot() (BreakerState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.failures
}

// errSkipped flows from shardCall to its caller when an open breaker
// skipped the shard under partial-results mode; call sites treat it as
// "no results from this shard", never as a failure.
var errSkipped = errors.New("shard: skipped by open breaker")

// shardCall runs one shard query under the breaker protocol. With
// breakers disabled it is a plain call. With the shard's breaker open,
// the call is skipped: partial-results callers get errSkipped (and the
// slice recorded in their report), everyone else gets
// wave.ErrUnavailable.
func (r *Router) shardCall(ctx context.Context, i int, f func(s wave.Backend) error) error {
	if r.brk == nil {
		return f(r.shards[i])
	}
	b := r.brk[i]
	ok, probe := b.allow()
	if !ok {
		if rep := wave.PartialFromContext(ctx); rep != nil {
			rep.Add(wave.DegradedSlice{Shard: i, Shards: len(r.shards), Cause: "breaker open"})
			return errSkipped
		}
		return wave.ErrUnavailable
	}
	err := f(r.shards[i])
	b.result(err, probe)
	return err
}

// fanQuery is fan with the breaker protocol applied per shard: skipped
// shards contribute nothing instead of failing the query.
func (r *Router) fanQuery(ctx context.Context, f func(i int, s wave.Backend) error) error {
	return r.fan(func(i int, s wave.Backend) error {
		err := r.shardCall(ctx, i, func(s wave.Backend) error { return f(i, s) })
		if errors.Is(err, errSkipped) {
			return nil
		}
		return err
	})
}

// BreakerStates returns every shard's breaker snapshot, in shard order.
// Nil when breakers are disabled.
func (r *Router) BreakerStates() []BreakerInfo {
	if r.brk == nil {
		return nil
	}
	out := make([]BreakerInfo, len(r.brk))
	for i, b := range r.brk {
		st, n := b.snapshot()
		out[i] = BreakerInfo{Shard: i, State: st, Failures: n}
	}
	return out
}

// OpenBreakers returns the shards whose breakers are not closed —
// exactly the slices a partial-results query would skip (a half-open
// breaker still skips everything but its probe).
func (r *Router) OpenBreakers() []int {
	var out []int
	for _, bi := range r.BreakerStates() {
		if bi.State != BreakerClosed {
			out = append(out, bi.Shard)
		}
	}
	return out
}
