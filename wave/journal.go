package wave

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/simdisk"
)

// ErrNoCheckpoint is returned by Recover when the storage holds no
// checkpoint snapshot to recover from.
var ErrNoCheckpoint = errors.New("wave: journal storage has no checkpoint")

const checkpointFile = "checkpoint.snap"
const journalFile = "journal.wal"

// JournalStorage holds a journaled index's durable state: a checkpoint
// snapshot plus the transition journal (WAL) covering the days since.
// In-memory storage simulates durability (the journal's Crash/sync model
// still applies); directory storage persists both across processes.
type JournalStorage struct {
	dir string
	log *simdisk.Log

	mu   sync.Mutex
	snap []byte // in-memory checkpoint; unused in dir mode
}

// NewMemJournalStorage returns storage backed by memory: the checkpoint
// is a byte slice and the journal a RAM log. Sync ordering and torn-tail
// semantics behave exactly as in dir mode, so chaos tests can crash and
// recover without touching the filesystem.
func NewMemJournalStorage() *JournalStorage {
	return &JournalStorage{log: simdisk.NewRAMLog(simdisk.Config{})}
}

// OpenJournalDir returns storage rooted at dir (created if missing):
// checkpoint.snap holds the snapshot, journal.wal the WAL. A torn
// journal tail from an earlier crash is truncated on open.
func OpenJournalDir(dir string) (*JournalStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := simdisk.OpenFileLog(filepath.Join(dir, journalFile), simdisk.Config{})
	if err != nil {
		return nil, err
	}
	return &JournalStorage{dir: dir, log: log}, nil
}

// Log exposes the journal's log for fault injection and stats.
func (s *JournalStorage) Log() *simdisk.Log { return s.log }

// HasCheckpoint reports whether a checkpoint snapshot exists.
func (s *JournalStorage) HasCheckpoint() bool {
	blob, err := s.loadCheckpoint()
	return err == nil && blob != nil
}

func (s *JournalStorage) saveCheckpoint(blob []byte) error {
	if s.dir == "" {
		s.mu.Lock()
		s.snap = append([]byte(nil), blob...)
		s.mu.Unlock()
		return nil
	}
	// Write-new-then-rename so a crash mid-write leaves the previous
	// checkpoint intact; fsync before the rename so the rename never
	// publishes a partially-flushed file.
	final := filepath.Join(s.dir, checkpointFile)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}

func (s *JournalStorage) loadCheckpoint() ([]byte, error) {
	if s.dir == "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.snap == nil {
			return nil, nil
		}
		return append([]byte(nil), s.snap...), nil
	}
	blob, err := os.ReadFile(filepath.Join(s.dir, checkpointFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return blob, err
}

// Close closes the journal log. Durable state stays on disk (dir mode).
func (s *JournalStorage) Close() error { return s.log.Close() }

// RecoveryReport describes what Recover did.
type RecoveryReport struct {
	// CheckpointDay is the last day covered by the checkpoint snapshot
	// (FirstDay-1 when the checkpoint predates any ingestion).
	CheckpointDay int
	// ReplayedDays lists the journaled days re-applied on top of the
	// checkpoint, in order.
	ReplayedDays []int
	// TornTail reports that a partially-synced journal record was
	// detected and discarded — the signature of a crash during a sync;
	// the day it belonged to rolls back.
	TornTail bool
	// Uncommitted lists replayed days with no commit record: the crash
	// interrupted their transition and replay rolled them forward.
	Uncommitted []int
	// ShardsReplayed lists the shards whose journals replayed at least
	// one batch. A single Journaled index reports []int{0} when it
	// replayed anything; shard.Router merges the per-shard reports into
	// the true shard indices.
	ShardsReplayed []int
}

// Journaled wraps an Index with a transition journal and checkpointing
// so that a crash at any point inside an AddDay transition is
// recoverable: Recover rebuilds an index whose query results equal
// either the pre-transition or the post-transition wave, never a mix.
//
// The write protocol per AddDay: the day's batch is journaled and
// fsynced (intent), the transition runs, then a commit record is
// appended (riding to disk with the next sync). Every CheckpointEvery
// days a full snapshot is written and the journal truncated. Recovery
// loads the snapshot and replays the durable batches in day order.
//
// Mutating methods serialise among themselves; queries run concurrently
// against the wrapped index.
type Journaled struct {
	Queries // every derived query, over the journal's current index

	mu  sync.Mutex
	idx *Index
	st  *JournalStorage
	jr  *core.Journal
	cfg Config
	ing *ingester

	// idxLive mirrors idx for lock-free reads: Index() must not take
	// j.mu, because observability hooks (work-ledger sampling from a
	// transition span, metrics scrapes) read the index while AddDay or
	// Recover holds the mutex — taking it again would self-deadlock.
	idxLive atomic.Pointer[Index]

	every         int
	sinceCkpt     int
	needsRecovery bool
	closed        bool
}

// JournalOptions configures OpenJournaled.
type JournalOptions struct {
	// CheckpointEvery is the number of ingested days between automatic
	// checkpoints. 0 means 8; negative disables automatic checkpoints
	// (Checkpoint can still be called explicitly).
	CheckpointEvery int
}

// OpenJournaled opens a journaled index on the given storage. If the
// storage holds a checkpoint, the index is recovered from it (replaying
// any journaled days); otherwise a fresh index is created from cfg and
// an initial checkpoint is written. The storage's config (Window,
// Scheme, ...) wins over cfg's on recovery, since the journal's batches
// only make sense against the geometry they were written under.
func OpenJournaled(cfg Config, st *JournalStorage, opts JournalOptions) (*Journaled, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if cfg.StorePath != "" || cfg.Stores > 1 {
		return nil, fmt.Errorf("%w: a journaled index requires a single RAM-backed store (durability comes from the checkpoint and journal)", ErrBadConfig)
	}
	every := opts.CheckpointEvery
	if every == 0 {
		every = 8
	}
	j := &Journaled{st: st, jr: core.NewJournal(st.Log()), cfg: cfg, every: every}
	j.Queries = Over(j)
	// The async pipeline funnels through j.AddDay, so every queued day
	// still gets the full intent → apply → commit journal protocol; the
	// index is re-fetched per day because Recover swaps it.
	j.ing = newIngester(
		func(day int, postings []Posting) error { return j.AddDay(day, postings) },
		func() int { return j.Index().pendingNextDay() },
	)
	if st.HasCheckpoint() {
		if _, err := j.recoverLocked(); err != nil {
			return nil, err
		}
		return j, nil
	}
	cfg.extraObserver = core.NewStepRecorder(j.jr)
	idx, err := New(cfg)
	if err != nil {
		return nil, err
	}
	j.idx = idx
	j.idxLive.Store(idx)
	// Initial checkpoint: recovery always has a base image to replay
	// onto, even if the process dies during the very first day.
	if err := j.checkpointLocked(); err != nil {
		idx.Close()
		return nil, err
	}
	return j, nil
}

// Journaled reports true: the index can Recover. It lets layers that
// drive several backend shapes ask a shard.Router — journaled or not —
// and a journaled index the same question.
func (j *Journaled) Journaled() bool { return true }

// Index returns the wrapped queryable index. Recover swaps it, so
// callers should re-fetch rather than cache it across recoveries. The
// read is lock-free (see idxLive), so queries and metrics scrapes
// never wait behind an in-flight transition or recovery.
func (j *Journaled) Index() *Index {
	return j.idxLive.Load()
}

// NeedsRecovery reports whether an AddDay failed, leaving the index
// read-only until Recover.
func (j *Journaled) NeedsRecovery() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.needsRecovery
}

// Degraded reports whether queries are served from a subset of the wave
// (an aborted transition or a broken constituent).
func (j *Journaled) Degraded() bool {
	j.mu.Lock()
	idx, nr := j.idx, j.needsRecovery
	j.mu.Unlock()
	return nr || idx.Degraded()
}

// AddDay journals and ingests one day's postings. On failure the index
// is poisoned (NeedsRecovery reports true and further AddDays return
// ErrNeedsRecovery) until Recover rolls it back or forward; queries
// keep working throughout.
func (j *Journaled) AddDay(day int, postings []Posting) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.needsRecovery {
		return ErrNeedsRecovery
	}
	// Validate against the index before journaling so a mis-numbered day
	// is rejected without leaving an intent record behind.
	j.idx.mu.Lock()
	want, closed := j.idx.nextDay, j.idx.closed
	j.idx.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if day != want {
		return fmt.Errorf("%w: got day %d, want %d", ErrBadDay, day, want)
	}
	// Intent first: the batch must be durable before any index mutation,
	// so a crash mid-transition can roll forward deterministically.
	if err := j.jr.AppendBatch(&index.Batch{Day: day, Postings: postings}); err != nil {
		j.needsRecovery = true
		return fmt.Errorf("%w: day %d: journal append: %w", ErrTransitionAborted, day, err)
	}
	if err := j.jr.Sync(); err != nil {
		// After a failed fsync the journal's durable state is unknown;
		// poison rather than guess.
		j.needsRecovery = true
		return fmt.Errorf("%w: day %d: journal sync: %w", ErrTransitionAborted, day, err)
	}
	if err := j.idx.AddDay(day, postings); err != nil {
		j.needsRecovery = true
		return err
	}
	// Completion record; durable with the next day's sync.
	_ = j.jr.AppendCommit(day)
	j.sinceCkpt++
	if j.every > 0 && j.sinceCkpt >= j.every {
		return j.checkpointLocked()
	}
	return nil
}

// Checkpoint writes a full snapshot and truncates the journal.
// AddDayAsync journals and ingests one day asynchronously, with the
// same semantics as Index.AddDayAsync: the call returns once the day is
// queued, a single maintenance goroutine runs the full journal protocol
// for each queued day in order, and failures surface on Flush.
func (j *Journaled) AddDayAsync(day int, postings []Posting) error {
	return j.ing.enqueue(day, postings)
}

// Flush blocks until every day queued by AddDayAsync has been journaled
// and applied, returning the first failure (sticky, like a failed
// AddDay).
func (j *Journaled) Flush() error { return j.ing.flush() }

// IngestQueueDepth returns the number of days queued or being applied
// by the asynchronous ingestion pipeline.
func (j *Journaled) IngestQueueDepth() int { return j.ing.depth() }

func (j *Journaled) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.needsRecovery {
		return ErrNeedsRecovery
	}
	return j.checkpointLocked()
}

func (j *Journaled) checkpointLocked() error {
	start := time.Now()
	// Pending commit/step records must be durable before the truncate.
	if err := j.jr.Sync(); err != nil {
		j.needsRecovery = true
		return fmt.Errorf("wave: checkpoint: journal sync: %w", err)
	}
	var buf bytes.Buffer
	if err := j.idx.SaveSnapshot(&buf); err != nil {
		return fmt.Errorf("wave: checkpoint: %w", err)
	}
	if err := j.st.saveCheckpoint(buf.Bytes()); err != nil {
		return fmt.Errorf("wave: checkpoint: %w", err)
	}
	// A crash between the snapshot and this truncate is safe: replay
	// skips journal batches the new checkpoint already covers.
	if err := j.jr.Reset(); err != nil {
		j.needsRecovery = true
		return fmt.Errorf("wave: checkpoint: journal reset: %w", err)
	}
	j.sinceCkpt = 0
	if j.cfg.Trace != nil {
		j.idx.mu.Lock()
		day := j.idx.nextDay - 1
		j.idx.mu.Unlock()
		j.cfg.Trace.TraceEvent(core.TraceEvent{
			Kind:        "journal.checkpoint",
			Start:       start,
			Duration:    time.Since(start),
			Day:         day,
			Constituent: -1,
		})
	}
	return nil
}

// Recover rebuilds the index from the last checkpoint plus the durable
// journal: batches whose intent record survived are replayed in day
// order (rolling an interrupted transition forward past its crash
// point), a torn or unsynced journal tail rolls its day back. The
// resulting wave's query results are identical to the pre- or
// post-transition state of every journaled day — never a mix. The old
// in-memory index is discarded.
func (j *Journaled) Recover() (*RecoveryReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	return j.recoverLocked()
}

func (j *Journaled) recoverLocked() (*RecoveryReport, error) {
	start := time.Now()
	blob, err := j.st.loadCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("wave: recover: %w", err)
	}
	if blob == nil {
		return nil, ErrNoCheckpoint
	}
	recs, torn, err := j.jr.Records()
	if err != nil {
		return nil, fmt.Errorf("wave: recover: %w", err)
	}
	idx, err := loadWithExtras(bytes.NewReader(blob), j.cfg.Trace, j.cfg.crash, core.NewStepRecorder(j.jr))
	if err != nil {
		return nil, fmt.Errorf("wave: recover: checkpoint: %w", err)
	}
	idx.mu.Lock()
	next := idx.nextDay
	idx.mu.Unlock()
	rep := &RecoveryReport{CheckpointDay: next - 1, TornTail: torn}

	// Replay: batches in day order, skipping days the checkpoint already
	// covers (a crash between checkpoint and journal truncate leaves
	// them behind).
	committed := map[int]bool{}
	batches := map[int]*index.Batch{}
	var days []int
	for _, r := range recs {
		switch r.Kind {
		case core.JBatch:
			if r.Day >= next && batches[r.Day] == nil {
				batches[r.Day] = r.Batch
				days = append(days, r.Day)
			}
		case core.JCommit:
			committed[r.Day] = true
		}
	}
	sort.Ints(days)
	// Replayed transitions are recovery work in the work ledger, not
	// transition work: the non-query cause set here wins over AddDay's.
	restore := idx.setWorkCause(simdisk.CauseRecovery)
	for _, d := range days {
		if err := idx.AddDay(d, batches[d].Postings); err != nil {
			idx.Close()
			return nil, fmt.Errorf("wave: recover: replay day %d: %w", d, err)
		}
		rep.ReplayedDays = append(rep.ReplayedDays, d)
		if !committed[d] {
			rep.Uncommitted = append(rep.Uncommitted, d)
		}
	}
	restore()
	if len(rep.ReplayedDays) > 0 {
		rep.ShardsReplayed = []int{0}
	}
	if j.idx != nil {
		j.idx.Close()
	}
	j.idx = idx
	j.idxLive.Store(idx)
	j.needsRecovery = false
	j.sinceCkpt = len(rep.ReplayedDays)
	if j.cfg.Trace != nil {
		day := rep.CheckpointDay
		if n := len(rep.ReplayedDays); n > 0 {
			day = rep.ReplayedDays[n-1]
		}
		j.cfg.Trace.TraceEvent(core.TraceEvent{
			Kind:        "journal.recovery",
			Start:       start,
			Duration:    time.Since(start),
			Day:         day,
			Ops:         len(rep.ReplayedDays),
			Constituent: -1,
		})
	}
	return rep, nil
}

// Close closes the wrapped index and the journal storage.
func (j *Journaled) Close() error {
	// Drain the async pipeline before taking j.mu: queued days are
	// applied via AddDay, which needs the lock.
	j.ing.close()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.closed = true
	err := j.idx.Close()
	if cerr := j.st.Close(); err == nil {
		err = cerr
	}
	return err
}
