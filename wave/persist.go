package wave

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"waveindex/internal/core"
	"waveindex/internal/index"
	"waveindex/internal/simdisk"
	"waveindex/internal/wire"
)

const (
	// snapshotMagic is the current snapshot format: V2 added the
	// CacheResults field. V1 snapshots (no result cache) still load.
	snapshotMagic   = "WAVX2"
	snapshotMagicV1 = "WAVX1"
)

// SaveSnapshot serialises the whole index — configuration, retained raw
// day batches, and the maintenance scheme's complete state including
// every constituent and temporary index — so Load can resume ingestion
// and queries exactly where this index left off.
func (x *Index) SaveSnapshot(w io.Writer) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	if len(x.stores) > 1 {
		return errors.New("wave: snapshot of a multi-store index is not supported")
	}
	start := time.Now()
	restore := x.setWorkCause(simdisk.CauseCheckpoint)
	defer restore()
	defer func() {
		x.obs.saveUS.Observe(time.Since(start).Microseconds())
		if x.obs.tracer != nil {
			x.obs.tracer.TraceEvent(TraceEvent{
				Kind: "snapshot.save", Start: start, Duration: time.Since(start),
				Day: x.nextDay - 1, Constituent: -1,
			})
		}
	}()
	ww := wire.NewWriter(w)
	ww.Magic(snapshotMagic)
	ww.Int(x.cfg.Window)
	ww.Int(x.cfg.Indexes)
	ww.Int(int(x.cfg.Scheme))
	ww.Int(int(x.cfg.Update))
	ww.Int(int(x.cfg.Directory))
	ww.I64(int64(x.cfg.GrowthFactor * 1000))
	ww.Int(x.cfg.BlockSize)
	ww.Int(x.cfg.CacheBlocks)
	ww.Int(x.cfg.CacheResults)
	ww.String(x.cfg.StorePath)
	ww.Int(x.cfg.FirstDay)
	ww.Int(x.nextDay)
	ww.Bool(x.ready)

	var src bytes.Buffer
	if err := core.SaveSource(x.src, &src); err != nil {
		return fmt.Errorf("wave: snapshot: %w", err)
	}
	ww.Bytes(src.Bytes())

	if x.ready {
		var sch bytes.Buffer
		if err := core.SaveScheme(x.scheme, &sch); err != nil {
			return fmt.Errorf("wave: snapshot: %w", err)
		}
		ww.Bytes(sch.Bytes())
	}
	return ww.Flush()
}

// Load rebuilds an index from SaveSnapshot's output. The restored index
// uses the saved configuration (including StorePath: a file-backed index
// is rebuilt into that file). Trace hooks are not serialised; use
// LoadWithTrace to re-attach one.
func Load(r io.Reader) (*Index, error) {
	return LoadWithTrace(r, nil)
}

// LoadWithTrace is Load with a tracer attached to the restored index; it
// also emits a "snapshot.load" span covering the rebuild.
func LoadWithTrace(r io.Reader, tr Tracer) (*Index, error) {
	start := time.Now()
	x, err := load(r, tr)
	if err != nil {
		return nil, err
	}
	x.obs.loadUS.Observe(time.Since(start).Microseconds())
	if tr != nil {
		tr.TraceEvent(TraceEvent{
			Kind: "snapshot.load", Start: start, Duration: time.Since(start),
			Day: x.nextDay - 1, Constituent: -1,
		})
	}
	return x, nil
}

func load(r io.Reader, tr Tracer) (*Index, error) {
	return loadWithExtras(r, tr, nil, nil)
}

// loadWithExtras is load with the unexported config hooks reattached:
// crash points and the extra observer are not serialised, so recovery
// passes them back in when rebuilding an index from a checkpoint.
func loadWithExtras(r io.Reader, tr Tracer, crash *core.CrashSet, extra core.Observer) (*Index, error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("wave: load: %w: %v", wire.ErrCorrupt, err)
	}
	v1 := string(magic) == snapshotMagicV1
	if !v1 && string(magic) != snapshotMagic {
		return nil, fmt.Errorf("wave: load: %w: magic %q, want %q", wire.ErrCorrupt, magic, snapshotMagic)
	}
	rr := wire.NewReader(r)
	cfg := Config{
		Window:       rr.Int(),
		Indexes:      rr.Int(),
		Scheme:       Scheme(rr.Int()),
		Update:       UpdateTechnique(rr.Int()),
		Directory:    Directory(rr.Int()),
		GrowthFactor: float64(rr.I64()) / 1000,
		BlockSize:    rr.Int(),
		CacheBlocks:  rr.Int(),
	}
	if !v1 {
		cfg.CacheResults = rr.Int()
	}
	cfg.StorePath = rr.String()
	cfg.FirstDay = rr.Int()
	nextDay := rr.Int()
	ready := rr.Bool()
	srcBlob := rr.Bytes()
	var schBlob []byte
	if ready {
		schBlob = rr.Bytes()
	}
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("wave: load: %w", err)
	}
	// A snapshot written by SaveSnapshot always carries a valid,
	// fully-defaulted configuration; re-validate so a truncated or
	// bit-flipped snapshot fails cleanly here instead of feeding
	// nonsense geometry (negative windows, absurd index counts, block
	// sizes) into the store and scheme constructors.
	cfg.Trace = tr
	cfg.crash = crash
	cfg.extraObserver = extra
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, fmt.Errorf("wave: load: %w", err)
	}
	if cfg.BlockSize < 0 || cfg.CacheBlocks < 0 || cfg.CacheResults < 0 {
		return nil, fmt.Errorf("wave: load: %w: negative block geometry", ErrBadConfig)
	}
	if nextDay < cfg.FirstDay {
		return nil, fmt.Errorf("wave: load: %w: next day %d before first day %d", ErrBadConfig, nextDay, cfg.FirstDay)
	}

	var store *simdisk.Store
	if cfg.StorePath != "" {
		store, err = simdisk.NewFile(cfg.StorePath, simdisk.Config{BlockSize: cfg.BlockSize})
		if err != nil {
			return nil, err
		}
	} else {
		store = simdisk.NewRAM(simdisk.Config{BlockSize: cfg.BlockSize})
	}
	// Rebuilding the store from the snapshot is recovery work in the work
	// ledger; the cause flips back to query once the index is live.
	store.SetCause(simdisk.CauseRecovery)
	src, err := core.LoadSource(bytes.NewReader(srcBlob))
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("wave: load: %w", err)
	}
	ob := newObservability(cfg, []*simdisk.Store{store})
	obsCore := combineObservers(ob.coreObserver(), cfg.extraObserver)
	var bs simdisk.BlockStore = store
	var bcaches []*simdisk.Cache
	if cfg.CacheBlocks > 0 {
		bc := simdisk.NewCache(store, cfg.CacheBlocks)
		bcaches = append(bcaches, bc)
		bs = bc
	}
	bk := core.NewDataBackend(bs, index.Options{
		Dir:    cfg.Directory,
		Growth: cfg.GrowthFactor,
	}, src, obsCore)

	ccfg := core.Config{
		W:         cfg.Window,
		N:         cfg.Indexes,
		Technique: cfg.Update,
		StartDay:  cfg.FirstDay,
		Observer:  obsCore,
		Crash:     cfg.crash,
	}
	x := &Index{cfg: cfg, stores: []*simdisk.Store{store}, bcaches: bcaches, src: src, obs: ob, nextDay: nextDay, ready: ready}
	x.Queries = Over(x)
	x.ing = newIngester(x.AddDay, x.pendingNextDay)
	if ready {
		scheme, err := core.LoadScheme(ccfg, bk, bytes.NewReader(schBlob))
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("wave: load: %w", err)
		}
		x.scheme = scheme
		x.winFrom, x.winTo = scheme.WindowStart(), scheme.LastDay()
	} else {
		scheme, err := core.NewScheme(cfg.Scheme, ccfg, bk)
		if err != nil {
			store.Close()
			return nil, err
		}
		x.scheme = scheme
	}
	if cfg.CacheResults > 0 {
		// A fresh cache: generations restart on load, and nothing cached
		// before the crash/checkpoint can ever be served again.
		x.scheme.Wave().SetResultCache(core.NewResultCache(cfg.CacheResults))
	}
	qm := ob.queryMetrics()
	x.scheme.Wave().SetInstrumentation(&qm, tr)
	ob.setCaches(x.cacheInfo)
	store.SetCause(simdisk.CauseQuery)
	return x, nil
}
