package simdisk

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// fileBackend stores bytes in an operating-system file. It gives the
// examples a persistent store while keeping the same cost accounting as
// the RAM backend (the simulated cost model stays authoritative so results
// are reproducible regardless of the host's real disk).
type fileBackend struct {
	f *os.File
}

func (b *fileBackend) writeAt(off int64, p []byte) error {
	_, err := b.f.WriteAt(p, off)
	return err
}

func (b *fileBackend) readAt(off int64, p []byte) error {
	n, err := b.f.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if !errors.Is(err, io.EOF) {
		return fmt.Errorf("simdisk: read backing file: %w", err)
	}
	// Reads past the written end return zero bytes, matching the RAM
	// backend's behaviour for never-written regions.
	clear(p[n:])
	return nil
}

func (b *fileBackend) close() error { return b.f.Close() }

// NewFile returns a store backed by the file at path. The file is created
// if it does not exist and truncated if it does: the allocator state is not
// persisted, so a fresh store must start from empty contents.
func NewFile(path string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("simdisk: open backing file: %w", err)
	}
	return &Store{
		cfg:   cfg,
		alloc: newAllocator(cfg.CapacityBlocks),
		meter: newCostMeter(cfg.SeekTime, cfg.TransferRate),
		data:  &fileBackend{f: f},
	}, nil
}
