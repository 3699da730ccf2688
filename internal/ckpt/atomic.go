package ckpt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// AtomicWrite publishes fill's output at path with crash-safe
// semantics: the bytes are written to a hidden temp file in the same
// directory, flushed and fsynced, then renamed over path, and the
// parent directory is synced so the rename itself is durable. A reader
// (or a post-crash inspection) therefore sees either the complete old
// file or the complete new one — never a prefix, and never a file that
// the rename published but a power loss could un-publish.
//
// TestWriteWrap, when non-nil, wraps the raw file handle every durable
// write path (AtomicWrite temp files, journal appends) streams into.
// The fault-injection tests install writers that fail with ENOSPC or
// cut a write short to prove no failure mode leaves a torn published
// file; production runs never set it.
var TestWriteWrap func(w io.Writer) io.Writer

// Every output the pipeline writes — checkpoints, annotations, links,
// ITDK files, JSON reports — goes through this helper, so "no torn
// output file is ever observed after a kill" is a single invariant in a
// single function rather than a property each writer re-implements.
func AtomicWrite(path string, fill func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp-")
	if err != nil {
		return fmt.Errorf("creating temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	var fw io.Writer = f
	if TestWriteWrap != nil {
		fw = TestWriteWrap(fw)
	}
	bw := bufio.NewWriter(fw)
	if err := fill(bw); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err // the fill error is the one worth reporting
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("closing %s: %w", path, err)
	}
	if TestHook != nil {
		TestHook("pre-rename:" + base)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("publishing %s: %w", path, err)
	}
	return syncDir(dir)
}

// Concurrently runs independent publishes side by side and returns their
// errors in argument order. An AtomicWrite spends most of its time
// waiting — two fsyncs and a rename — so a run's outputs, which share
// nothing but the read-only result they render, cost about as much
// together as the slowest does alone. Each keeps its own protocol: a
// kill at any instant still leaves every file absent or complete.
func Concurrently(writes ...func() error) []error {
	errs := make([]error, len(writes))
	var wg sync.WaitGroup
	for i, write := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = write()
		}()
	}
	wg.Wait()
	return errs
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Filesystems that refuse fsync on directories are tolerated:
// rename atomicity still holds there, only rename durability is
// weakened, and failing the whole run for that would be worse.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening directory %s for sync: %w", dir, err)
	}
	_ = d.Sync()
	return d.Close()
}
