//go:build unix

package bdrmapit

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// stalledTraceFile is a traceroute "file" that delivers n traces and then
// neither more bytes nor end of file: a named pipe whose writer stays
// open. release ends the file.
func stalledTraceFile(t *testing.T, n int) (path string, delivered <-chan struct{}, release func()) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "stalled.jsonl")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("no named pipes here: %v", err)
	}
	// Read-write, so that neither this open nor the run's waits for the
	// other side.
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Join(corpusLines(t, n)[:n], ""))
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Returns once the reader has taken all but the last pipe-buffer's
		// worth; an error means the reader went away first.
		_, _ = w.Write(data)
	}()
	released := false
	release = func() {
		if !released {
			released = true
			w.Close()
			<-done
		}
	}
	t.Cleanup(release)
	return path, done, release
}

// settled waits for the goroutine count to come back down to base.
func settled(base int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestCancelMidFile: cancellation is seen while a trace file is being
// read, not only between files. The only trace file stalls after more
// than a chunk of traces; the run must end, cancelled, without the file
// ever ending, and leave no goroutine behind.
func TestCancelMidFile(t *testing.T) {
	p, _ := dataset(t)
	base := runtime.NumGoroutine()
	path, delivered, _ := stalledTraceFile(t, core.TraceBatch+1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, Sources{TraceroutePaths: []string{path}, BGPRIBPaths: []string{p.RIB}}, quiet(Options{}))
		errc <- err
	}()
	<-delivered
	select {
	case err := <-errc:
		t.Fatalf("run ended before it was cancelled: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want a context.Canceled wrap", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still going 10 s after cancellation, with its trace file stalled mid-read")
	}
	if !settled(base) {
		t.Errorf("%d goroutines after the cancelled run, %d before it", runtime.NumGoroutine(), base)
	}
}

// TestContextLoaderFailsMidFile: a context file that ends the run while
// the producer is in the middle of a trace file. The failure is reported
// once the trace files are done — one of them failing would come first
// in Sources order — and then names the context file, with the producer
// stopped.
func TestContextLoaderFailsMidFile(t *testing.T) {
	p, _ := dataset(t)
	base := runtime.NumGoroutine()
	path, delivered, release := stalledTraceFile(t, core.TraceBatch+1000)
	rec := obs.New()
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(context.Background(), Sources{
			TraceroutePaths: []string{path},
			BGPRIBPaths:     []string{p.RIB},
			AliasNodePaths:  []string{"/nonexistent/aliases.nodes"},
		}, quiet(Options{Strict: true, Recorder: rec}))
		errc <- err
	}()
	<-delivered
	for rec.Counter("load.rel.ases").Value() == 0 { // the loader before the one that fails
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-errc:
		t.Fatalf("run ended with its trace file still open: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	var se *SourceError
	if err := <-errc; !errors.As(err, &se) || se.Class != "alias" {
		t.Fatalf("err = %v, want the alias file's *SourceError", err)
	}
	if !settled(base) {
		t.Errorf("%d goroutines after the failed run, %d before it", runtime.NumGoroutine(), base)
	}
}
