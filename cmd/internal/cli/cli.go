// Package cli is the plumbing the bdrmapit and bdrmapit-ingest commands
// share: output-directory probing, the crash-injection seam, signal and
// timeout cancellation, and the -report-json writer.
package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ckpt"
)

// ForcedExitStatus is the exit code of a second-signal force exit:
// 128+SIGINT, the conventional "killed by ^C" status, distinct from
// both success and log.Fatal's 1 so a supervisor can tell a forced
// kill from a graceful drain or an ordinary failure.
const ForcedExitStatus = 130

// EnsureWritableDir creates dir (and parents) if needed and proves it
// is writable by creating and removing a probe file, so path problems
// fail the command immediately with a clear message instead of as a
// bare os.PathError after hours of work.
func EnsureWritableDir(dir string) error {
	if dir == "" || dir == "." {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("output directory %s cannot be created: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return fmt.Errorf("output directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	if err := probe.Close(); err != nil {
		_ = os.Remove(name)
		return fmt.Errorf("output directory %s is not writable: %w", dir, err)
	}
	return os.Remove(name)
}

// CrashAtEnv installs the crash-injection seam for the durability
// tests: when the checkpoint point named by BDRMAPIT_CRASH_AT is
// reached, the process SIGKILLs itself — the hardest crash there is, no
// deferred cleanup, no signal handler.
func CrashAtEnv() {
	if point := os.Getenv("BDRMAPIT_CRASH_AT"); point != "" {
		ckpt.TestHook = func(p string) {
			if p == point {
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable; SIGKILL cannot be handled
			}
		}
	}
}

// SignalContext returns the command's context: the first SIGINT or
// SIGTERM cancels it gracefully, announced on stderr as
// "<prog>: <signal>: cancelling <what>", and so does timeout when
// positive; a second signal force-exits with ForcedExitStatus. An
// explicit handler rather than signal.NotifyContext + re-raise:
// restoring default delivery after the first signal leaves a window
// where a second signal arriving mid-rollback (or during the checkpoint
// drain) is swallowed, so whether ^C^C actually killed the process was
// a race. Here the second signal always takes the os.Exit path, and the
// exit status tells a supervisor the process was forced, not gracefully
// drained.
func SignalContext(prog, what string, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "%s: %v: cancelling %s (signal again to force exit)\n", prog, s, what)
		cancel()
		s = <-sigc
		fmt.Fprintf(os.Stderr, "%s: %v: forced exit\n", prog, s)
		os.Exit(ForcedExitStatus)
	}()
	if timeout <= 0 {
		return ctx, cancel
	}
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { tcancel(); cancel() }
}

// WriteReportJSON writes report as indented JSON to path: stdout for
// "-", otherwise an atomically published file.
func WriteReportJSON(path string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return ckpt.AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
