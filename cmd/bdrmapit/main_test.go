package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/simnet"
)

// TestMain lets the test binary impersonate the real CLI: when
// BDRMAPIT_TEST_BE_BINARY is set the process runs main() instead of the
// tests, so the crash harness can SIGKILL a genuine bdrmapit process at
// seeded points without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("BDRMAPIT_TEST_BE_BINARY") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliResult captures one subprocess invocation of the CLI.
type cliResult struct {
	stdout, stderr bytes.Buffer
	err            error
}

// runCLI re-executes the test binary as the bdrmapit CLI. crashAt, when
// non-empty, arms the SIGKILL seam at that checkpoint hook point.
func runCLI(t *testing.T, crashAt string, args ...string) *cliResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BDRMAPIT_TEST_BE_BINARY=1")
	if crashAt != "" {
		cmd.Env = append(cmd.Env, "BDRMAPIT_CRASH_AT="+crashAt)
	}
	res := &cliResult{}
	cmd.Stdout = &res.stdout
	cmd.Stderr = &res.stderr
	res.err = cmd.Run()
	return res
}

// wasKilled reports whether the subprocess died from SIGKILL — the
// crash seam firing — as opposed to exiting with an error of its own.
func wasKilled(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// crashDataset writes the quickstart topology once per test run and
// returns the common CLI source arguments.
func crashDataset(t *testing.T) []string {
	t.Helper()
	n, err := simnet.Generate(simnet.Options{Small: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.WriteDataset(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		"-traces", p.Traceroutes,
		"-rib", p.RIB,
		"-rir", p.Delegations,
		"-ixp", p.IXPPrefixes,
		"-rels", p.Relationships,
		"-aliases", p.Aliases,
		"-quiet-report",
	}
}

// assertIntactOutputs fails if dir holds a torn final output: every
// non-hidden file named in want must either be absent (the crash hit
// before its atomic rename) or byte-identical to the expected content.
// Dot-prefixed files are in-flight temporaries and are allowed.
func assertIntactOutputs(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		expect, known := want[e.Name()]
		if !known {
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, expect) {
			t.Errorf("%s present after crash but torn (%d bytes, want %d)",
				e.Name(), len(got), len(expect))
		}
	}
}

// TestCrashResume is the end-to-end durability matrix: SIGKILL the real
// CLI at seeded points (the run's two checkpoints and the instant
// before an output file's atomic rename), resume from the snapshot —
// at each worker count — and require the final annotations to be
// byte-identical to an uninterrupted run, with no torn file visible at
// any point.
func TestCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix is not a -short test")
	}
	srcArgs := crashDataset(t)

	// Uninterrupted baseline at one worker; determinism across worker
	// counts is proven separately, so one baseline serves the matrix.
	// The baseline also collects provenance: the artifact carries the
	// same byte-identity guarantee as the annotations, so crash+resume
	// must reproduce it exactly too.
	baseDir := t.TempDir()
	baseAnn := filepath.Join(baseDir, "annotations.txt")
	baseProvOut := filepath.Join(baseDir, "run.prov")
	baseCkpt := filepath.Join(baseDir, "ckpt")
	if res := runCLI(t, "", append(srcArgs,
		"-workers", "1", "-annotations", baseAnn, "-provenance", baseProvOut, "-checkpoint-dir", baseCkpt)...); res.err != nil {
		t.Fatalf("baseline run failed: %v\nstderr: %s", res.err, res.stderr.String())
	}
	final, err := ckpt.Load(baseCkpt)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := os.ReadFile(baseAnn)
	if err != nil {
		t.Fatal(err)
	}
	baseProv, err := os.ReadFile(baseProvOut)
	if err != nil {
		t.Fatal(err)
	}

	workerSet := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerSet = append(workerSet, n)
	}
	crashPoints := []string{
		// The iteration-0 snapshot is published. Nothing is written until
		// the final one, so this stands for every kill inside refinement.
		"checkpoint:0",
		fmt.Sprintf("checkpoint:%d", final.Iteration), // final snapshot published, outputs not yet
		"pre-rename:annotations.txt",                  // inference done, output publish in flight
		"pre-rename:itdk.nodes",                       // ITDK publish in flight
		"pre-rename:run.prov",                         // provenance artifact publish in flight
	}

	for _, workers := range workerSet {
		workers := workers
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			for _, point := range crashPoints {
				point := point
				t.Run(point, func(t *testing.T) {
					outDir := t.TempDir()
					ckDir := filepath.Join(outDir, "ckpt")
					annOut := filepath.Join(outDir, "annotations.txt")
					provOut := filepath.Join(outDir, "run.prov")
					runArgs := append(srcArgs,
						"-workers", strconv.Itoa(workers),
						"-checkpoint-dir", ckDir,
						"-annotations", annOut,
						"-itdk", outDir,
						"-provenance", provOut,
					)

					crash := runCLI(t, point, runArgs...)
					if !wasKilled(crash.err) {
						t.Fatalf("crash run at %q did not die from SIGKILL: err=%v\nstderr: %s",
							point, crash.err, crash.stderr.String())
					}
					assertIntactOutputs(t, outDir, map[string][]byte{
						"annotations.txt": baseline,
						"run.prov":        baseProv,
					})

					// Resume at a different worker count than the kill:
					// snapshots (including the embedded provenance
					// records) are worker-invariant.
					resumeWorkers := 1 + workers%4
					resumed := runCLI(t, "", append(srcArgs,
						"-workers", strconv.Itoa(resumeWorkers),
						"-checkpoint-dir", ckDir,
						"-resume",
						"-annotations", annOut,
						"-itdk", outDir,
						"-provenance", provOut,
					)...)
					if resumed.err != nil {
						t.Fatalf("resume after %q failed: %v\nstderr: %s",
							point, resumed.err, resumed.stderr.String())
					}
					if !strings.Contains(resumed.stderr.String(), "resumed from checkpoint at iteration") {
						t.Errorf("resume run did not report its resume point\nstderr: %s", resumed.stderr.String())
					}
					got, err := os.ReadFile(annOut)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, baseline) {
						t.Errorf("resumed annotations differ from uninterrupted baseline after crash at %q", point)
					}
					gotProv, err := os.ReadFile(provOut)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotProv, baseProv) {
						t.Errorf("resumed provenance artifact differs from uninterrupted baseline after crash at %q", point)
					}
				})
			}
		})
	}
}

// TestSecondSignalForcesExit proves the two-stage interrupt contract:
// the first SIGINT cancels gracefully, and a second one — whenever it
// lands, including mid-drain — always force-exits with the distinct
// status 130, so ^C^C is deterministic rather than a race against
// signal-disposition restoration.
func TestSecondSignalForcesExit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess signal test is not a -short test")
	}
	srcArgs := crashDataset(t)
	outDir := t.TempDir()
	cmd := exec.Command(os.Args[0], append(srcArgs,
		"-workers", "1",
		"-checkpoint-dir", filepath.Join(outDir, "ckpt"),
		"-annotations", filepath.Join(outDir, "annotations.txt"),
	)...)
	// The stall seam parks the run at its iteration-0 checkpoint —
	// a full Small inference finishes in well under a second, so
	// without a deterministic hold the signals would race run
	// completion.
	cmd.Env = append(os.Environ(),
		"BDRMAPIT_TEST_BE_BINARY=1",
		"BDRMAPIT_STALL_AT=checkpoint:0",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Stage the signals off the CLI's own stderr announcements: first
	// SIGINT once the run is provably stalled at refinement's start, second
	// SIGINT once the graceful cancellation is provably in progress.
	sawCancel := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "test stall at") {
				if err := cmd.Process.Signal(os.Interrupt); err != nil {
					t.Errorf("first signal: %v", err)
				}
			}
			if strings.Contains(line, "signal again to force exit") {
				sawCancel = true
				if err := cmd.Process.Signal(os.Interrupt); err != nil {
					t.Errorf("second signal: %v", err)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("CLI never reached the stall point")
	}
	if !sawCancel {
		t.Fatal("CLI exited without printing the graceful-cancel message")
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("process did not exit with an error status: %v", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Errorf("forced exit status = %d, want 130", code)
	}
}

// TestCrashResumeBeforeFirstSnapshot covers the one crash window where
// nothing can be restored: SIGKILL during the rename of the run's
// iteration-0 snapshot leaves no refine.ckpt, so -resume must refuse
// with a clear message and a fresh (non-resume) run must still succeed.
func TestCrashResumeBeforeFirstSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix is not a -short test")
	}
	srcArgs := crashDataset(t)
	outDir := t.TempDir()
	ckDir := filepath.Join(outDir, "ckpt")
	annOut := filepath.Join(outDir, "annotations.txt")
	runArgs := append(srcArgs,
		"-workers", "1",
		"-checkpoint-dir", ckDir,
		"-annotations", annOut,
	)

	crash := runCLI(t, "pre-rename:refine.ckpt", runArgs...)
	if !wasKilled(crash.err) {
		t.Fatalf("crash run did not die from SIGKILL: err=%v\nstderr: %s",
			crash.err, crash.stderr.String())
	}
	if _, err := os.Stat(filepath.Join(ckDir, "refine.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("refine.ckpt exists after pre-rename kill (stat err=%v)", err)
	}

	refused := runCLI(t, "", append(runArgs, "-resume")...)
	var ee *exec.ExitError
	if !errors.As(refused.err, &ee) {
		t.Fatalf("resume with no snapshot should exit nonzero, got err=%v", refused.err)
	}
	if !strings.Contains(refused.stderr.String(), "no checkpoint") {
		t.Errorf("refusal message does not mention the missing checkpoint\nstderr: %s", refused.stderr.String())
	}

	fresh := runCLI(t, "", runArgs...)
	if fresh.err != nil {
		t.Fatalf("fresh run after refusal failed: %v\nstderr: %s", fresh.err, fresh.stderr.String())
	}
	if _, err := os.Stat(annOut); err != nil {
		t.Fatalf("fresh run wrote no annotations: %v", err)
	}
}
