package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// checkpointedRun executes phases 2–3 over a fresh goldenEnv graph with
// the given checkpoint config.
func checkpointedRun(t *testing.T, workers int, opts Options) (*Result, error) {
	t.Helper()
	e := goldenEnv(t)
	g := buildGraph(t, e, workers)
	opts.Workers = workers
	return RunContext(context.Background(), g, e.rels, opts)
}

// TestResumeAtEveryIterationMatchesFullRun is the core durability
// guarantee: kill the loop after any committed iteration k, resume from
// the snapshot — at the same or a different worker count — and the
// final annotations, iteration count, and convergence metadata are
// identical to a run that was never interrupted.
func TestResumeAtEveryIterationMatchesFullRun(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1})
	if !full.Converged {
		t.Fatal("golden scenario no longer converges; fix the fixture first")
	}
	want := dumpAnnotations(full)
	total := full.Iterations

	for _, workers := range []int{1, 4} {
		// Resume at a different worker count than the interrupted run:
		// worker-count invariance is what makes that legal.
		resumeWorkers := 5 - workers
		for k := 1; k < total; k++ {
			dir := t.TempDir()
			capped, err := checkpointedRun(t, workers, Options{
				MaxIterations: k,
				Checkpoint:    &ckpt.Config{Dir: dir},
			})
			if err != nil {
				t.Fatalf("workers=%d k=%d: capped run: %v", workers, k, err)
			}
			if capped.Iterations != k {
				t.Fatalf("workers=%d k=%d: capped run stopped at %d", workers, k, capped.Iterations)
			}
			res, err := checkpointedRun(t, resumeWorkers, Options{
				Checkpoint: &ckpt.Config{Dir: dir, Resume: true},
			})
			if err != nil {
				t.Fatalf("workers=%d k=%d: resume: %v", workers, k, err)
			}
			if res.ResumedFrom != k {
				t.Errorf("workers=%d k=%d: ResumedFrom=%d", workers, k, res.ResumedFrom)
			}
			if res.Iterations != total || !res.Converged || res.CycleLength != full.CycleLength {
				t.Errorf("workers=%d k=%d: resumed loop metadata (iter=%d conv=%v cycle=%d) differs from full run (iter=%d conv=%v cycle=%d)",
					workers, k, res.Iterations, res.Converged, res.CycleLength,
					total, full.Converged, full.CycleLength)
			}
			if got := dumpAnnotations(res); got != want {
				t.Errorf("workers=%d k=%d: resumed annotations diverge from uninterrupted run\n--- got ---\n%s--- want ---\n%s",
					workers, k, got, want)
			}
		}
	}
}

// TestResumeStitchesConvergenceTrace proves a resumed run's report is
// indistinguishable from an uninterrupted one: the replayed pre-resume
// rows and the live post-resume rows form one continuous trace, and the
// cumulative refine.* counters match a full run's.
func TestResumeStitchesConvergenceTrace(t *testing.T) {
	fullRec := obs.New()
	full := goldenEnv(t).run(Options{Workers: 1, Recorder: fullRec})
	fullRep := full.Report

	dir := t.TempDir()
	// The interrupted leg runs with NO recorder: the trace must travel
	// inside the snapshot, not depend on telemetry being attached.
	if _, err := checkpointedRun(t, 1, Options{
		MaxIterations: 2,
		Checkpoint:    &ckpt.Config{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	res, err := checkpointedRun(t, 1, Options{
		Recorder:   rec,
		Checkpoint: &ckpt.Config{Dir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.ResumedFrom != 2 {
		t.Errorf("Report.ResumedFrom = %d, want 2", rep.ResumedFrom)
	}

	wantTrace := fullRep.Series["refine.iterations"]
	gotTrace := rep.Series["refine.iterations"]
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("stitched trace has %d rows, full run has %d", len(gotTrace), len(wantTrace))
	}
	for i, wr := range wantTrace {
		for k, v := range wr {
			if gotTrace[i][k] != v {
				t.Errorf("trace row %d key %q = %d, want %d", i, k, gotTrace[i][k], v)
			}
		}
	}
	for _, counter := range []string{
		"refine.routers_changed", "refine.interfaces_changed", "refine.votes_cast",
		"refine.heur.origin_match", "refine.heur.ixp", "refine.heur.unannounced",
		"refine.heur.third_party", "refine.heur.reallocated", "refine.heur.exception",
		"refine.heur.hidden_as", "refine.heur.dest_tiebreak",
	} {
		if got, want := rep.Counters[counter], fullRep.Counters[counter]; got != want {
			t.Errorf("%s = %d after resume, want %d (full run)", counter, got, want)
		}
	}
	if rep.Counters["ckpt.writes"] == 0 {
		t.Error("resumed checkpointed run recorded no ckpt.writes")
	}
	if h, ok := rep.Histograms["ckpt.write_ns"]; !ok || h.Count == 0 {
		t.Error("resumed checkpointed run recorded no ckpt.write_ns timings")
	}
}

// TestResumeConvergedCheckpointShortCircuits: a snapshot that already
// records convergence must not re-enter the loop — the §6.3 stopping
// state was reached, and walking past it would diverge from the
// original run.
func TestResumeConvergedCheckpointShortCircuits(t *testing.T) {
	dir := t.TempDir()
	full, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatal("golden scenario no longer converges")
	}
	want := dumpAnnotations(full)

	res, err := checkpointedRun(t, 4, Options{Checkpoint: &ckpt.Config{Dir: dir, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != full.Iterations || res.Iterations != full.Iterations || !res.Converged {
		t.Errorf("converged resume: ResumedFrom=%d Iterations=%d Converged=%v, want %d/%d/true",
			res.ResumedFrom, res.Iterations, res.Converged, full.Iterations, full.Iterations)
	}
	if got := dumpAnnotations(res); got != want {
		t.Errorf("converged resume changed annotations\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCheckpointEveryStride: with Every=2 only the starting state, even
// iterations and the final one hit the disk, and the newest state is
// loadable.
func TestCheckpointEveryStride(t *testing.T) {
	dir := t.TempDir()
	var points []string
	ckpt.TestHook = func(p string) {
		if strings.HasPrefix(p, "checkpoint:") {
			points = append(points, p)
		}
	}
	defer func() { ckpt.TestHook = nil }()
	res, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir, Every: 2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iteration != res.Iterations || !st.Converged {
		t.Errorf("final snapshot iter=%d converged=%v, want %d/true", st.Iteration, st.Converged, res.Iterations)
	}
	for _, p := range points {
		iter := strings.TrimPrefix(p, "checkpoint:")
		if iter != "0" && iter != "2" && iter != "4" && p != "checkpoint:"+itoa(res.Iterations) {
			t.Errorf("unexpected checkpoint point %s with Every=2 (converged at %d)", p, res.Iterations)
		}
	}
	if len(points) == 0 {
		t.Error("no checkpoints written")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestResumeRefusals covers every refusal class: no checkpoint,
// corrupted checkpoint, and each fingerprint mismatch.
func TestResumeRefusals(t *testing.T) {
	// Seed a valid checkpoint to mutate against.
	seed := func(t *testing.T) string {
		dir := t.TempDir()
		if _, err := checkpointedRun(t, 1, Options{
			MaxIterations: 2,
			Checkpoint:    &ckpt.Config{Dir: dir},
		}); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("no-checkpoint", func(t *testing.T) {
		_, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: t.TempDir(), Resume: true}})
		if !errors.Is(err, ckpt.ErrNoCheckpoint) {
			t.Fatalf("err = %v, want ErrNoCheckpoint", err)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		dir := seed(t)
		if err := os.WriteFile(filepath.Join(dir, ckpt.FileName), []byte("scrambled"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir, Resume: true}})
		var fe *ckpt.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("err = %v, want *ckpt.FormatError", err)
		}
	})
	t.Run("options-mismatch", func(t *testing.T) {
		dir := seed(t)
		_, err := checkpointedRun(t, 1, Options{
			DisableThirdParty: true,
			Checkpoint:        &ckpt.Config{Dir: dir, Resume: true},
		})
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || me.Field != "options" {
			t.Fatalf("err = %v, want *MismatchError{Field: options}", err)
		}
	})
	t.Run("input-mismatch", func(t *testing.T) {
		dir := seed(t)
		_, err := checkpointedRun(t, 1, Options{
			Checkpoint: &ckpt.Config{Dir: dir, Resume: true, InputDigest: 0xbad},
		})
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || me.Field != "inputs" {
			t.Fatalf("err = %v, want *MismatchError{Field: inputs}", err)
		}
	})
	t.Run("graph-mismatch", func(t *testing.T) {
		dir := seed(t)
		e := goldenEnv(t)
		e.trace("2.0.0.93", "1.0.0.1", "1.0.0.9", "2.0.0.3", "2.0.0.93/e")
		g := buildGraph(t, e, 1)
		_, err := RunContext(context.Background(), g, e.rels, Options{
			Workers:    1,
			Checkpoint: &ckpt.Config{Dir: dir, Resume: true},
		})
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || me.Field != "graph" {
			t.Fatalf("err = %v, want *MismatchError{Field: graph}", err)
		}
	})
	t.Run("worker-count-is-not-a-mismatch", func(t *testing.T) {
		dir := seed(t)
		if _, err := checkpointedRun(t, 4, Options{Checkpoint: &ckpt.Config{Dir: dir, Resume: true}}); err != nil {
			t.Fatalf("resume at a different worker count refused: %v", err)
		}
	})
}

// TestCheckpointUnwritableDirFailsTheRun: a snapshot that cannot be
// written is a hard error, not a silent loss of durability.
func TestCheckpointUnwritableDirFailsTheRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	_, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
	if err == nil {
		t.Fatal("run with an unwritable checkpoint dir succeeded")
	}
}

// TestRunPanicsOnCheckpointError: the error-less Run entry point cannot
// surface durability failures, so it must refuse loudly rather than
// return a result whose checkpoints silently never happened.
func TestRunPanicsOnCheckpointError(t *testing.T) {
	e := goldenEnv(t)
	g := buildGraph(t, e, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run with a failing checkpoint config did not panic")
		}
		if !strings.Contains(r.(string), "RunContext") {
			t.Errorf("panic %q does not direct callers to RunContext", r)
		}
	}()
	Run(g, e.rels, Options{Checkpoint: &ckpt.Config{
		Dir: filepath.Join(t.TempDir(), "missing", "dir"),
	}})
}

// TestCancelledCheckpointedRunKeepsLastSnapshot: cancellation mid-loop
// leaves the newest committed snapshot on disk, and resuming it later
// still reaches the full run's result.
func TestCancelledCheckpointedRunKeepsLastSnapshot(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1})
	want := dumpAnnotations(full)

	dir := t.TempDir()
	e := goldenEnv(t)
	g := buildGraph(t, e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Workers: 1, Checkpoint: &ckpt.Config{Dir: dir}}
	opts.hookIterEnd = func(iter int) {
		if iter == 2 {
			cancel()
		}
	}
	res, err := RunContext(ctx, g, e.rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Iterations != 2 {
		t.Fatalf("Interrupted=%v Iterations=%d, want true/2", res.Interrupted, res.Iterations)
	}
	st, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iteration != 2 {
		t.Fatalf("snapshot iteration = %d, want 2 (last committed)", st.Iteration)
	}
	resumed, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpAnnotations(resumed); got != want {
		t.Errorf("resume after cancellation diverges from full run\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
