package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
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

// checkpointedResume is checkpointedRun carrying on the state in
// opts.Checkpoint.Dir.
func checkpointedResume(t *testing.T, workers int, opts Options) (*Result, error) {
	t.Helper()
	e := goldenEnv(t)
	g := buildGraph(t, e, workers)
	opts.Workers = workers
	return resumeRun(context.Background(), g, e.rels, opts)
}

// resumeRun is how a caller resumes: ckpt.Load of opts.Checkpoint.Dir,
// then ResumeContext.
func resumeRun(ctx context.Context, g *Graph, rels RelationshipOracle, opts Options) (*Result, error) {
	st, err := ckpt.Load(opts.Checkpoint.Dir)
	if err != nil {
		return nil, err
	}
	return ResumeContext(ctx, g, st, rels, opts)
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
			res, err := checkpointedResume(t, resumeWorkers, Options{
				Checkpoint: &ckpt.Config{Dir: dir},
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

	res, err := checkpointedResume(t, 4, Options{Checkpoint: &ckpt.Config{Dir: dir}})
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

// TestResumeBelowItsStateStopsAtTheCap: a resume is a replay, so one
// capped below the iteration its state holds stops at the cap like a
// fresh run — the annotations and Iterations of a run capped there — and
// writes nothing: the directory still holds the state it resumed, and the
// result offers no Checkpoint, since that state is not the graph's.
func TestResumeBelowItsStateStopsAtTheCap(t *testing.T) {
	dir := t.TempDir()
	full, err := checkpointedRun(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	for k := 1; k < full.Iterations; k++ {
		res, err := checkpointedResume(t, 1+k%4, Options{MaxIterations: k, Checkpoint: &ckpt.Config{Dir: dir}})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		capped := goldenEnv(t).run(Options{Workers: 1, MaxIterations: k})
		if res.Iterations != k || res.Converged || res.ResumedFrom != full.Iterations || res.Checkpoint != nil {
			t.Errorf("k=%d: Iterations=%d Converged=%v ResumedFrom=%d Checkpoint=%v, want %d/false/%d/nil", k, res.Iterations, res.Converged, res.ResumedFrom, res.Checkpoint != nil, k, full.Iterations)
		}
		if got, want := dumpAnnotations(res), dumpAnnotations(capped); got != want {
			t.Errorf("k=%d: annotations differ from a fresh run capped there\n--- got ---\n%s--- want ---\n%s", k, got, want)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("k=%d: the resume wrote to its checkpoint directory", k)
		}
	}
}

// dirImage reads every file in dir.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
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
		_, err := checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: t.TempDir()}})
		if !errors.Is(err, ckpt.ErrNoCheckpoint) {
			t.Fatalf("err = %v, want ErrNoCheckpoint", err)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		dir := seed(t)
		if err := os.WriteFile(filepath.Join(dir, ckpt.FileName), []byte("scrambled"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
		var fe *ckpt.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("err = %v, want *ckpt.FormatError", err)
		}
	})
	t.Run("options-mismatch", func(t *testing.T) {
		dir := seed(t)
		_, err := checkpointedResume(t, 1, Options{
			DisableThirdParty: true,
			Checkpoint:        &ckpt.Config{Dir: dir},
		})
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || me.Field != "options" {
			t.Fatalf("err = %v, want *MismatchError{Field: options}", err)
		}
	})
	t.Run("input-mismatch", func(t *testing.T) {
		dir := seed(t)
		_, err := checkpointedResume(t, 1, Options{
			Checkpoint: &ckpt.Config{Dir: dir, InputDigest: 0xbad},
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
		_, err := resumeRun(context.Background(), g, e.rels, Options{
			Workers:    1,
			Checkpoint: &ckpt.Config{Dir: dir},
		})
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || me.Field != "graph" {
			t.Fatalf("err = %v, want *MismatchError{Field: graph}", err)
		}
	})
	// A resume replays History, so a state without all of it has nothing
	// to resume with.
	t.Run("incomplete-history", func(t *testing.T) {
		dir := seed(t)
		st, err := ckpt.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.History = st.History[:1]
		if err := ckpt.Save(dir, st, nil); err != nil {
			t.Fatal(err)
		}
		_, err = checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
		var he *ckpt.HistoryError
		if !errors.As(err, &he) {
			t.Fatalf("err = %v, want *ckpt.HistoryError", err)
		}
	})
	t.Run("history-past-the-state", func(t *testing.T) {
		dir := seed(t)
		st, err := ckpt.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.History[0].Routers = append(st.History[0].Routers, ckpt.AnnChange{Idx: uint32(len(st.Routers)), Ann: 1})
		if err := ckpt.Save(dir, st, nil); err != nil {
			t.Fatal(err)
		}
		_, err = checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
		var fe *ckpt.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("err = %v, want *ckpt.FormatError", err)
		}
	})
	// A version-2 snapshot carries no history; it is refused at the frame.
	t.Run("version-2", func(t *testing.T) {
		dir := seed(t)
		path := filepath.Join(dir, ckpt.FileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v2 bytes.Buffer
		if err := ckpt.WriteFrame(&v2, string(data[:8]), 2, data[13:len(data)-4]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
		var fe *ckpt.FormatError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("err = %v, want the *ckpt.FormatError of a version-2 snapshot", err)
		}
	})
	t.Run("worker-count-is-not-a-mismatch", func(t *testing.T) {
		dir := seed(t)
		if _, err := checkpointedResume(t, 4, Options{Checkpoint: &ckpt.Config{Dir: dir}}); err != nil {
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
	resumed, err := checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpAnnotations(resumed); got != want {
		t.Errorf("resume after cancellation diverges from full run\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
