package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
)

// The directories under testdata/xversion were written over
// xversionGraph's campaign by builds that kept a refinement log
// (refine.log) beside refine.ckpt. "converged" and "cancelled" come from
// the build before checkpoint format version 4 — refine.ckpt in version 3
// (cycle hashes, provenance flag and blob), log records in version 1 —
// by a run to convergence and by a run cancelled after iteration 2, which
// left the iteration-0 base and two log records. "cancelled-v2" is the
// cancelled run as the last build with the log wrote it (commit 32d8af2,
// -write-xversion): a version-4 base and two version-2 records, which
// that build folded to iteration 2. -write-xversion writes the two
// directories with the build under test.
var writeXVersion = flag.String("write-xversion", "", "write the cross-version checkpoint directories under this directory and stop")

const xversionDigest = 0x5eed

// xversionGraph is the seeded campaign the directories were written from.
func xversionGraph(t *testing.T, workers int) (*Graph, RelationshipOracle) {
	t.Helper()
	e, traces := campaign(t, 3, 8)
	b := NewBuilder(e.resolver, e.aliases)
	b.Workers = workers
	b.AddTraces(traces)
	return b.Finish(e.rels), e.rels
}

func xversionRun(t *testing.T, workers int, opts Options) (*Result, error) {
	t.Helper()
	g, rels := xversionGraph(t, workers)
	opts.Workers = workers
	return RunContext(context.Background(), g, rels, opts)
}

func xversionResume(t *testing.T, workers int, opts Options) (*Result, error) {
	t.Helper()
	g, rels := xversionGraph(t, workers)
	opts.Workers = workers
	return resumeRun(context.Background(), g, rels, opts)
}

func writeXVersionDirs(t *testing.T, root string) {
	for _, name := range []string{"converged", "cancelled"} {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		opts := Options{Checkpoint: &ckpt.Config{Dir: dir, InputDigest: xversionDigest}}
		ctx, cancel := context.WithCancel(context.Background())
		if name == "cancelled" {
			opts.hookIterEnd = func(iter int) {
				if iter == 2 {
					cancel()
				}
			}
		}
		g, rels := xversionGraph(t, 1)
		opts.Workers = 1
		res, err := RunContext(ctx, g, rels, opts)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d iterations, converged %v, interrupted %v", name, res.Iterations, res.Converged, res.Interrupted)
	}
}

// TestCrossVersionCheckpoints: every directory an earlier build left
// behind still resumes, to the bytes of an uninterrupted run. Its
// refine.log is never read — a cancelled run's directory resumes from
// its base, iteration 0, to this build's refine.ckpt of the uninterrupted
// run — and never removed. A version-2 snapshot is refused at the frame.
func TestCrossVersionCheckpoints(t *testing.T) {
	if *writeXVersion != "" {
		writeXVersionDirs(t, *writeXVersion)
		return
	}
	for _, workers := range []int{1, 4} {
		full, err := xversionRun(t, workers, Options{Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		want, wantProv := dumpAnnotations(full), encodeArtifact(t, full.Provenance)
		if full.Iterations <= 2 || !full.Converged {
			t.Fatalf("the fixture stops at iteration %d (converged %v); the cancelled directories need a run past iteration 2", full.Iterations, full.Converged)
		}
		// This build's directory of the uninterrupted run.
		mine := t.TempDir()
		if _, err := xversionRun(t, workers, Options{Checkpoint: &ckpt.Config{Dir: mine, InputDigest: xversionDigest}}); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			iter int
		}{{"converged", full.Iterations}, {"cancelled", 0}, {"cancelled-v2", 0}} {
			dir, fixture := t.TempDir(), filepath.Join("testdata", "xversion", tc.name)
			copyDir(t, fixture, dir)
			st, err := ckpt.Load(dir)
			if err != nil || st.Iteration != tc.iter {
				t.Fatalf("workers=%d %s: loads at iteration %d, err %v; want %d", workers, tc.name, st.Iteration, err, tc.iter)
			}
			res, err := xversionResume(t, workers, Options{Provenance: true, Checkpoint: &ckpt.Config{Dir: dir, InputDigest: xversionDigest}})
			if err != nil {
				t.Fatalf("workers=%d %s: resume: %v", workers, tc.name, err)
			}
			if res.ResumedFrom != tc.iter || dumpAnnotations(res) != want {
				t.Errorf("workers=%d %s: resume from iteration %d ends in different annotations", workers, tc.name, res.ResumedFrom)
			}
			if !bytes.Equal(encodeArtifact(t, res.Provenance), wantProv) {
				t.Errorf("workers=%d %s: resume's provenance differs from the uninterrupted run's", workers, tc.name)
			}
			if tc.iter == 0 && !bytes.Equal(readCkpt(t, dir), readCkpt(t, mine)) {
				t.Errorf("workers=%d %s: the resumed refine.ckpt is not an uninterrupted run's", workers, tc.name)
			}
			log, err := os.ReadFile(filepath.Join(fixture, "refine.log"))
			if err != nil {
				t.Fatal(err)
			}
			if kept, err := os.ReadFile(filepath.Join(dir, "refine.log")); err != nil || !bytes.Equal(kept, log) {
				t.Errorf("workers=%d %s: the resume changed or removed the leftover refine.log (%v)", workers, tc.name, err)
			}
		}

		// This build's directory of the same run loads to the same state.
		got, err := ckpt.Load(mine)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := ckpt.Load(filepath.Join("testdata", "xversion", "converged"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, parent) {
			t.Errorf("workers=%d: the converged directories of the two builds load to different states", workers)
		}
	}

	// The version-2 layout is refused at the frame, whatever follows.
	data, err := os.ReadFile(filepath.Join("testdata", "xversion", "converged", ckpt.FileName))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := ckpt.WriteFrame(&v2, string(data[:8]), 2, data[13:len(data)-4]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckpt.FileName), v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = xversionResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: dir, InputDigest: xversionDigest}})
	var fe *ckpt.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("resume from a version-2 snapshot = %v, want a *ckpt.FormatError", err)
	}
}
