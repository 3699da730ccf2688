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

// The directories under testdata/xversion were written by the build
// before checkpoint format version 4 — refine.ckpt in version 3 (cycle
// hashes, provenance flag and blob), refine.log records in version 1 —
// over xversionGraph's campaign: "converged" by a run to convergence,
// "cancelled" by a run cancelled after iteration 2, which leaves the
// iteration-0 base and two log records. -write-xversion rewrites them
// with the build under test.
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

// TestCrossVersionCheckpoints: every directory the build before format
// version 4 left behind still resumes, to the bytes of an uninterrupted
// run; its log records are not folded, so a cancelled run's directory
// resumes from its base; and a version-2 snapshot is refused at the frame.
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
			t.Fatalf("the fixture stops at iteration %d (converged %v); the cancelled directory needs a run past iteration 2", full.Iterations, full.Converged)
		}
		for _, tc := range []struct {
			name          string
			iter, fromLog int
		}{{"converged", full.Iterations, 0}, {"cancelled", 0, 0}} {
			dir := t.TempDir()
			copyDir(t, filepath.Join("testdata", "xversion", tc.name), dir)
			st, err := ckpt.Load(dir)
			if err != nil || st.Iteration != tc.iter || st.FromLog != tc.fromLog {
				t.Fatalf("workers=%d %s: loads at iteration %d (%d from the log), err %v; want %d (%d)",
					workers, tc.name, st.Iteration, st.FromLog, err, tc.iter, tc.fromLog)
			}
			res, err := xversionResume(t, workers, Options{Provenance: true, Checkpoint: &ckpt.Config{Dir: dir, InputDigest: xversionDigest}})
			if err != nil {
				t.Fatalf("workers=%d %s: resume: %v", workers, tc.name, err)
			}
			if dumpAnnotations(res) != want {
				t.Errorf("workers=%d %s: resume ends in different annotations", workers, tc.name)
			}
			if !bytes.Equal(encodeArtifact(t, res.Provenance), wantProv) {
				t.Errorf("workers=%d %s: resume's provenance differs from the uninterrupted run's", workers, tc.name)
			}
		}

		// This build's directory of the same run loads to the same state.
		mine := t.TempDir()
		if _, err := xversionRun(t, workers, Options{Checkpoint: &ckpt.Config{Dir: mine, InputDigest: xversionDigest}}); err != nil {
			t.Fatal(err)
		}
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
