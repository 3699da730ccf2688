package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// snapshotOracle is the checkpoint writer this package had before the
// refinement log, kept as the reference: after every committed iteration
// it reads the whole state off the graph — both annotation vectors, the
// first-sighting hashes, the trace, and the change set as the difference
// from the state before — and encodes the snapshot that writer would
// have published. It takes nothing from ckptRunner, the records or Fold.
type snapshotOracle struct {
	g      *Graph
	st     ckpt.State
	seen   map[uint64]int
	images [][]byte // images[k] is the snapshot of iteration k
}

func newSnapshotOracle(g *Graph, opts *Options) *snapshotOracle {
	return &snapshotOracle{g: g, seen: make(map[uint64]int), st: ckpt.State{
		OptionsFP: opts.fingerprint(), InputDigest: opts.Checkpoint.InputDigest,
		GraphDigest: g.digest, Lineage: opts.Checkpoint.Lineage,
	}}
}

// capture records iteration iter, whose trace row is row (nil for the
// iteration-0 state).
func (o *snapshotOracle) capture(t *testing.T, iter int, row obs.Row) {
	t.Helper()
	routers := make([]uint32, len(o.g.Routers))
	for i, r := range o.g.Routers {
		routers[i] = uint32(r.Annotation)
	}
	ifaces := make([]uint32, len(o.g.Interfaces))
	for pos, i := range o.g.Interfaces {
		ifaces[pos] = uint32(i.Annotation)
	}
	if iter > 0 {
		var d ckpt.IterDelta
		for i, a := range routers {
			if a != o.st.Routers[i] {
				d.Routers = append(d.Routers, ckpt.AnnChange{Idx: uint32(i), Ann: a})
			}
		}
		for i, a := range ifaces {
			if a != o.st.Ifaces[i] {
				d.Ifaces = append(d.Ifaces, ckpt.AnnChange{Idx: uint32(i), Ann: a})
			}
		}
		o.st.History = append(o.st.History, d)
		o.st.Trace = append(o.st.Trace, row)
		h := o.g.stateHash()
		if first, ok := o.seen[h]; ok {
			o.st.Converged, o.st.CycleLength = true, iter-first
		} else {
			o.seen[h] = iter
		}
	}
	o.st.Iteration, o.st.Routers, o.st.Ifaces = iter, routers, ifaces
	var buf bytes.Buffer
	if err := ckpt.Encode(&buf, &o.st); err != nil {
		t.Fatal(err)
	}
	if len(o.images) != iter {
		t.Fatalf("oracle captured iteration %d after %d", iter, len(o.images)-1)
	}
	o.images = append(o.images, buf.Bytes())
}

func encodeState(t *testing.T, st *ckpt.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sansTrace is a snapshot image re-encoded without its convergence
// trace. A delta run's rows tally what it evaluated, so the restart of a
// killed one — a plain resume over the merged corpus — commits the same
// states under different rows; everything else must still match.
func sansTrace(t *testing.T, image []byte, delta bool) []byte {
	t.Helper()
	if !delta {
		return image
	}
	st, err := ckpt.Decode(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	st.Trace = nil
	return encodeState(t, st)
}

// CheckLogFold runs start — a full or a delta run over g, under the
// options it is handed — with the snapshot oracle beside it. For a full
// run it holds the checkpoint directory to the oracle after every
// iteration: what ckpt.Load returns, re-encoded, is byte for byte the
// snapshot the old writer would have published for that iteration. So a
// resume from base + log cannot be told from a resume from that
// snapshot. A delta run writes no log and one snapshot, and that
// snapshot is a full run's over g, trace rows aside (sansTrace). The
// finished directory is then held to the oracle three more ways:
// refine.ckpt is the oracle's final image and is what Result.Checkpoint
// encodes to; it loads the same with the log deleted; and a directory
// holding only the oracle's image of iteration k — what the old writer
// left behind — resumes to the same annotations and the same final
// refine.ckpt (trace rows aside when start is a delta run). It is
// exported for the fixtures only the external test package can build.
func CheckLogFold(t *testing.T, g *Graph, rels RelationshipOracle, maxIter int, delta bool, start func(Options) (*Result, error)) {
	t.Helper()
	dir := t.TempDir()
	rec := obs.New()
	opts := Options{Workers: 2, MaxIterations: maxIter, Recorder: rec, Checkpoint: &ckpt.Config{
		Dir: dir, InputDigest: 0xfeed,
		Lineage: []ckpt.BatchInfo{{FP: 9, Name: "batch-9.jsonl", Traces: 3}},
	}}
	opts.setDefaults()
	o := newSnapshotOracle(g, &opts)
	if delta {
		// A delta run publishes no iteration-0 base; its first step
		// leaves that state on g, as this does.
		g.ResetAnnotations()
		annotateLastHops(g, rels, opts)
		o.capture(t, 0, nil)
	}
	ckpt.TestHook = func(p string) {
		if p == "checkpoint:0" {
			o.capture(t, 0, nil)
		}
	}
	defer func() { ckpt.TestHook = nil }()
	opts.hookIterEnd = func(iter int) {
		o.capture(t, iter, rec.Series("refine.iterations").Rows()[iter-1])
		if delta {
			if _, err := os.Stat(filepath.Join(dir, ckpt.LogName)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("after iteration %d a delta run's directory holds %s (%v)", iter, ckpt.LogName, err)
			}
			return
		}
		st, err := ckpt.Load(dir)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if got := encodeState(t, st); !bytes.Equal(got, o.images[iter]) {
			t.Fatalf("after iteration %d the directory holds iteration %d (%d from the log), which is not its snapshot",
				iter, st.Iteration, st.FromLog)
		}
	}
	res, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	final := o.images[res.Iterations]
	want := dumpAnnotations(res)
	if len(o.images) != res.Iterations+1 {
		t.Fatalf("oracle saw %d iterations of %d", len(o.images)-1, res.Iterations)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, ckpt.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, final) || !bytes.Equal(encodeState(t, res.Checkpoint), final) {
		t.Fatalf("the finished refine.ckpt or Result.Checkpoint is not the snapshot of iteration %d", res.Iterations)
	}
	ckpt.TestHook = nil
	if delta {
		if w, a := rec.Counter("ckpt.writes").Value(), rec.Counter("ckpt.appends").Value(); w != 1 || a != 0 {
			t.Fatalf("a delta run wrote %d snapshots and %d log records, want 1 and 0", w, a)
		}
		cfg := *opts.Checkpoint
		cfg.Dir = t.TempDir()
		g.ResetAnnotations()
		if _, err := RunContext(context.Background(), g, rels, Options{Workers: 1, MaxIterations: maxIter, Checkpoint: &cfg}); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(filepath.Join(cfg.Dir, ckpt.FileName))
		if err != nil || !bytes.Equal(sansTrace(t, onDisk, true), sansTrace(t, full, true)) {
			t.Fatalf("the delta run's refine.ckpt is not a full run's over the merged graph (%v)", err)
		}
	} else if err := os.Remove(filepath.Join(dir, ckpt.LogName)); err != nil {
		t.Fatal(err)
	}
	if st, err := ckpt.Load(dir); err != nil || !bytes.Equal(encodeState(t, st), final) {
		t.Fatalf("with the log deleted the directory loads differently (%v)", err)
	}
	for k := 0; k < res.Iterations; k++ {
		old := t.TempDir()
		if err := os.WriteFile(filepath.Join(old, ckpt.FileName), o.images[k], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := *opts.Checkpoint
		cfg.Dir = old
		g.ResetAnnotations()
		resumed, err := resumeRun(context.Background(), g, rels, Options{Workers: 1 + k%4, MaxIterations: maxIter, Checkpoint: &cfg})
		if err != nil {
			t.Fatalf("resume from the old writer's snapshot of iteration %d: %v", k, err)
		}
		if !resumed.Resumed || resumed.ResumedFrom != k {
			t.Errorf("resume from iteration %d reports Resumed=%v ResumedFrom=%d", k, resumed.Resumed, resumed.ResumedFrom)
		}
		if got := dumpAnnotations(resumed); got != want {
			t.Errorf("resume from the old writer's snapshot of iteration %d ends in different annotations", k)
		}
		if onDisk, err := os.ReadFile(filepath.Join(old, ckpt.FileName)); err != nil || !bytes.Equal(sansTrace(t, onDisk, delta), sansTrace(t, final, delta)) {
			t.Errorf("resume from the old writer's snapshot of iteration %d leaves a different refine.ckpt (%v)", k, err)
		}
	}
}

// TestLogFoldEqualsSnapshot: base + log is the old per-iteration
// snapshot, for every iteration, on a simulated campaign and a run of it
// capped short of convergence; a delta run that absorbs its second half
// writes one snapshot, a full run's. The campaign converges in two
// iterations; the long oscillating fixture needs internal/eval
// (logfold_test.go). The full-run subtests are named every=1 for the
// layout they check: one log record every iteration.
func TestLogFoldEqualsSnapshot(t *testing.T) {
	e, traces := campaign(t, 2018, 20)
	ctx := context.Background()
	t.Run("full/every=1", func(t *testing.T) {
		g := buildChunk(e, traces)
		CheckLogFold(t, g, e.rels, 0, false, func(o Options) (*Result, error) { return RunContext(ctx, g, e.rels, o) })
	})
	t.Run("capped/every=1", func(t *testing.T) {
		g := buildChunk(e, traces)
		CheckLogFold(t, g, e.rels, 1, false, func(o Options) (*Result, error) { return RunContext(ctx, g, e.rels, o) })
	})
	t.Run("delta/one-snapshot", func(t *testing.T) {
		b := NewBuilder(e.resolver, e.aliases)
		b.AddTraces(traces[:len(traces)/2])
		g := b.Finish(e.rels)
		_, base := checkpointed(t, 1, func(o Options) (*Result, error) { return RunContext(ctx, g, e.rels, o) })
		b.AddTraces(traces[len(traces)/2:])
		b.Finish(e.rels)
		CheckLogFold(t, g, e.rels, 0, true, func(o Options) (*Result, error) {
			return RunDeltaContext(ctx, g, b.LastAppend(), base, e.rels, o)
		})
	})
}

// copyDir copies the regular files of a checkpoint directory: what a
// SIGKILL at this instant would leave behind.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeFromStartSnapshot: a run killed after its iteration-0 state
// became durable and before its first iteration did resumes "from
// iteration 0" — a resume like any other, reported as one — to the
// annotations and the refine.ckpt of a run nobody interrupted, at
// workers 1 and 4. For a delta run the restart is what crash recovery
// does: a from-scratch graph over the merged corpus and a plain resume.
// The directory already held another run's checkpoint, as an ingest
// state directory always does, and the kill is that directory as it
// stood at the "checkpoint:0" point: the new base beside the old run's
// log, or — the kill landing past the truncation — beside an empty one.
// "twin" is the one case where the old log counts: the run before was
// this very run, so its records are this run's iterations and the
// resume starts behind the last of them.
func TestResumeFromStartSnapshot(t *testing.T) {
	e, traces := campaign(t, 2018, 20)
	ctx := context.Background()
	half := len(traces) / 2
	for _, workers := range []int{1, 4} {
		for _, kind := range []string{"full", "delta", "twin"} {
			t.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(t *testing.T) {
				b := NewBuilder(e.resolver, e.aliases)
				b.Workers = workers
				dir, killed := t.TempDir(), t.TempDir()
				cfg := &ckpt.Config{Dir: dir, InputDigest: 2, Lineage: []ckpt.BatchInfo{{FP: 5, Name: "second-half"}}}
				before := &ckpt.Config{Dir: dir, InputDigest: 1}
				if kind == "twin" {
					before = cfg
				}
				b.AddTraces(traces[:half])
				if kind != "delta" {
					b.AddTraces(traces[half:])
				}
				g := b.Finish(e.rels)
				prev, err := RunContext(ctx, g, e.rels, Options{Workers: workers, Checkpoint: before})
				if err != nil {
					t.Fatal(err)
				}
				if kind == "delta" {
					b.AddTraces(traces[half:])
					b.Finish(e.rels)
				}
				at0 := dir
				ckpt.TestHook = func(p string) {
					if p == "checkpoint:0" {
						copyDir(t, at0, killed)
					}
				}
				defer func() { ckpt.TestHook = nil }()
				var full *Result
				if kind == "delta" {
					// A delta run writes no iteration-0 base. Builds before
					// that wrote the one a full run over the merged corpus
					// writes, beside the run before's log: that directory is
					// the kill recovered here.
					at0 = t.TempDir()
					copyDir(t, dir, at0)
					ocfg := *cfg
					ocfg.Dir = at0
					if _, err := RunContext(ctx, buildChunk(e, traces), e.rels, Options{Workers: workers, Checkpoint: &ocfg}); err != nil {
						t.Fatal(err)
					}
					ckpt.TestHook = nil
					full, err = RunDeltaContext(ctx, g, b.LastAppend(), prev.Checkpoint, e.rels, Options{Workers: workers, Checkpoint: cfg})
				} else {
					g.ResetAnnotations()
					full, err = RunContext(ctx, g, e.rels, Options{Workers: workers, Checkpoint: cfg})
				}
				if err != nil {
					t.Fatal(err)
				}
				ckpt.TestHook = nil
				want := dumpAnnotations(full)
				wantCkpt, err := os.ReadFile(filepath.Join(dir, ckpt.FileName))
				if err != nil {
					t.Fatal(err)
				}
				if fi, err := os.Stat(filepath.Join(killed, ckpt.LogName)); err != nil || fi.Size() == 0 {
					t.Fatalf("the directory at checkpoint:0 does not hold the previous run's log (%v)", err)
				}
				for _, truncated := range []bool{false, true} {
					at := t.TempDir()
					copyDir(t, killed, at)
					from := 0
					if truncated {
						if err := os.Truncate(filepath.Join(at, ckpt.LogName), 0); err != nil {
							t.Fatal(err)
						}
					} else if kind == "twin" {
						from = full.Iterations - 1
					}
					rcfg := *cfg
					rcfg.Dir = at
					rec := obs.New()
					var log bytes.Buffer
					rec.SetLogOutput(&log)
					resumed, err := resumeRun(ctx, buildChunk(e, traces), e.rels, Options{Workers: 5 - workers, Recorder: rec, Checkpoint: &rcfg})
					if err != nil {
						t.Fatalf("truncated=%v: resume: %v", truncated, err)
					}
					if !resumed.Resumed || resumed.ResumedFrom != from || resumed.Report.ResumedFrom != from {
						t.Errorf("truncated=%v: Resumed=%v ResumedFrom=%d (report %d), want true, %d, %d",
							truncated, resumed.Resumed, resumed.ResumedFrom, resumed.Report.ResumedFrom, from, from)
					}
					if line := fmt.Sprintf("resumed from checkpoint at iteration %d (%d of them from refine.log)", from, from); !bytes.Contains(log.Bytes(), []byte(line)) {
						t.Errorf("truncated=%v: the run's log does not say %q:\n%s", truncated, line, log.String())
					}
					if got := dumpAnnotations(resumed); got != want {
						t.Errorf("truncated=%v: resumed annotations differ from the uninterrupted run's", truncated)
					}
					got, err := os.ReadFile(filepath.Join(at, ckpt.FileName))
					if err != nil || !bytes.Equal(sansTrace(t, got, kind == "delta"), sansTrace(t, wantCkpt, kind == "delta")) {
						t.Errorf("truncated=%v: resumed refine.ckpt differs from the uninterrupted run's (%v)", truncated, err)
					}
					if !bytes.Equal(encodeState(t, resumed.Checkpoint), got) {
						t.Errorf("truncated=%v: Result.Checkpoint is not what refine.ckpt holds", truncated)
					}
				}
			})
		}
	}
}

// TestResumeWithoutProvenanceRebases: a directory a run left after two
// iterations — its iteration-0 base and two log records under that
// base's run id — loads with its log folded, and resumes, with
// provenance or without, to the uninterrupted run's annotations and
// artifact. The resumed run publishes what it loaded as a new base
// before it logs anything, so its own records fold: a second kill does
// not fall back to the first one's state.
func TestResumeWithoutProvenanceRebases(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1, Provenance: true})
	want, wantProv := dumpAnnotations(full), encodeArtifact(t, full.Provenance)
	if full.Iterations < 4 {
		t.Fatalf("the fixture converges in %d iterations; the test kills it twice before the last", full.Iterations)
	}
	defer func() { ckpt.TestHook = nil }()

	// The directory after two iterations: the iteration-0 base and the
	// first two iterations as log records.
	dir, start := t.TempDir(), t.TempDir()
	ckpt.TestHook = func(p string) {
		if p == "checkpoint:0" {
			copyDir(t, dir, start)
		}
	}
	if _, err := checkpointedRun(t, 2, Options{MaxIterations: 2, Checkpoint: &ckpt.Config{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	ckpt.TestHook = nil
	at2, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.Load(start)
	if err != nil || st.Iteration != 0 {
		t.Fatalf("iteration-0 base: %v", err)
	}
	old := t.TempDir()
	if err := ckpt.Save(old, st, nil); err != nil {
		t.Fatal(err)
	}
	var log []byte
	for k := 1; k <= 2; k++ {
		log = append(log, ckpt.EncodeIterRecord(&ckpt.IterRecord{
			RunID: st.RunID(), Iteration: k,
			Delta: at2.History[k-1], Row: at2.Trace[k-1],
		})...)
	}
	if err := os.WriteFile(filepath.Join(old, ckpt.LogName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.Load(old)
	if err != nil || loaded.Iteration != 2 || loaded.FromLog != 2 ||
		!reflect.DeepEqual(loaded.Routers, at2.Routers) || !reflect.DeepEqual(loaded.Ifaces, at2.Ifaces) {
		t.Fatalf("the two-iteration directory loads to iteration %d (%d from the log), err %v; want 2 (2), the run's state",
			loaded.Iteration, loaded.FromLog, err)
	}

	for _, provenance := range []bool{false, true} {
		dir := t.TempDir()
		copyDir(t, old, dir)
		rebased, logged := t.TempDir(), t.TempDir()
		ckpt.TestHook = func(p string) {
			switch p {
			case "checkpoint:2":
				copyDir(t, dir, rebased)
			case "checkpoint:3":
				copyDir(t, dir, logged)
			}
		}
		res, err := checkpointedResume(t, 2, Options{Provenance: provenance, Checkpoint: &ckpt.Config{Dir: dir}})
		ckpt.TestHook = nil
		if err != nil {
			t.Fatalf("provenance=%v: resume: %v", provenance, err)
		}
		if dumpAnnotations(res) != want {
			t.Errorf("provenance=%v: resume ends in different annotations", provenance)
		}
		if provenance && !bytes.Equal(encodeArtifact(t, res.Provenance), wantProv) {
			t.Error("provenance resume: artifact differs from the uninterrupted run's")
		}
		for _, kill := range []struct {
			dir           string
			iter, fromLog int
		}{{rebased, 2, 0}, {logged, 3, 1}, {dir, full.Iterations, 0}} {
			st, err := ckpt.Load(kill.dir)
			if err != nil || st.Iteration != kill.iter || st.FromLog != kill.fromLog {
				t.Fatalf("provenance=%v: killed at iteration %d, the directory holds iteration %d (%d from the log), err %v; want %d (%d)",
					provenance, kill.iter, st.Iteration, st.FromLog, err, kill.iter, kill.fromLog)
			}
		}
		res, err = checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: logged}})
		if err != nil || dumpAnnotations(res) != want {
			t.Errorf("provenance=%v: resume after the second kill ends in different annotations (%v)", provenance, err)
		}
	}
}

// TestCheckpointsIgnoreProvenance: after every iteration the checkpoint
// directory of a provenance run is byte for byte that of the same run
// without provenance — full, capped and delta.
func TestCheckpointsIgnoreProvenance(t *testing.T) {
	ctx := context.Background()
	e, traces := campaign(t, 2018, 20)
	b := NewBuilder(e.resolver, e.aliases)
	b.AddTraces(traces[:len(traces)/2])
	grown := b.Finish(e.rels)
	_, base := checkpointed(t, 1, func(o Options) (*Result, error) { return RunContext(ctx, grown, e.rels, o) })
	b.AddTraces(traces[len(traces)/2:])
	b.Finish(e.rels)
	golden := goldenEnv(t)
	full := func(o Options) (*Result, error) { return RunContext(ctx, buildGraph(t, golden, 2), golden.rels, o) }
	for _, tc := range []struct {
		name    string
		maxIter int
		start   func(Options) (*Result, error)
	}{
		{"full", 0, full},
		{"capped", 2, full},
		{"delta", 0, func(o Options) (*Result, error) { return RunDeltaContext(ctx, grown, b.LastAppend(), base, e.rels, o) }},
	} {
		var images [2][]map[string][]byte
		for i, provenance := range []bool{false, true} {
			dir := t.TempDir()
			opts := Options{Workers: 2, MaxIterations: tc.maxIter, Provenance: provenance, Checkpoint: &ckpt.Config{Dir: dir, InputDigest: 7}}
			opts.hookIterEnd = func(int) { images[i] = append(images[i], dirImage(t, dir)) }
			res, err := tc.start(opts)
			if err != nil || (res.Provenance != nil) != provenance {
				t.Fatalf("%s: provenance=%v: artifact %v, err %v", tc.name, provenance, res != nil && res.Provenance != nil, err)
			}
		}
		if len(images[0]) < 2 || !reflect.DeepEqual(images[0], images[1]) {
			t.Errorf("%s: over %d iterations, the directory of the provenance run is not the plain run's", tc.name, len(images[0]))
		}
	}
}
