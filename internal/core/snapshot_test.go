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

// snapshotOracle is the reference checkpoint writer: after every
// committed iteration it reads the whole state off the graph — both
// annotation vectors, the first-sighting hashes, the trace, and the
// change set as the difference from the state before — and encodes the
// snapshot of that iteration. It takes nothing from ckptRunner.
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

// CheckSnapshots runs start — a full or a delta run over g, under the
// options it is handed — with the snapshot oracle beside it, and holds
// the checkpoint directory to it. A full run publishes the oracle's
// iteration-0 image at "checkpoint:0"; a delta run publishes none. Each
// iteration but the last leaves refine.ckpt as it was, and the last
// publishes the oracle's final image, which Result.Checkpoint also
// encodes to. A delta run's final snapshot is a full run's over g, trace
// rows aside (sansTrace). No refine.log is ever created. A directory
// holding only the oracle's image of iteration k then resumes to the same
// annotations and the same final refine.ckpt (trace rows aside when
// start is a delta run). It is exported for the fixtures only the
// external test package can build.
func CheckSnapshots(t *testing.T, g *Graph, rels RelationshipOracle, maxIter int, delta bool, start func(Options) (*Result, error)) {
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
	var base []byte
	ckpt.TestHook = func(p string) {
		if p == "checkpoint:0" {
			o.capture(t, 0, nil)
			base = readCkpt(t, dir)
		}
	}
	defer func() { ckpt.TestHook = nil }()
	// onDisk[k] is refine.ckpt after iteration k+1 (nil: none there).
	var onDisk [][]byte
	opts.hookIterEnd = func(iter int) {
		o.capture(t, iter, rec.Series("refine.iterations").Rows()[iter-1])
		onDisk = append(onDisk, readCkpt(t, dir))
		if _, err := os.Stat(filepath.Join(dir, "refine.log")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("after iteration %d the directory holds refine.log (%v)", iter, err)
		}
	}
	res, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.TestHook = nil
	if len(o.images) != res.Iterations+1 || len(onDisk) != res.Iterations {
		t.Fatalf("oracle saw %d iterations of %d", len(o.images)-1, res.Iterations)
	}
	if !delta && !bytes.Equal(base, o.images[0]) {
		t.Fatal("the iteration-0 refine.ckpt is not the oracle's snapshot of iteration 0")
	}
	for k, img := range onDisk[:res.Iterations-1] {
		if !bytes.Equal(img, base) {
			t.Fatalf("iteration %d changed refine.ckpt before the run's last iteration", k+1)
		}
	}
	final := o.images[res.Iterations]
	if !bytes.Equal(onDisk[res.Iterations-1], final) || !bytes.Equal(readCkpt(t, dir), final) || !bytes.Equal(encodeState(t, res.Checkpoint), final) {
		t.Fatalf("the finished refine.ckpt or Result.Checkpoint is not the snapshot of iteration %d", res.Iterations)
	}
	if w, want := rec.Counter("ckpt.writes").Value(), 2-b2i(delta); w != want {
		t.Fatalf("the run wrote %d snapshots, want %d", w, want)
	}
	want := dumpAnnotations(res)
	if delta {
		cfg := *opts.Checkpoint
		cfg.Dir = t.TempDir()
		g.ResetAnnotations()
		if _, err := RunContext(context.Background(), g, rels, Options{Workers: 1, MaxIterations: maxIter, Checkpoint: &cfg}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sansTrace(t, final, true), sansTrace(t, readCkpt(t, cfg.Dir), true)) {
			t.Fatal("the delta run's refine.ckpt is not a full run's over the merged graph")
		}
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
			t.Fatalf("resume from the oracle's snapshot of iteration %d: %v", k, err)
		}
		if !resumed.Resumed || resumed.ResumedFrom != k {
			t.Errorf("resume from iteration %d reports Resumed=%v ResumedFrom=%d", k, resumed.Resumed, resumed.ResumedFrom)
		}
		if got := dumpAnnotations(resumed); got != want {
			t.Errorf("resume from the oracle's snapshot of iteration %d ends in different annotations", k)
		}
		if !bytes.Equal(sansTrace(t, readCkpt(t, old), delta), sansTrace(t, final, delta)) {
			t.Errorf("resume from the oracle's snapshot of iteration %d leaves a different refine.ckpt", k)
		}
	}
}

// readCkpt reads dir's refine.ckpt, nil when there is none.
func readCkpt(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ckpt.FileName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointEqualsSnapshot: the iteration-0 and the final refine.ckpt
// are the oracle's snapshots of those iterations, on a simulated campaign
// and a run of it capped short of convergence; a delta run that absorbs
// its second half writes one snapshot, a full run's. The campaign
// converges in two iterations; the long oscillating fixture needs
// internal/eval (snapshot_longtail_test.go).
func TestCheckpointEqualsSnapshot(t *testing.T) {
	e, traces := campaign(t, 2018, 20)
	ctx := context.Background()
	t.Run("full", func(t *testing.T) {
		g := buildChunk(e, traces)
		CheckSnapshots(t, g, e.rels, 0, false, func(o Options) (*Result, error) { return RunContext(ctx, g, e.rels, o) })
	})
	t.Run("capped", func(t *testing.T) {
		g := buildChunk(e, traces)
		CheckSnapshots(t, g, e.rels, 1, false, func(o Options) (*Result, error) { return RunContext(ctx, g, e.rels, o) })
	})
	t.Run("delta", func(t *testing.T) {
		b := NewBuilder(e.resolver, e.aliases)
		b.AddTraces(traces[:len(traces)/2])
		g := b.Finish(e.rels)
		_, base := checkpointed(t, 1, func(o Options) (*Result, error) { return RunContext(ctx, g, e.rels, o) })
		b.AddTraces(traces[len(traces)/2:])
		b.Finish(e.rels)
		CheckSnapshots(t, g, e.rels, 0, true, func(o Options) (*Result, error) {
			return RunDeltaContext(ctx, g, b.LastAppend(), base, e.rels, o)
		})
	})
}

// TestDurabilityPoints pins every durable write a checkpointed run makes,
// as the TestHook points it fires: a full run publishes refine.ckpt at
// iteration 0 and at its last iteration and nothing between; a resume of
// a capped run and a delta run publish their final state only.
func TestDurabilityPoints(t *testing.T) {
	e, traces := campaign(t, 2018, 20)
	ctx := context.Background()
	defer func() { ckpt.TestHook = nil }()
	record := func(run func() (*Result, error)) (*Result, []string) {
		t.Helper()
		var points []string
		ckpt.TestHook = func(p string) { points = append(points, p) }
		res, err := run()
		ckpt.TestHook = nil
		if err != nil {
			t.Fatal(err)
		}
		return res, points
	}
	write := func(iter int) []string {
		return []string{"pre-rename:" + ckpt.FileName, fmt.Sprintf("checkpoint:%d", iter)}
	}

	dir := t.TempDir()
	g := buildChunk(e, traces)
	full, points := record(func() (*Result, error) {
		return RunContext(ctx, g, e.rels, Options{Workers: 2, Checkpoint: &ckpt.Config{Dir: dir}})
	})
	if full.Iterations < 2 {
		t.Fatalf("the campaign converges in %d iteration(s); the test needs one between the two writes", full.Iterations)
	}
	if want := append(write(0), write(full.Iterations)...); !reflect.DeepEqual(points, want) {
		t.Errorf("full run: points %v, want %v", points, want)
	}

	capped := t.TempDir()
	g.ResetAnnotations()
	if _, points = record(func() (*Result, error) {
		return RunContext(ctx, g, e.rels, Options{Workers: 2, MaxIterations: 1, Checkpoint: &ckpt.Config{Dir: capped}})
	}); !reflect.DeepEqual(points, append(write(0), write(1)...)) {
		t.Errorf("capped run: points %v", points)
	}
	if _, points = record(func() (*Result, error) {
		return resumeRun(ctx, buildChunk(e, traces), e.rels, Options{Workers: 1, Checkpoint: &ckpt.Config{Dir: capped}})
	}); !reflect.DeepEqual(points, write(full.Iterations)) {
		t.Errorf("resume of the capped run: points %v, want %v", points, write(full.Iterations))
	}

	b := NewBuilder(e.resolver, e.aliases)
	b.AddTraces(traces[:len(traces)/2])
	grown := b.Finish(e.rels)
	_, base := checkpointed(t, 1, func(o Options) (*Result, error) { return RunContext(ctx, grown, e.rels, o) })
	b.AddTraces(traces[len(traces)/2:])
	b.Finish(e.rels)
	res, points := record(func() (*Result, error) {
		return RunDeltaContext(ctx, grown, b.LastAppend(), base, e.rels, Options{Workers: 2, Checkpoint: &ckpt.Config{Dir: t.TempDir()}})
	})
	if !reflect.DeepEqual(points, write(res.Iterations)) {
		t.Errorf("delta run: points %v, want %v", points, write(res.Iterations))
	}
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
// became durable — anywhere inside refinement, since nothing is written
// until its last iteration — resumes "from iteration 0", a resume like
// any other and reported as one, to the annotations and the refine.ckpt
// of a run nobody interrupted, at workers 1 and 4. For a delta run the
// restart is what crash recovery does: a from-scratch graph over the
// merged corpus and a plain resume. The directory already held another
// run's final checkpoint, as an ingest state directory always does —
// "twin" when that run was this very run — and the kill is that
// directory as it stood at the "checkpoint:0" point: the new base
// replaced it.
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
					// A delta run writes no iteration-0 base: the kill
					// recovered here is the restart's own, a full run over
					// the merged corpus killed inside refinement.
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
				wantCkpt := readCkpt(t, dir)
				if st, err := ckpt.Load(killed); err != nil || st.Iteration != 0 {
					t.Fatalf("the directory at checkpoint:0 does not hold an iteration-0 state (%v)", err)
				}
				rcfg := *cfg
				rcfg.Dir = killed
				rec := obs.New()
				var log bytes.Buffer
				rec.SetLogOutput(&log)
				resumed, err := resumeRun(ctx, buildChunk(e, traces), e.rels, Options{Workers: 5 - workers, Recorder: rec, Checkpoint: &rcfg})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !resumed.Resumed || resumed.ResumedFrom != 0 || resumed.Report.ResumedFrom != 0 {
					t.Errorf("Resumed=%v ResumedFrom=%d (report %d), want true, 0, 0",
						resumed.Resumed, resumed.ResumedFrom, resumed.Report.ResumedFrom)
				}
				if line := "resumed from checkpoint at iteration 0"; !bytes.Contains(log.Bytes(), []byte(line)) {
					t.Errorf("the run's log does not say %q:\n%s", line, log.String())
				}
				if got := dumpAnnotations(resumed); got != want {
					t.Error("resumed annotations differ from the uninterrupted run's")
				}
				got := readCkpt(t, killed)
				if !bytes.Equal(sansTrace(t, got, kind == "delta"), sansTrace(t, wantCkpt, kind == "delta")) {
					t.Error("resumed refine.ckpt differs from the uninterrupted run's")
				}
				if !bytes.Equal(encodeState(t, resumed.Checkpoint), got) {
					t.Error("Result.Checkpoint is not what refine.ckpt holds")
				}
			})
		}
	}
}

// TestResumeWithoutProvenance: a run capped after two iterations resumes,
// with provenance or without, to the uninterrupted run's annotations and
// artifact. The resume publishes nothing until its last iteration, so a
// second kill inside it leaves the capped run's state, which resumes the
// same way.
func TestResumeWithoutProvenance(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1, Provenance: true})
	want, wantProv := dumpAnnotations(full), encodeArtifact(t, full.Provenance)
	if full.Iterations < 4 {
		t.Fatalf("the fixture converges in %d iterations; the test kills it twice before the last", full.Iterations)
	}
	defer func() { ckpt.TestHook = nil }()
	capped := t.TempDir()
	if _, err := checkpointedRun(t, 2, Options{MaxIterations: 2, Checkpoint: &ckpt.Config{Dir: capped}}); err != nil {
		t.Fatal(err)
	}
	at2 := readCkpt(t, capped)
	for _, provenance := range []bool{false, true} {
		dir, killed := t.TempDir(), t.TempDir()
		copyDir(t, capped, dir)
		opts := Options{Provenance: provenance, Checkpoint: &ckpt.Config{Dir: dir}}
		opts.hookIterEnd = func(iter int) {
			if iter == 3 {
				copyDir(t, dir, killed)
			}
		}
		res, err := checkpointedResume(t, 2, opts)
		if err != nil {
			t.Fatalf("provenance=%v: resume: %v", provenance, err)
		}
		if dumpAnnotations(res) != want {
			t.Errorf("provenance=%v: resume ends in different annotations", provenance)
		}
		if provenance && !bytes.Equal(encodeArtifact(t, res.Provenance), wantProv) {
			t.Error("provenance resume: artifact differs from the uninterrupted run's")
		}
		if !bytes.Equal(readCkpt(t, killed), at2) {
			t.Fatalf("provenance=%v: killed at iteration 3, the directory no longer holds the capped state", provenance)
		}
		res, err = checkpointedResume(t, 1, Options{Checkpoint: &ckpt.Config{Dir: killed}})
		if err != nil {
			t.Fatalf("provenance=%v: resume after the second kill: %v", provenance, err)
		}
		if dumpAnnotations(res) != want || res.ResumedFrom != 2 {
			t.Errorf("provenance=%v: resume after the second kill ends in different annotations, from iteration %d", provenance, res.ResumedFrom)
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
