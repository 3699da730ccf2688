package bdrmapit

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/simnet"
)

// splitCorpus carves the topology's traceroute archive into a base
// corpus and three batch files, plus the merged archive a from-scratch
// oracle run consumes. The split is by line, so every piece is a valid
// JSONL file and base+batches concatenated is byte-identical to the
// merged archive.
func splitCorpus(t *testing.T, tracePath, dir string) (base string, batches []string, merged string) {
	t.Helper()
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n")+"\n", "\n")
	lines = lines[:len(lines)-1] // SplitAfter leaves a trailing ""
	if len(lines) < 10 {
		t.Fatalf("corpus too small to split: %d lines", len(lines))
	}
	cut := len(lines) * 3 / 5
	parts := [][]string{lines[:cut]}
	rest := lines[cut:]
	third := (len(rest) + 2) / 3
	for len(rest) > 0 {
		n := third
		if n > len(rest) {
			n = len(rest)
		}
		parts = append(parts, rest[:n])
		rest = rest[n:]
	}
	for len(parts) < 4 {
		t.Fatalf("split produced %d parts", len(parts))
	}
	names := []string{"base.jsonl", "batch-1.jsonl", "batch-2.jsonl", "batch-3.jsonl"}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
		if err := os.WriteFile(paths[i], []byte(strings.Join(parts[i], "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged = filepath.Join(dir, "merged.jsonl")
	if err := os.WriteFile(merged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return paths[0], paths[1:], merged
}

// TestIngestSession is the Go-API continuous-ingest end-to-end: absorb
// three good batches and one poison batch with the equivalence oracle
// armed, prove the published annotations byte-identical to a
// from-scratch run over the merged corpus, then prove re-offers are
// idempotent and replayed content under a new name is quarantined
// without disturbing the victim's applied state.
func TestIngestSession(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	base, batches, merged := splitCorpus(t, p.Traceroutes, dir)
	poison := filepath.Join(dir, "poison.jsonl")
	if err := os.WriteFile(poison, []byte("this is not a traceroute record\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	stateDir := filepath.Join(dir, "state")
	annOut := filepath.Join(dir, "annotations.txt")
	opts := IngestOptions{
		StateDir:        stateDir,
		AnnotationsPath: annOut,
		VerifyDelta:     true,
		Run:             Options{Workers: 4, WarnWriter: io.Discard},
	}
	offer := []string{batches[0], batches[1], poison, batches[2]}

	res, err := Ingest(src, offer, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("uninterrupted session reports Interrupted")
	}
	if res.Absorbed != 3 || res.Skipped != 0 || res.Quarantined != 1 {
		t.Fatalf("absorbed=%d skipped=%d quarantined=%d, want 3/0/1",
			res.Absorbed, res.Skipped, res.Quarantined)
	}
	wantDecisions := []string{"absorb", "absorb", "poison", "absorb"}
	if len(res.Outcomes) != len(wantDecisions) {
		t.Fatalf("outcomes = %d, want %d", len(res.Outcomes), len(wantDecisions))
	}
	for i, o := range res.Outcomes {
		if o.Decision != wantDecisions[i] {
			t.Errorf("outcome %d (%s): decision %q, want %q", i, o.Name, o.Decision, wantDecisions[i])
		}
	}
	if o := res.Outcomes[2]; !o.Quarantined || o.Reason != "decode" {
		t.Errorf("poison outcome = %+v, want quarantined with reason decode", o)
	}

	// The quarantine directory holds exactly the poison batch: its
	// bytes and a typed reason file.
	qdir := filepath.Join(stateDir, delta.QuarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var reasons, copies int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".reason":
			reasons++
			data, err := os.ReadFile(filepath.Join(qdir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), "class: decode") ||
				!strings.Contains(string(data), "batch: poison.jsonl") {
				t.Errorf("reason file:\n%s", data)
			}
		case ".jsonl":
			copies++
		}
	}
	if reasons != 1 || copies != 1 {
		t.Fatalf("quarantine dir holds %d reasons, %d copies; want 1 and 1", reasons, copies)
	}

	// Equivalence oracle at the session level: the published
	// annotations match a from-scratch run over the merged corpus.
	oracleSrc := topoSources(p)
	oracleSrc.TraceroutePaths = []string{merged}
	oracle, err := Run(oracleSrc, Options{Workers: 1, WarnWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	want := annotationBytes(t, oracle)
	got, err := os.ReadFile(annOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ingested annotations differ from from-scratch run on the merged corpus")
	}

	// Re-offering the same batches is free: everything skips, the
	// quarantined batch stays quarantined, and the output is unchanged.
	again, err := Ingest(src, offer, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Absorbed != 0 || again.Skipped != 4 || again.Quarantined != 0 {
		t.Fatalf("re-offer: absorbed=%d skipped=%d quarantined=%d, want 0/4/0",
			again.Absorbed, again.Skipped, again.Quarantined)
	}
	for i, wantD := range []string{"skip", "skip", "skip-quarantined", "skip"} {
		if got := again.Outcomes[i].Decision; got != wantD {
			t.Errorf("re-offer outcome %d: %q, want %q", i, got, wantD)
		}
	}
	got2, err := os.ReadFile(annOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("re-offer session changed the published annotations")
	}

	// Replay: batch-1's exact bytes under a new name are poison. The
	// impostor is quarantined under a name-derived fingerprint, and the
	// victim's applied state is untouched — re-offering the real
	// batch-1 still skips as applied.
	b1, err := os.ReadFile(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	sneaky := filepath.Join(dir, "sneaky.jsonl")
	if err := os.WriteFile(sneaky, b1, 0o644); err != nil {
		t.Fatal(err)
	}
	replay, err := Ingest(src, []string{sneaky, batches[0]}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Quarantined != 1 || replay.Skipped != 1 {
		t.Fatalf("replay: quarantined=%d skipped=%d, want 1/1", replay.Quarantined, replay.Skipped)
	}
	if o := replay.Outcomes[0]; o.Decision != "poison" || o.Reason != "replay" {
		t.Errorf("replay outcome = %+v, want poison/replay", o)
	}
	if o := replay.Outcomes[1]; o.Decision != "skip" || o.Quarantined {
		t.Errorf("victim outcome after replay = %+v, want clean skip", o)
	}

	// A re-offered replay skips without re-journaling.
	replay2, err := Ingest(src, []string{sneaky}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o := replay2.Outcomes[0]; o.Decision != "skip-quarantined" {
		t.Errorf("re-offered replay = %+v, want skip-quarantined", o)
	}

	// The published annotations never moved through any of it.
	got3, err := os.ReadFile(annOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got3, want) {
		t.Fatal("replay sessions changed the published annotations")
	}
}

// TestVerifyDeltaLeavesTheReportAlone: the equivalence oracle's
// from-scratch builds and runs record nothing into the session's
// recorder, so a session with VerifyDelta reports the same graph.*,
// resolve.*, load.* and refine.* counters and the same phase tree as one
// without it — for a session absorbing three batches and for the restart
// after it, whose recovered state the oracle also checks.
func TestVerifyDeltaLeavesTheReportAlone(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	base, batches, _ := splitCorpus(t, p.Traceroutes, dir)
	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	var reports [2][2]*obs.Report // [verify][session]
	for v, verify := range []bool{false, true} {
		opts := IngestOptions{
			StateDir:    filepath.Join(dir, "state-"+strconv.FormatBool(verify)),
			VerifyDelta: verify,
			Run:         quiet(Options{Workers: 2}),
		}
		for s, offer := range [][]string{batches, nil} {
			res, err := Ingest(src, offer, opts)
			if err != nil {
				t.Fatal(err)
			}
			reports[v][s] = res.Report
		}
	}
	counted := func(k string) bool {
		for _, prefix := range []string{"graph.", "resolve.", "load.", "refine."} {
			if strings.HasPrefix(k, prefix) {
				return true
			}
		}
		return false
	}
	for s, name := range []string{"three-batch session", "restart"} {
		plain, verified := reports[0][s], reports[1][s]
		if got, want := tree(verified.Phases), tree(plain.Phases); got != want {
			t.Errorf("%s: phases with VerifyDelta\n got %s\nwant %s", name, got, want)
		}
		for k, n := range verified.Counters {
			if counted(k) && n != plain.Counters[k] {
				t.Errorf("%s: counter %s reads %d with VerifyDelta, %d without", name, k, n, plain.Counters[k])
			}
		}
		for k, n := range plain.Counters {
			if _, ok := verified.Counters[k]; counted(k) && !ok {
				t.Errorf("%s: counter %s is absent with VerifyDelta, %d without", name, k, n)
			}
		}
		if plain.Counters["graph.traces"] == 0 {
			t.Errorf("%s: graph.traces not counted", name)
		}
	}
}

// stateFiles reads every regular file under a state directory, keyed by
// its path relative to it.
func stateFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestAbsorbWritesOnce: an absorb makes one durable checkpoint write,
// its final snapshot. A session that absorbs three batches into a
// bootstrapped state directory reports three snapshots, and no
// refine.log is ever created.
func TestAbsorbWritesOnce(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	base, batches, _ := splitCorpus(t, p.Traceroutes, dir)
	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	opts := IngestOptions{
		StateDir:        filepath.Join(dir, "state"),
		AnnotationsPath: filepath.Join(dir, "annotations.txt"),
		Run:             Options{Workers: 2, WarnWriter: io.Discard},
	}
	if _, err := Ingest(src, nil, opts); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	res, err := Ingest(src, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Absorbed != len(batches) {
		t.Fatalf("absorbed %d of %d batches", res.Absorbed, len(batches))
	}
	rep := res.Report
	if w, n := rep.Counters["ckpt.writes"], rep.Histograms["ckpt.write_ns"].Count; w != 3 || n != 3 {
		t.Errorf("absorbing 3 batches made %d snapshot writes (%d timed); want 3, 3", w, n)
	}
	if _, err := os.Stat(filepath.Join(opts.StateDir, "refine.log")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the state directory holds refine.log after the absorbs (%v)", err)
	}
}

// TestIngestImageFallback: a Builder image that cannot stand in for the
// corpus — torn, bit-flipped, of another format version, or saved over
// another lineage — costs a restart one warning and an
// ingest.image_fallback count, and nothing else: the restart streams the
// corpus, publishes what a restart with a good image publishes, and
// leaves a state directory byte-identical to it, the image rewritten.
func TestIngestImageFallback(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	base, batches, _ := splitCorpus(t, p.Traceroutes, dir)
	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	session := func(t *testing.T, name string, offer []string) (IngestOptions, *IngestResult) {
		t.Helper()
		opts := IngestOptions{
			StateDir:        filepath.Join(dir, name, "state"),
			AnnotationsPath: filepath.Join(dir, name, "annotations.txt"),
			SnapshotPath:    filepath.Join(dir, name, "snapshot.bin"),
			Run:             Options{Workers: 2, WarnWriter: io.Discard},
		}
		res, err := Ingest(src, offer, opts)
		if err != nil {
			t.Fatalf("session %s: %v", name, err)
		}
		return opts, res
	}
	refOpts, _ := session(t, "ref", batches[:2])
	imgPath := filepath.Join(refOpts.StateDir, imageName)
	good, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	// A restart with the good image loads it and rewrites nothing.
	if _, res := session(t, "ref", nil); res.Report.Counters["ingest.image_loaded"] != 1 || len(res.Report.Warnings) != 0 {
		t.Fatalf("restart with a good image: loaded %d, warnings %q", res.Report.Counters["ingest.image_loaded"], res.Report.Warnings)
	}
	want := stateFiles(t, refOpts.StateDir)
	// The same batches absorbed in the other order: an image over a
	// lineage that is not the checkpoint's.
	foreignOpts, _ := session(t, "foreign", []string{batches[1], batches[0]})
	foreign, err := os.ReadFile(filepath.Join(foreignOpts.StateDir, imageName))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		image []byte
	}{
		{"torn", good[:len(good)/2]},
		{"bit-flipped", flipBit(good, len(good)/2)},
		{"wrong version", append(append([]byte{}, good[:8]...), append([]byte{2}, good[9:]...)...)},
		{"foreign lineage", foreign},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := strings.ReplaceAll(tc.name, " ", "-")
			state := filepath.Join(dir, name, "state")
			for rel, data := range want {
				if err := os.MkdirAll(filepath.Dir(filepath.Join(state, rel)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(state, rel), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(state, imageName), tc.image, 0o644); err != nil {
				t.Fatal(err)
			}
			_, res := session(t, name, nil)
			rep := res.Report
			if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "builder image") {
				t.Errorf("warnings %q, want the one about the builder image", rep.Warnings)
			}
			if rep.Counters["ingest.image_fallback"] != 1 || rep.Counters["ingest.image_loaded"] != 0 || rep.Counters["load.traces"] == 0 {
				t.Errorf("counters: image_fallback %d, image_loaded %d, load.traces %d; want 1, 0 and the base corpus streamed",
					rep.Counters["ingest.image_fallback"], rep.Counters["ingest.image_loaded"], rep.Counters["load.traces"])
			}
			got := stateFiles(t, state)
			for f, w := range want {
				if g, ok := got[f]; !ok || !bytes.Equal(g, w) {
					t.Errorf("state file %s differs from the restart with a good image (present: %v)", f, ok)
				}
			}
			if len(got) != len(want) {
				t.Errorf("state directory holds %d files, want %d", len(got), len(want))
			}
			for _, f := range []string{"annotations.txt", "snapshot.bin"} {
				g, err := os.ReadFile(filepath.Join(dir, name, f))
				w, werr := os.ReadFile(filepath.Join(dir, "ref", f))
				if err != nil || werr != nil || !bytes.Equal(g, w) {
					t.Errorf("published %s differs from the restart with a good image (%v, %v)", f, err, werr)
				}
			}
		})
	}
}

func flipBit(data []byte, off int) []byte {
	out := bytes.Clone(data)
	out[off] ^= 1
	return out
}

// TestIngestRefusesChangedBase: a session over a base corpus other than
// the one its state directory was built over is refused with a
// *ckpt.MismatchError before it absorbs or publishes anything — with the
// Builder image in place, which holds the old corpus's graph, and
// without it.
func TestIngestRefusesChangedBase(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	base, batches, _ := splitCorpus(t, p.Traceroutes, dir)
	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	opts := IngestOptions{
		StateDir:        filepath.Join(dir, "state"),
		AnnotationsPath: filepath.Join(dir, "annotations.txt"),
		Run:             Options{Workers: 2, WarnWriter: io.Discard},
	}
	if _, err := Ingest(src, batches[:1], opts); err != nil {
		t.Fatal(err)
	}
	published, err := os.ReadFile(opts.AnnotationsPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// One more copy of the first trace: a base corpus that still parses.
	first := data[:bytes.IndexByte(data, '\n')+1]
	if err := os.WriteFile(base, append(data, first...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, withImage := range []bool{true, false} {
		if !withImage {
			if err := os.Remove(filepath.Join(opts.StateDir, imageName)); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Ingest(src, batches[1:], opts)
		var mm *ckpt.MismatchError
		if !errors.As(err, &mm) || mm.Field != "inputs" {
			t.Errorf("image present %v: changed base corpus gave %v, want an inputs *ckpt.MismatchError", withImage, err)
		}
		if got, err := os.ReadFile(opts.AnnotationsPath); err != nil || !bytes.Equal(got, published) {
			t.Errorf("image present %v: the refused session changed the published annotations (%v)", withImage, err)
		}
	}
}

// TestIngestRefusals covers the session-level guard rails: a missing
// state directory, a missing base corpus, and provenance (ingest
// publishes no provenance artifact) are refused up front.
func TestIngestRefusals(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	src := topoSources(p)
	if _, err := Ingest(src, nil, IngestOptions{}); err == nil ||
		!strings.Contains(err.Error(), "StateDir") {
		t.Errorf("missing StateDir: %v", err)
	}
	if _, err := Ingest(Sources{}, nil, IngestOptions{StateDir: t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "traceroute") {
		t.Errorf("missing base corpus: %v", err)
	}
	if _, err := Ingest(src, nil, IngestOptions{
		StateDir: t.TempDir(),
		Run:      Options{Provenance: true},
	}); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Errorf("provenance under ingest: %v", err)
	}
}

// TestCancelledReadIsNotQuarantined: a batch read that fails in a
// cancelled session neither retries nor quarantines — the session stops
// as interrupted, whether the read was an arriving batch's or the
// durable copy a pending intent redoes from, and the intent stays
// pending for the next session.
func TestCancelledReadIsNotQuarantined(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		pending int // intents left for the next session
		read    func(ing *ingester, missing string) error
	}{
		{"arriving batch", 0, func(ing *ingester, missing string) error { return ing.offerBatch(missing) }},
		{"pending intent", 1, func(ing *ingester, _ string) error {
			if err := ing.store.Intent(7, "b1.jsonl", 1); err != nil {
				t.Fatal(err)
			}
			return ing.resolvePending(0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := delta.Open(filepath.Join(dir, "state"))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			rec := obs.New()
			ing := &ingester{ctx: ctx, opts: &IngestOptions{}, rec: rec, warnw: io.Discard, store: store, out: &IngestResult{}}
			if err := tc.read(ing, filepath.Join(dir, "missing.jsonl")); !errors.Is(err, errInterrupted) {
				t.Errorf("read in a cancelled session: %v, want errInterrupted", err)
			}
			if q := store.Quarantined(); len(q) != 0 || ing.out.Quarantined != 0 {
				t.Errorf("quarantined %v (%d outcomes) on a cancelled read", q, ing.out.Quarantined)
			}
			if n := rec.Counter("ingest.retried").Value(); n != 0 {
				t.Errorf("ingest.retried = %d after cancellation, want 0", n)
			}
			if p := store.Pending(); len(p) != tc.pending {
				t.Errorf("pending intents %v, want %d", p, tc.pending)
			}
		})
	}
}
