package bdrmapit

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/itdk"
	"repro/internal/obs"
	"repro/internal/traceroute"
	"repro/simnet"
)

// readSlice reads one traceroute archive into memory through the
// package's public readers — the way every run did before the feed.
func readSlice(t *testing.T, path string) []*traceroute.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []*traceroute.Trace
	collect := func(tr *traceroute.Trace) error { out = append(out, tr); return nil }
	if _, err := traceroute.Read(path, f, collect); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeSplit writes traces into 1–5 files cut at random places, each
// JSONL or .bin at random, and returns their paths in corpus order.
func writeSplit(t *testing.T, dir string, traces []*traceroute.Trace, rng *rand.Rand) []string {
	t.Helper()
	cuts := []int{0, len(traces)}
	for n := rng.Intn(5); n > 0; n-- {
		cuts = append(cuts, rng.Intn(len(traces)+1)) // a repeated cut is an empty file
	}
	sort.Ints(cuts)
	var paths []string
	for i := 0; i+1 < len(cuts); i++ {
		ext := ".jsonl"
		if rng.Intn(2) == 0 {
			ext = ".bin"
		}
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("part%d%s", i, ext)))
		writeTraces(t, paths[i], traces[cuts[i]:cuts[i+1]])
	}
	return paths
}

// writeTraces writes a traceroute archive in the encoding its extension
// names.
func writeTraces(t *testing.T, path string, traces []*traceroute.Trace) {
	t.Helper()
	err := ckpt.AtomicWrite(path, func(w io.Writer) error {
		jw := traceroute.NewJSONLWriter(w)
		write, flush := jw.Write, jw.Flush
		if filepath.Ext(path) == ".bin" {
			bw := traceroute.NewBinaryWriter(w)
			write, flush = bw.Write, bw.Flush
		}
		for _, tr := range traces {
			if err := write(tr); err != nil {
				return err
			}
		}
		return flush()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// artifacts renders everything a batch run publishes into dir and
// returns it by file name, the run's refine.ckpt included.
func artifacts(t *testing.T, res *Result, ckDir string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := ckpt.AtomicWrite(filepath.Join(dir, "annotations.txt"), res.Annotations); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteITDK(dir); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteServeSnapshot(filepath.Join(dir, "snapshot.bin")); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range []string{"annotations.txt", "itdk.nodes", "itdk.nodes.as", "itdk.links", "snapshot.bin"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	data, err := os.ReadFile(filepath.Join(ckDir, ckpt.FileName))
	if err != nil {
		t.Fatal(err)
	}
	out[ckpt.FileName] = data
	return out
}

// TestStreamedEqualsSlice: however a campaign is cut into files, and in
// whichever encodings, RunContext — which streams them — publishes the
// bytes core.InferContext yields over the same traces held as one slice
// read by the public readers. The campaigns are a few chunks long, so
// chunks straddle file boundaries.
func TestStreamedEqualsSlice(t *testing.T) {
	count := 3
	if testing.Short() {
		count = 1
	}
	check := func(seed uint16, vps uint8) bool {
		n, err := simnet.Generate(simnet.Options{Seed: 1 + int64(seed), NumVPs: 5 + int(vps%6)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := n.WriteDataset(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		src := topoSources(p)
		src.TraceroutePaths = writeSplit(t, t.TempDir(), readSlice(t, p.Traceroutes), rng)

		// The slice side: the split files through the public readers, the
		// context through the per-class loaders, then the slice entry point.
		var traces []*traceroute.Trace
		for _, path := range src.TraceroutePaths {
			traces = append(traces, readSlice(t, path)...)
		}
		ctx := context.Background()
		opts := quiet(Options{})
		l := &loader{ctx: ctx, opts: &opts, warnw: io.Discard}
		in, err := l.loadContext(src)
		if err != nil {
			t.Fatal(err)
		}
		wantCk := t.TempDir()
		resolver := in.resolver
		cres, err := core.InferContext(ctx, traces, resolver, in.aliases, in.rels, core.Options{
			Workers:    1,
			Checkpoint: &ckpt.Config{Dir: wantCk, InputDigest: digestSources(ctx, src)},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := artifacts(t, &Result{res: cres, resolver: resolver, Iterations: cres.Iterations, Converged: cres.Converged}, wantCk)

		ok := true
		for _, workers := range []int{1, 4} {
			ckDir := t.TempDir()
			res, err := RunContext(ctx, src, quiet(Options{Workers: workers, CheckpointDir: ckDir}))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Report.Counters["load.traces"]; got != int64(len(traces)) {
				t.Errorf("seed %d: load.traces = %d, want %d", seed, got, len(traces))
				ok = false
			}
			for name, data := range artifacts(t, res, ckDir) {
				if !bytes.Equal(data, want[name]) {
					t.Errorf("seed %d, %d traces in %v, workers %d: %s differs from the slice run's",
						seed, len(traces), src.TraceroutePaths, workers, name)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

// TestFeedHoldsAFewChunks: while nothing is withheld, the traces decoded
// and not yet given up by the consumer never exceed the channel's depth
// plus the chunk being filled and the chunk being added.
func TestFeedHoldsAFewChunks(t *testing.T) {
	const total = 40 * core.TraceBatch
	var produced, consumed atomic.Int64
	tr := &traceroute.Trace{Dst: netip.MustParseAddr("192.0.2.1")}
	source := func(emit func(*traceroute.Trace) error) error {
		for i := 0; i < total; i++ {
			produced.Add(1)
			if err := emit(tr); err != nil {
				return err
			}
		}
		return nil
	}
	opts := quiet(Options{})
	l := &loader{ctx: context.Background(), opts: &opts, warnw: io.Discard}
	h, err := l.open(Sources{}, true, []traceSource{source}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	const limit = (feedDepth + 2) * core.TraceBatch
	chunks := 0
	for it := range h.ch {
		if it.baseDone {
			continue
		}
		chunks++
		if chunks%8 == 0 {
			time.Sleep(2 * time.Millisecond) // let the producer run as far ahead as it can
		}
		if alive := produced.Load() - consumed.Load(); alive > limit {
			t.Fatalf("%d traces decoded and not yet consumed, want at most %d", alive, limit)
		}
		consumed.Add(int64(len(it.traces)))
	}
	if h.prodErr != nil {
		t.Fatal(h.prodErr)
	}
	if consumed.Load() != total || chunks != total/core.TraceBatch {
		t.Fatalf("consumed %d traces in %d chunks, want %d in %d", consumed.Load(), chunks, total, total/core.TraceBatch)
	}
}

// tree renders a report's phase names and nesting on one line, with a
// run of same-named siblings (one "resolve" per chunk) written once.
func tree(phases []obs.PhaseReport) string {
	var parts []string
	for i, p := range phases {
		if i > 0 && phases[i-1].Name == p.Name {
			continue
		}
		s := p.Name
		if len(p.Children) > 0 {
			s += "[" + tree(p.Children) + "]"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// TestPhaseTree pins the names and nesting of a batch run's and an
// ingest session's report. bench/trace.go reads per-layer metrics out
// of these trees by name and by parent; a phase that moved or changed
// its name would silently zero one.
func TestPhaseTree(t *testing.T) {
	const (
		loads = "load-inputs[load-traces load-rib load-rir load-ixp load-relationships load-aliases]"
		build = "construct-graph[resolve finish-graph]"
	)
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	res, err := runTopo(t, p, Options{CheckpointDir: filepath.Join(dir, "ck")})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tree(res.Report.Phases), loads+" digest-inputs "+build+" lasthop refine"; got != want {
		t.Errorf("batch run phases:\n got %s\nwant %s", got, want)
	}
	res, err = runTopo(t, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tree(res.Report.Phases), loads+" "+build+" lasthop refine"; got != want {
		t.Errorf("batch run without a checkpoint directory:\n got %s\nwant %s", got, want)
	}

	base, batches, _ := splitCorpus(t, p.Traceroutes, dir)
	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	iopts := IngestOptions{StateDir: filepath.Join(dir, "state"), Run: quiet(Options{})}
	ing, err := Ingest(src, batches[:2], iopts)
	if err != nil {
		t.Fatal(err)
	}
	batch := "ingest-batch[" + build + " lasthop delta-seed refine]"
	if got, want := tree(ing.Report.Phases), loads+" digest-inputs "+build+" lasthop refine "+batch; got != want {
		t.Errorf("bootstrap + absorb session phases:\n got %s\nwant %s", got, want)
	}
	// A restart replays the Builder image the session before saved, so
	// its graph's resolution is the replay's and its Finish the only
	// construction step.
	ing, err = Ingest(src, batches[2:], iopts)
	if err != nil {
		t.Fatal(err)
	}
	replayed := "replay-image[resolve] construct-graph[finish-graph]"
	if got, want := tree(ing.Report.Phases), loads+" digest-inputs "+replayed+" lasthop refine "+batch; got != want {
		t.Errorf("recover + absorb session phases:\n got %s\nwant %s", got, want)
	}
}

// TestRenderersMatchFmt holds the hand-appended line renderers to the
// fmt verbs they replaced, over the test dataset's run (IPv4 and IPv6
// interfaces) converged and interrupted. Each case wraps the run in a
// Result of its own: a Result renders its annotations once.
func TestRenderersMatchFmt(t *testing.T) {
	run := runFull(t, quiet(Options{}))
	for _, interrupted := range []bool{false, true} {
		run.res.Interrupted = interrupted
		res := newResult(run.res, run.resolver)

		var want bytes.Buffer
		for _, rt := range res.res.Graph.Routers {
			for _, i := range rt.Interfaces {
				fmt.Fprintf(&want, "%s %d %d\n", i.Addr, uint32(rt.Annotation), uint32(i.Annotation))
			}
		}
		if interrupted {
			fmt.Fprintf(&want, "# PARTIAL: run interrupted after %d refinement iteration(s); annotations are the last committed iteration, not a converged map\n", res.Iterations)
		}
		if got := annotationBytes(t, res); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("interrupted=%v: Annotations differs from its fmt rendering", interrupted)
		}

		want.Reset()
		for _, l := range res.InterdomainLinks() {
			fmt.Fprintf(&want, "%d %d %s %s\n", l.NearAS, l.FarAS, l.FarAddr, l.Confidence)
		}
		var got bytes.Buffer
		if err := res.Links(&got); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("interrupted=%v: Links differs from its fmt rendering (%d bytes)", interrupted, want.Len())
		}

		kit := itdk.FromResult(res.res)
		footer := func() {
			if interrupted {
				fmt.Fprintln(&want, "# PARTIAL: run interrupted before convergence; annotations are the last committed refinement iteration")
			}
		}
		endpoint := func(e itdk.Endpoint) string {
			if e.Addr.IsValid() {
				return fmt.Sprintf("N%d:%s", e.NodeID, e.Addr)
			}
			return fmt.Sprintf("N%d", e.NodeID)
		}
		for name, render := range map[string]struct {
			write func(io.Writer) error
			ref   func()
		}{
			"nodes": {kit.WriteNodes, func() {
				fmt.Fprintln(&want, "# ITDK nodes: node N<id>:  <addr> ...")
				for _, n := range kit.Nodes {
					fmt.Fprintf(&want, "node N%d: ", n.ID)
					for _, a := range n.Addrs {
						fmt.Fprintf(&want, " %s", a)
					}
					fmt.Fprintln(&want)
				}
			}},
			"nodes.as": {kit.WriteNodesAS, func() {
				fmt.Fprintln(&want, "# ITDK node AS assignments: node.AS N<id> <asn> <method>")
				for _, a := range kit.Assignments {
					fmt.Fprintf(&want, "node.AS N%d %d %s\n", a.NodeID, uint32(a.AS), a.Method)
				}
			}},
			"links": {kit.WriteLinks, func() {
				fmt.Fprintln(&want, "# ITDK links: link L<id>:  N<id>[:<addr>] N<id>[:<addr>]")
				for _, l := range kit.Links {
					fmt.Fprintf(&want, "link L%d:  %s %s\n", l.ID, endpoint(l.From), endpoint(l.To))
				}
			}},
		} {
			want.Reset()
			render.ref()
			footer()
			got.Reset()
			if err := render.write(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("interrupted=%v: itdk.%s differs from its fmt rendering", interrupted, name)
			}
		}
	}
}

// TestOutputsSideBySide renders every output of one result at the same
// time, the way cmd/bdrmapit publishes them, and requires the bytes of
// one-at-a-time rendering. Run under -race it is also the proof that the
// serializers only read what they share.
func TestOutputsSideBySide(t *testing.T) {
	res := runFull(t, quiet(Options{Provenance: true}))
	render := func(dir string, side bool) map[string][]byte {
		writes := []func() error{
			func() error { return ckpt.AtomicWrite(filepath.Join(dir, "annotations.txt"), res.Annotations) },
			func() error { return ckpt.AtomicWrite(filepath.Join(dir, "links.txt"), res.Links) },
			func() error { return res.WriteITDK(dir) },
			func() error { return res.WriteProvenance(filepath.Join(dir, "run.prov")) },
			func() error { return res.WriteServeSnapshot(filepath.Join(dir, "snapshot.bin")) },
		}
		var errs []error
		if side {
			errs = ckpt.Concurrently(writes...)
		} else {
			for _, w := range writes {
				errs = append(errs, w())
			}
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[string][]byte)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	// Side by side first: the interdomain-link list is then first asked
	// for by several writers at once.
	got, want := render(t.TempDir(), true), render(t.TempDir(), false)
	if len(got) != 7 || len(got) != len(want) {
		t.Fatalf("%d files side by side, %d one at a time, want 7 each", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s written beside the other outputs differs from %s written alone", name, name)
		}
	}
}

// TestIngestRecoversSixBatches: a restart over the base corpus and six
// absorbed copies — long enough that chunks straddle the boundary
// between the base files and the lineage, and between lineage batches —
// republishes exactly what the absorbing session published, which is
// what a from-scratch run over all seven files publishes. Each restart
// starts from the Builder image the session before it saved.
func TestIngestRecoversSixBatches(t *testing.T) {
	p := writeTopology(t, simnet.Options{Seed: 7, NumVPs: 6})
	dir := t.TempDir()
	all := readSlice(t, p.Traceroutes)
	if len(all) <= core.TraceBatch {
		t.Fatalf("campaign of %d traces does not fill a chunk", len(all))
	}
	cut := core.TraceBatch - 700
	step := (len(all) - cut + 5) / 6
	var files []string
	for lo := cut; lo < len(all); lo += step {
		files = append(files, filepath.Join(dir, fmt.Sprintf("batch%d.jsonl", len(files)+1)))
		writeTraces(t, files[len(files)-1], all[lo:min(lo+step, len(all))])
	}
	if len(files) != 6 {
		t.Fatalf("split into %d batches, want 6", len(files))
	}
	base := filepath.Join(dir, "base.bin")
	writeTraces(t, base, all[:cut])

	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	opts := IngestOptions{
		StateDir:        filepath.Join(dir, "state"),
		AnnotationsPath: filepath.Join(dir, "annotations.txt"),
		SnapshotPath:    filepath.Join(dir, "snapshot.bin"),
		Run:             quiet(Options{Workers: 2}),
	}
	published := func() (ann, snap []byte) {
		t.Helper()
		ann, err := os.ReadFile(opts.AnnotationsPath)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = os.ReadFile(opts.SnapshotPath)
		if err != nil {
			t.Fatal(err)
		}
		return ann, snap
	}
	// Two sessions absorb the six. The second starts by recovering base +
	// five copies from the first's image, and has the equivalence oracle
	// hold that graph to the streamed rebuild and the merged corpus, plus
	// the sixth batch, to a from-scratch build.
	for k, offer := range [][]string{files[:5], files[5:]} {
		out, err := Ingest(src, offer, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Absorbed != len(offer) {
			t.Fatalf("absorbed %d batches, want %d", out.Absorbed, len(offer))
		}
		if loaded := out.Report.Counters["ingest.image_loaded"]; loaded != int64(k) {
			t.Fatalf("session %d loaded the builder image %d time(s), want %d", k+1, loaded, k)
		}
		opts.VerifyDelta = true
	}
	absorbedAnn, absorbedSnap := published()
	for _, path := range []string{opts.AnnotationsPath, opts.SnapshotPath} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	// The restart streams no trace: the image covers all six batches.
	opts.VerifyDelta = false
	out, err := Ingest(src, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := out.Report.Counters; c["ingest.image_loaded"] != 1 || c["load.traces"] != 0 || c["graph.traces"] != int64(len(all)) {
		t.Errorf("restart: image loaded %d time(s), %d traces streamed, graph of %d traces; want 1, 0, %d",
			c["ingest.image_loaded"], c["load.traces"], c["graph.traces"], len(all))
	}
	recoveredAnn, recoveredSnap := published()
	if !bytes.Equal(recoveredAnn, absorbedAnn) || !bytes.Equal(recoveredSnap, absorbedSnap) {
		t.Error("recovery published different bytes than the session that absorbed the batches")
	}

	scratch := topoSources(p)
	scratch.TraceroutePaths = append([]string{base}, files...)
	res, err := Run(scratch, quiet(Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(annotationBytes(t, res), recoveredAnn) {
		t.Error("recovered annotations differ from a from-scratch run over the base file and the six batches")
	}
	snapPath := filepath.Join(dir, "scratch.snapshot.bin")
	if err := res.WriteServeSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if snap, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(snap, recoveredSnap) {
		t.Errorf("recovered snapshot differs from the from-scratch run's (read error: %v)", err)
	}
}
