package bdrmapit

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ip2as"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/traceroute"
)

// IngestOptions configures a continuous-ingest session: where the
// durable intake state lives and what gets published after each absorbed
// batch.
type IngestOptions struct {
	// StateDir is the intake store root: the refinement checkpoint,
	// the write-ahead intake journal, durable copies of absorbed
	// batches, the quarantine directory and the Builder image all live
	// under it. It is the single directory an operator backs up or
	// inspects.
	StateDir string
	// AnnotationsPath, when set, is republished atomically after the
	// bootstrap run and after every absorbed batch.
	AnnotationsPath string
	// SnapshotPath, when set, gets a serving snapshot (cmd/bdrmapitd
	// format) published the same way.
	SnapshotPath string
	// ReloadAddr, when set, is a bdrmapitd address whose /-/reload is
	// triggered after each snapshot publish (with bounded, jittered
	// retry on 409/503). A daemon that stays unreachable is a warning,
	// not a failed batch: the published files are already durable.
	ReloadAddr string
	// VerifyDelta turns on the equivalence oracle: after each absorbed
	// batch, and once after start-up when the session recovered a
	// checkpoint, re-read the merged corpus — the base files and the
	// absorbed copies of the lineage — and re-run inference from scratch
	// at workers 1, 4, and 8, requiring the session's graph digest and
	// byte-identical annotations. A divergence is a hard error before the
	// batch is marked applied.
	VerifyDelta bool
	// MaxBadRecords is the per-batch malformed-line budget; a batch
	// exceeding it is quarantined (delta.RefusalBudget).
	MaxBadRecords int
	// Run carries the inference options (workers, heuristic ablations,
	// recorder, error budgets). CheckpointDir and Resume are ignored —
	// the store owns checkpoint placement — and Provenance is refused:
	// ingest publishes no provenance artifact.
	Run Options
}

// BatchOutcome reports what happened to one offered batch.
type BatchOutcome struct {
	Name string
	FP   uint64
	// Decision is the intake decision ("absorb", "resume-apply",
	// "skip", "skip-quarantined", "poison").
	Decision string
	// Quarantined is true when the batch ended up in quarantine;
	// Reason carries the refusal class.
	Quarantined bool
	Reason      string
	// Traces is the batch's parsed trace count (absorbed batches).
	Traces int
	// Iterations is the number of refinement iterations the absorption
	// ran (0 for skips and quarantines).
	Iterations int
}

// IngestResult summarizes a continuous-ingest session.
type IngestResult struct {
	Outcomes []BatchOutcome
	// Absorbed / Skipped / Quarantined tally the outcomes.
	Absorbed, Skipped, Quarantined int
	// Interrupted is true when the session's context was cancelled
	// mid-apply; the in-flight batch's journal intent is pending and a
	// restart redoes it.
	Interrupted bool
	// Report is the session's telemetry snapshot.
	Report *obs.Report
}

// ingestState is the session's rolling inference state: the run that
// committed the converged checkpoint (res.res.Checkpoint) the next
// batch's delta run uses as its base, with the annotation rendering it
// published. The graph itself lives in the session's Builder, which
// grows it batch by batch.
type ingestState struct {
	lineage []ckpt.BatchInfo
	res     *Result
}

// errInterrupted is the internal signal that a batch apply observed
// context cancellation; the session stops cleanly with Interrupted set.
var errInterrupted = errors.New("ingest interrupted")

// Ingest is IngestContext with a background context.
func Ingest(src Sources, batchPaths []string, opts IngestOptions) (*IngestResult, error) {
	return IngestContext(context.Background(), src, batchPaths, opts)
}

// IngestContext runs one continuous-ingest session: bootstrap or
// crash-recover the refinement state under opts.StateDir, then absorb
// each batch in batchPaths in order. Every state transition is
// journaled before it takes effect, so a SIGKILL at any byte boundary
// resumes without loss or double-apply: re-offering the same batches
// after a crash is always safe. Poison batches are quarantined with a
// typed reason and never block the batches behind them.
//
// src names the base corpus (the traces of the original full run) and
// the non-trace context (RIBs, RIR, IXP, relationships, aliases). The
// base sources must not change between sessions against the same
// StateDir; a changed base is refused with a *ckpt.MismatchError.
func IngestContext(ctx context.Context, src Sources, batchPaths []string, opts IngestOptions) (*IngestResult, error) {
	if len(src.TraceroutePaths) == 0 {
		return nil, fmt.Errorf("bdrmapit: ingest: no base traceroute inputs")
	}
	if opts.StateDir == "" {
		return nil, fmt.Errorf("bdrmapit: ingest: StateDir is required")
	}
	if opts.Run.Provenance {
		return nil, fmt.Errorf("bdrmapit: ingest: provenance is not supported: ingest publishes no provenance artifact")
	}
	rec := opts.Run.Recorder
	if rec == nil {
		rec = obs.New()
		opts.Run.Recorder = rec
	}
	warnw := opts.Run.WarnWriter
	if warnw == nil {
		warnw = os.Stderr
	}

	store, err := delta.Open(opts.StateDir)
	if err != nil {
		return nil, fmt.Errorf("bdrmapit: ingest: %w", err)
	}
	defer store.Close()

	ing := &ingester{
		ctx: ctx, opts: &opts, rec: rec, warnw: warnw,
		src: src, store: store, out: &IngestResult{},
	}
	err = ing.run(batchPaths)
	ing.out.Report = rec.Report()
	if errors.Is(err, errInterrupted) {
		ing.out.Interrupted = true
		return ing.out, nil
	}
	if err != nil {
		return nil, err
	}
	return ing.out, nil
}

// ingester carries one session's wiring so the phases below stay
// readable.
type ingester struct {
	ctx   context.Context
	opts  *IngestOptions
	rec   *obs.Recorder
	warnw io.Writer
	// src is the base corpus and the non-trace inputs.
	src   Sources
	store *delta.Store
	out   *IngestResult

	resolver *ip2as.Resolver
	rels     core.RelationshipOracle
	copts    core.Options
	baseDig  uint64
	// builder holds the session's one graph: rebuilt at start-up from the
	// Builder image and the corpus the image does not cover, appended to
	// by every absorb.
	builder *core.Builder
	// imaged is how many lineage batches the image on disk covers (-1:
	// there is no usable one).
	imaged int
	// prefixes is the resolver's prefix table in serving-snapshot order.
	// The resolver is constant for the session, so it is flattened and
	// sorted once.
	prefixes []serve.Prefix
	cur      ingestState
}

func (ing *ingester) run(batchPaths []string) error {
	if err := ing.bootstrapOrRecover(); err != nil {
		return err
	}
	// Republish unconditionally: the publish step is atomic and
	// idempotent, and doing it here closes the crash window between a
	// committed checkpoint and its published artifacts.
	annDigest, err := ing.publish(ing.cur.res)
	if err != nil {
		return err
	}
	if err := ing.resolvePending(annDigest); err != nil {
		return err
	}
	for _, path := range batchPaths {
		if err := ing.offerBatch(path); err != nil {
			return err
		}
	}
	ing.saveImage()
	return nil
}

// imageName is the Builder image's file under the StateDir.
const imageName = "builder.img"

// bootstrapOrRecover establishes the session's base state: a full run
// over the base corpus when the store has no checkpoint yet, or a
// reconstruction of the checkpointed merged corpus (base + absorbed
// lineage batches) after a restart, which resumes the state it loaded: to
// convergence if a crash left it unconverged, and writing nothing if it
// converged, so this path is cheap in the steady state.
//
// The session's Builder starts from the last session's image when there
// is a usable one (loadImage) and empty otherwise, and is fed what the
// image does not cover: the base trace files and every lineage batch, or
// only the lineage batches absorbed after the image was written. The
// inputs load exactly as RunContext loads them, through the same
// loader.build: the same head, the same error budgets, the same
// degradations. The input digest reads every base file either way, and
// ResumeContext refuses a checkpoint of other inputs, image or not. The
// trace producer carries on from the base files into the absorbed copies
// of the lineage batches, in lineage order, so reading and validating
// them overlaps the build like the rest of the corpus. With VerifyDelta
// set, a recovered state is held to the from-scratch run before anything
// is absorbed onto it.
func (ing *ingester) bootstrapOrRecover() error {
	st, err := ckpt.Load(ing.store.Dir)
	if err != nil && !errors.Is(err, ckpt.ErrNoCheckpoint) {
		return fmt.Errorf("bdrmapit: ingest: %w", err)
	}
	var lineage []ckpt.BatchInfo
	if st != nil {
		lineage = st.Lineage
	} else {
		ing.rec.Logf("ingest: no checkpoint under %s; bootstrapping from the base corpus", ing.store.Dir)
	}
	img := ing.loadImage(st)
	covered := 0
	if img != nil {
		covered = len(img.Lineage)
	}

	// The session's graph is built once, on the Builder every later absorb
	// appends to.
	l := ing.loader(&ing.opts.Run, ing.rec, ing.warnw)
	h, b, g, err := l.build(ing.src, img, ing.absorbedCopies(lineage[covered:]), true)
	if err != nil {
		return err
	}
	defer h.close()
	ing.resolver = h.in.resolver
	ing.rels = h.in.rels
	ing.copts = ing.opts.Run.internal()
	ing.builder = b
	ing.baseDig = h.digest()

	ropts := ing.copts
	ropts.Checkpoint = ing.ckptConfig(lineage)
	var res *core.Result
	if st != nil {
		if res, err = core.ResumeContext(ing.ctx, g, st, ing.rels, ropts); err != nil {
			return fmt.Errorf("bdrmapit: ingest: restoring checkpoint: %w", err)
		}
	} else if res, err = core.RunContext(ing.ctx, g, ing.rels, ropts); err != nil {
		return fmt.Errorf("bdrmapit: ingest: bootstrap: %w", err)
	}
	if res.Interrupted {
		return errInterrupted
	}
	r := newResult(res, ing.resolver)
	if st != nil && ing.opts.VerifyDelta {
		if err := ing.verifyDelta(lineage, r); err != nil {
			return fmt.Errorf("bdrmapit: ingest: recovered state: %w", err)
		}
	}
	ing.cur.lineage, ing.cur.res = lineage, r
	return nil
}

// loader returns a loader of the session's inputs under opts, recording
// into rec and warning on warnw.
func (ing *ingester) loader(opts *Options, rec *obs.Recorder, warnw io.Writer) *loader {
	return &loader{ctx: ing.ctx, opts: opts, rec: rec, warnw: warnw, who: "bdrmapit: ingest", corpus: "base"}
}

// loadImage returns the Builder image under the store if it can stand in
// for the corpus it was built from: intact, and bound to st, the
// checkpoint the session resumes — saved under the same options, from
// the same base inputs, over a prefix of st's lineage. A missing image is
// nil; an unusable one is nil with a warning, and the session's end
// rewrites it.
func (ing *ingester) loadImage(st *ckpt.State) *core.Image {
	ing.imaged = -1
	data, err := os.ReadFile(filepath.Join(ing.store.Dir, imageName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	var img *core.Image
	if err == nil {
		img, err = core.DecodeImage(data)
	}
	switch {
	case err != nil:
	case st == nil:
		err = errors.New("there is no checkpoint to resume")
	case img.OptionsFP != st.OptionsFP:
		err = fmt.Errorf("saved under options %016x, the checkpoint under %016x", img.OptionsFP, st.OptionsFP)
	case len(img.Lineage) > len(st.Lineage) || !slices.Equal(img.Lineage, st.Lineage[:len(img.Lineage)]):
		err = fmt.Errorf("its %d lineage batches are not where the checkpoint's %d begin", len(img.Lineage), len(st.Lineage))
	case ingestDigest(img.BaseDigest, st.Lineage) != st.InputDigest:
		err = fmt.Errorf("saved over base inputs %016x, which the checkpoint's are not", img.BaseDigest)
	}
	if err != nil {
		ing.rec.Counter("ingest.image_fallback").Inc()
		ing.rec.Warnf("ingest: builder image unusable, streaming the corpus: %v", err)
		fmt.Fprintf(ing.warnw, "bdrmapit: WARNING: ingest: builder image unusable, streaming the corpus: %v\n", err)
		return nil
	}
	ing.rec.Counter("ingest.image_loaded").Inc()
	ing.rec.Logf("ingest: builder image holds %d traces: the base corpus and %d of %d lineage batches", img.Traces, len(img.Lineage), len(st.Lineage))
	ing.imaged = len(img.Lineage)
	return img
}

// saveImage rewrites the Builder image at the end of a session unless it
// covers the committed lineage already: one write a session at most. The
// image only saves the next session work, so a failed write is a warning.
func (ing *ingester) saveImage() {
	if ing.imaged == len(ing.cur.lineage) {
		return
	}
	bind := core.ImageBinding{OptionsFP: ing.cur.res.res.Checkpoint.OptionsFP, BaseDigest: ing.baseDig, Lineage: ing.cur.lineage}
	if err := ckpt.AtomicWrite(filepath.Join(ing.store.Dir, imageName), func(w io.Writer) error {
		return ing.builder.WriteImage(w, bind)
	}); err != nil {
		ing.rec.Warnf("ingest: builder image not saved (the next session streams the corpus): %v", err)
		fmt.Fprintf(ing.warnw, "bdrmapit: WARNING: ingest: builder image not saved (the next session streams the corpus): %v\n", err)
		return
	}
	ing.imaged = len(ing.cur.lineage)
}

// absorbedCopy is the trace source of one lineage batch: its durable
// copy under the store, read and validated as at intake.
func (ing *ingester) absorbedCopy(b ckpt.BatchInfo) traceSource {
	return func(emit func(*traceroute.Trace) error) error {
		data, err := ing.readWithRetry(ing.store.AbsorbedPath(b.FP), b.FP)
		if err != nil {
			return fmt.Errorf("bdrmapit: ingest: absorbed copy for lineage batch %s (fp %016x) unreadable: %w", b.Name, b.FP, err)
		}
		traces, _, err := delta.ValidateBatch(b.Name, b.FP, data, ing.opts.MaxBadRecords)
		if err != nil {
			return fmt.Errorf("bdrmapit: ingest: absorbed copy for lineage batch %s no longer validates: %w", b.Name, err)
		}
		for _, t := range traces {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// absorbedCopies is the trace sources of lineage, in order.
func (ing *ingester) absorbedCopies(lineage []ckpt.BatchInfo) []traceSource {
	var srcs []traceSource
	for _, b := range lineage {
		srcs = append(srcs, ing.absorbedCopy(b))
	}
	return srcs
}

// resolvePending finishes what a crash started: journal intents with
// no terminal record. Two cases, told apart by the checkpoint lineage:
// the apply committed but the applied record didn't (finish the
// journal), or the apply never committed (redo it from the absorbed
// durable copy).
func (ing *ingester) resolvePending(annDigest uint64) error {
	for _, p := range ing.store.Pending() {
		if lineageHas(ing.cur.lineage, p.FP) {
			ing.rec.Logf("ingest: batch %s (fp %016x) was applied before the crash; completing its journal record", p.Name, p.FP)
			if err := ing.store.MarkApplied(p.FP, p.Name, annDigest); err != nil {
				return err
			}
			ing.recordOutcome(BatchOutcome{Name: p.Name, FP: p.FP, Decision: delta.ResumeApply.String(), Traces: p.Traces})
			continue
		}
		data, err := ing.readWithRetry(ing.store.AbsorbedPath(p.FP), p.FP)
		if err != nil {
			// The durable copy is gone: the batch cannot be redone, and
			// leaving the intent pending would wedge every restart.
			ref := &delta.Refusal{Class: delta.RefusalIO, Batch: p.Name, FP: p.FP, Err: err}
			if qerr := ing.quarantine(ref, nil); qerr != nil {
				return qerr
			}
			continue
		}
		traces, _, err := delta.ValidateBatch(p.Name, p.FP, data, ing.opts.MaxBadRecords)
		if err != nil {
			var ref *delta.Refusal
			if errors.As(err, &ref) {
				if qerr := ing.quarantine(ref, data); qerr != nil {
					return qerr
				}
				continue
			}
			return err
		}
		ing.rec.Logf("ingest: redoing crash-interrupted apply of batch %s (fp %016x)", p.Name, p.FP)
		if err := ing.applyBatch(p.Name, p.FP, traces, delta.ResumeApply); err != nil {
			return err
		}
	}
	return nil
}

// offerBatch runs the intake state machine for one arriving batch
// file.
func (ing *ingester) offerBatch(path string) error {
	name := filepath.Base(path)
	data, err := ing.readWithRetry(path, fnvString(name))
	if err != nil {
		// The batch bytes never became readable; quarantine by a
		// name-derived placeholder fingerprint (there is no content to
		// fingerprint) so the refusal is durable and visible.
		ref := &delta.Refusal{Class: delta.RefusalIO, Batch: name, FP: fnvString(name), Err: err}
		return ing.quarantine(ref, nil)
	}
	fp := delta.Fingerprint(data)
	decision := ing.store.Decide(name, fp)
	switch decision {
	case delta.Skip, delta.SkipQuarantined:
		ing.rec.Counter("ingest.skipped").Inc()
		ing.rec.Logf("ingest: batch %s (fp %016x): %s", name, fp, decision)
		st, _ := ing.store.State(fp)
		ing.out.Skipped++
		ing.out.Outcomes = append(ing.out.Outcomes, BatchOutcome{
			Name: name, FP: fp, Decision: decision.String(),
			Quarantined: st.Status == delta.StatusQuarantined, Reason: st.Reason,
		})
		return nil
	case delta.Poison:
		// A replay is journaled under a name-derived fingerprint: the
		// content fingerprint belongs to the batch that legitimately
		// owns it, and that batch's terminal state must not be
		// disturbed by the impostor's quarantine record.
		st, _ := ing.store.State(fp)
		pfp := fnvString(name)
		if prev, ok := ing.store.State(pfp); ok && prev.Status == delta.StatusQuarantined && prev.Name == name {
			ing.rec.Counter("ingest.skipped").Inc()
			ing.rec.Logf("ingest: batch %s (fp %016x): %s", name, fp, delta.SkipQuarantined)
			ing.out.Skipped++
			ing.out.Outcomes = append(ing.out.Outcomes, BatchOutcome{
				Name: name, FP: pfp, Decision: delta.SkipQuarantined.String(),
				Quarantined: true, Reason: prev.Reason,
			})
			return nil
		}
		ref := &delta.Refusal{
			Class: delta.RefusalReplay, Batch: name, FP: pfp,
			Err: fmt.Errorf("content (fp %016x) already journaled as %q (%s)", fp, st.Name, st.Status),
		}
		return ing.quarantine(ref, data)
	}

	traces, stats, err := delta.ValidateBatch(name, fp, data, ing.opts.MaxBadRecords)
	if err != nil {
		var ref *delta.Refusal
		if errors.As(err, &ref) {
			return ing.quarantine(ref, data)
		}
		return err
	}
	if decision == delta.Absorb {
		// Durable copy first, then the intent: a pending intent always
		// finds its bytes on restart.
		if err := ing.store.SaveAbsorbed(fp, data); err != nil {
			return err
		}
		if err := ing.store.Intent(fp, name, stats.Traces); err != nil {
			return err
		}
	}
	return ing.applyBatch(name, fp, traces, decision)
}

// applyBatch absorbs a validated batch: append it to the session's
// graph, delta-refine against the current base state, optionally prove
// delta≡full, publish the artifacts, and complete the journal. Any error
// before the applied record leaves the intent pending — the crash-
// recovery contract — so a restart redoes the apply instead of losing
// it. And every error out of here ends the session (each caller returns
// it straight up to IngestContext), which is what makes appending in
// place safe: a graph that holds a batch whose apply failed, or half of
// one, is never used again — the restart rebuilds from the durable
// copies.
func (ing *ingester) applyBatch(name string, fp uint64, batchTraces []*traceroute.Trace, decision delta.Decision) error {
	phase := ing.rec.Phase("ingest-batch")
	defer phase.End()
	phase.Note("traces", int64(len(batchTraces)))

	newLineage := append(append([]ckpt.BatchInfo{}, ing.cur.lineage...),
		ckpt.BatchInfo{FP: fp, Name: name, Traces: len(batchTraces)})

	dopts := ing.copts
	dopts.Checkpoint = ing.ckptConfig(newLineage)
	g, err := ing.builder.BuildContext(ing.ctx, batchTraces, ing.rels)
	if err != nil {
		return fmt.Errorf("bdrmapit: ingest: %w", err)
	}
	res, err := core.RunDeltaContext(ing.ctx, g, ing.builder.LastAppend(), ing.cur.res.res.Checkpoint, ing.rels, dopts)
	if err != nil {
		return fmt.Errorf("bdrmapit: ingest: absorbing %s: %w", name, err)
	}
	if res.Interrupted {
		return errInterrupted
	}
	phase.Note("iterations", int64(res.Iterations))

	r := newResult(res, ing.resolver)
	if ing.opts.VerifyDelta {
		if err := ing.verifyDelta(newLineage, r); err != nil {
			return fmt.Errorf("bdrmapit: ingest: batch %s: %w", name, err)
		}
	}
	annDigest, err := ing.publish(r)
	if err != nil {
		return err
	}
	ing.cur.lineage, ing.cur.res = newLineage, r
	if err := ing.store.MarkApplied(fp, name, annDigest); err != nil {
		return err
	}
	ing.rec.Counter("ingest.absorbed").Inc()
	ing.rec.Histogram("ingest.batch_traces").Observe(int64(len(batchTraces)))
	ing.rec.Logf("ingest: absorbed batch %s (fp %016x): %d traces, %d iteration(s)",
		name, fp, len(batchTraces), res.Iterations)
	ing.out.Absorbed++
	ing.out.Outcomes = append(ing.out.Outcomes, BatchOutcome{
		Name: name, FP: fp, Decision: decision.String(),
		Traces: len(batchTraces), Iterations: res.Iterations,
	})
	return nil
}

// verifyDelta is the equivalence oracle: res, the session's state over
// the base corpus and lineage, must be what a run from scratch makes of
// them at workers 1, 4, and 8 — the same graph digest and byte-identical
// annotations. Each of the three reads the corpus again, the base files
// and then the absorbed copy of every lineage batch, the way recovery
// does, onto a Builder of its own; it records nothing and warns nowhere,
// so the session's report is its own work. It is expensive by design —
// the point is proof, not speed — and any divergence fails the session
// before the state is built on.
func (ing *ingester) verifyDelta(lineage []ckpt.BatchInfo, r *Result) error {
	_, want := r.rendering()
	res := r.res
	for _, workers := range []int{1, 4, 8} {
		run := ing.opts.Run
		run.Workers, run.Recorder = workers, nil
		h, _, g, err := ing.loader(&run, nil, io.Discard).build(ing.src, nil, ing.absorbedCopies(lineage), false)
		if err != nil {
			if ing.ctx.Err() != nil {
				return errInterrupted
			}
			return err
		}
		h.close()
		if g.Digest() != res.Graph.Digest() {
			return fmt.Errorf("delta≡full equivalence violated at workers=%d: graph digest %016x, from-scratch %016x",
				workers, res.Graph.Digest(), g.Digest())
		}
		vres, err := core.RunContext(ing.ctx, g, h.in.rels, run.internal())
		if err != nil {
			return err
		}
		if vres.Interrupted {
			return errInterrupted
		}
		_, got := newResult(vres, nil).rendering()
		if got != want {
			return fmt.Errorf("delta≡full equivalence violated at workers=%d: delta annotations digest %016x, from-scratch %016x (iterations %d vs %d)",
				workers, want, got, res.Iterations, vres.Iterations)
		}
	}
	ing.rec.Logf("ingest: verify-delta: byte-identical to from-scratch merged run at workers 1, 4, 8")
	return nil
}

// publish renders the committed state's artifacts: the annotations
// file, the serving snapshot, and the daemon reload. Files are
// published atomically; the reload retries 409/503 with jittered
// backoff and degrades to a loud warning when the daemon stays
// unreachable (its files are already on disk).
func (ing *ingester) publish(r *Result) (uint64, error) {
	// One rendering feeds the journal's digest, the file and the
	// snapshot's digest.
	ann, annDigest := r.rendering()
	// The two files are independent publishes of the one rendering, so
	// they go out side by side.
	publishAnn := func() error {
		p := ing.opts.AnnotationsPath
		if p == "" {
			return nil
		}
		write := func(w io.Writer) error { _, err := w.Write(ann); return err }
		if err := ckpt.AtomicWrite(p, write); err != nil {
			return fmt.Errorf("bdrmapit: ingest: publishing annotations: %w", err)
		}
		return nil
	}
	publishSnap := func() error {
		p := ing.opts.SnapshotPath
		if p == "" {
			return nil
		}
		if ing.prefixes == nil {
			ing.prefixes = sortedPrefixes(ing.resolver)
		}
		snap, err := r.serveSnapshot(ing.prefixes)
		if err == nil {
			err = serve.WriteFile(p, snap)
		}
		if err != nil {
			return fmt.Errorf("bdrmapit: ingest: publishing snapshot: %w", err)
		}
		return nil
	}
	for _, err := range ckpt.Concurrently(publishAnn, publishSnap) {
		if err != nil {
			return 0, err
		}
	}
	if addr := ing.opts.ReloadAddr; addr != "" {
		client := &serve.ReloadClient{
			Addr: addr, Seed: annDigest,
			OnRetry: func(attempt int, cause string, backoff time.Duration) {
				ing.rec.Counter("ingest.retried").Inc()
				ing.rec.Logf("ingest: reload attempt %d refused (%s); retrying in %v", attempt, cause, backoff)
			},
		}
		if gen, err := client.Reload(ing.ctx); err != nil {
			ing.rec.Counter("ingest.reload_failed").Inc()
			ing.rec.Warnf("ingest: daemon reload failed (published files are durable): %v", err)
			fmt.Fprintf(ing.warnw, "bdrmapit: WARNING: ingest: daemon reload failed (published files are durable): %v\n", err)
		} else {
			ing.rec.Logf("ingest: daemon reloaded snapshot generation %d", gen)
		}
	}
	return annDigest, nil
}

// quarantine parks a refused batch and accounts it, never failing the
// session for a poison batch: the next batch proceeds. A read the
// session's cancellation cut short is no verdict: it parks nothing and
// stops the session as interrupted.
func (ing *ingester) quarantine(ref *delta.Refusal, data []byte) error {
	if errors.Is(ref.Err, errInterrupted) {
		return errInterrupted
	}
	if err := ing.store.Quarantine(ref, data); err != nil {
		return err
	}
	ing.rec.Counter("ingest.quarantined").Inc()
	ing.rec.Warnf("ingest: %v", ref)
	fmt.Fprintf(ing.warnw, "bdrmapit: WARNING: %v\n", ref)
	ing.out.Quarantined++
	ing.out.Outcomes = append(ing.out.Outcomes, BatchOutcome{
		Name: ref.Batch, FP: ref.FP, Decision: delta.Poison.String(),
		Quarantined: true, Reason: ref.Class.String(),
	})
	return nil
}

func (ing *ingester) recordOutcome(o BatchOutcome) {
	ing.rec.Counter("ingest.absorbed").Inc()
	ing.out.Absorbed++
	ing.out.Outcomes = append(ing.out.Outcomes, o)
}

// readWithRetry reads a file through the bounded-retry envelope,
// counting each retry in ingest.retried. Cancellation ends the retries
// unslept, and a read that failed in a cancelled session returns
// errInterrupted: its failure says nothing about the file.
func (ing *ingester) readWithRetry(path string, seed uint64) ([]byte, error) {
	var data []byte
	r := &retry.Retrier{
		Seed: seed,
		Done: ing.ctx.Err,
		OnRetry: func(attempt int, err error, backoff time.Duration) {
			ing.rec.Counter("ingest.retried").Inc()
			ing.rec.Logf("ingest: read %s attempt %d failed (%v); retrying in %v", path, attempt, err, backoff)
		},
	}
	err := r.Do(func() error {
		var rerr error
		data, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil && ing.ctx.Err() != nil {
		return nil, errInterrupted
	}
	return data, err
}

// ckptConfig builds the checkpoint config for a given lineage: the
// input digest covers the base sources plus every absorbed batch, so a
// checkpoint can never be resumed against a different corpus.
func (ing *ingester) ckptConfig(lineage []ckpt.BatchInfo) *ckpt.Config {
	return &ckpt.Config{
		Dir:         ing.store.Dir,
		InputDigest: ingestDigest(ing.baseDig, lineage),
		Lineage:     lineage,
	}
}

// ingestDigest extends the base-source digest with the absorbed
// lineage, in order: same base + same batches ⇒ same digest.
func ingestDigest(baseDig uint64, lineage []ckpt.BatchInfo) uint64 {
	p := binary.LittleEndian.AppendUint64(nil, baseDig)
	for _, b := range lineage {
		p = binary.LittleEndian.AppendUint64(p, b.FP)
		p = append(append(p, b.Name...), 0)
	}
	return ckpt.Fingerprint(p)
}

func lineageHas(lineage []ckpt.BatchInfo, fp uint64) bool {
	for _, b := range lineage {
		if b.FP == fp {
			return true
		}
	}
	return false
}

func fnvString(s string) uint64 { return ckpt.Fingerprint([]byte(s)) }
