package bdrmapit

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/alias"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ip2as"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/traceroute"
)

// IngestOptions configures a continuous-ingest session: where the
// durable intake state lives, what gets published after each absorbed
// batch, and how hard to fight transient failures before quarantining.
type IngestOptions struct {
	// StateDir is the intake store root: the refinement checkpoint,
	// the write-ahead intake journal, durable copies of absorbed
	// batches, and the quarantine directory all live under it. It is
	// the single directory an operator backs up or inspects.
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
	// batch, re-run inference from scratch on the merged corpus at
	// workers 1, 4, and 8 and require byte-identical annotations. A
	// divergence is a hard error before the batch is marked applied.
	VerifyDelta bool
	// MaxBadRecords is the per-batch malformed-line budget; a batch
	// exceeding it is quarantined (delta.RefusalBudget).
	MaxBadRecords int
	// RetryAttempts / RetryBase / RetryMax tune the bounded
	// jittered-backoff retries around batch reads and daemon reloads
	// (defaults: 4 attempts, 100ms base, 5s cap).
	RetryAttempts int
	RetryBase     time.Duration
	RetryMax      time.Duration
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
// committed the converged checkpoint (res.Checkpoint) the next batch's
// delta run uses as its base. The graph itself lives in the session's
// Builder, which grows it batch by batch.
type ingestState struct {
	// traces is the merged corpus, kept only for the VerifyDelta oracle:
	// a session without it never holds more than the chunks in flight.
	traces  []*traceroute.Trace
	lineage []ckpt.BatchInfo
	res     *core.Result
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
		store: store, out: &IngestResult{},
	}
	err = ing.run(src, batchPaths)
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
	store *delta.Store
	out   *IngestResult

	resolver *ip2as.Resolver
	rels     core.RelationshipOracle
	aliases  *alias.Sets
	copts    core.Options
	baseDig  uint64
	// builder holds the session's one graph: built from the checkpointed
	// corpus at start-up, appended to by every absorb.
	builder *core.Builder
	// prefixes is the resolver's prefix table in serving-snapshot order.
	// The resolver is constant for the session, so it is flattened and
	// sorted once.
	prefixes []serve.Prefix
	cur      ingestState
}

func (ing *ingester) run(src Sources, batchPaths []string) error {
	if err := ing.bootstrapOrRecover(src); err != nil {
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
	return nil
}

// bootstrapOrRecover establishes the session's base state: a full run
// over the base corpus when the store has no checkpoint yet, or a
// reconstruction of the checkpointed merged corpus (base + absorbed
// lineage batches) after a restart, which resumes the state it loaded: to
// convergence if a crash left it unconverged, and writing nothing if it
// converged, so this path is cheap in the steady state.
//
// The non-batch inputs load exactly as RunContext loads them: the same
// head, the same error budgets, the same degradations. On a restart the
// trace producer carries on from the base files into the absorbed copies
// of the lineage batches, in lineage order, so reading and validating
// them overlaps the build like the rest of the corpus.
func (ing *ingester) bootstrapOrRecover(src Sources) error {
	st, err := ckpt.Load(ing.store.Dir)
	recovering := err == nil
	if err != nil && !errors.Is(err, ckpt.ErrNoCheckpoint) {
		return fmt.Errorf("bdrmapit: ingest: %w", err)
	}
	var lineage []ckpt.BatchInfo
	var tail []traceSource
	if recovering {
		lineage = st.Lineage
		for _, b := range lineage {
			tail = append(tail, ing.absorbedCopy(b))
		}
	} else {
		ing.rec.Logf("ingest: no checkpoint under %s; bootstrapping from the base corpus", ing.store.Dir)
	}

	l := &loader{ctx: ing.ctx, opts: &ing.opts.Run, rec: ing.rec, warnw: ing.warnw, who: "bdrmapit: ingest", corpus: "base"}
	h, err := l.open(src, tail, true)
	if err != nil {
		return err
	}
	defer h.close()
	ing.resolver = h.in.resolver
	ing.rels = h.in.rels
	ing.aliases = h.in.aliases
	ing.copts = ing.opts.Run.internal()

	// The session's graph is built from scratch once, on the Builder
	// every later absorb appends to.
	ing.builder = core.NewBuilder(ing.resolver, ing.aliases)
	ing.builder.Workers = ing.copts.Workers
	ing.builder.Rec = ing.rec
	next := h.next
	if ing.opts.VerifyDelta {
		next = func() ([]*traceroute.Trace, error) {
			chunk, err := h.next()
			ing.cur.traces = append(ing.cur.traces, chunk...)
			return chunk, err
		}
	}
	g, err := ing.builder.BuildFrom(ing.ctx, next, ing.rels)
	if err != nil {
		if h.failed != nil {
			return h.failed
		}
		return fmt.Errorf("bdrmapit: ingest: %w", err)
	}
	ing.baseDig = h.digest()

	ropts := ing.copts
	ropts.Checkpoint = ing.ckptConfig(lineage)
	var res *core.Result
	if recovering {
		if res, err = core.ResumeContext(ing.ctx, g, st, ing.rels, ropts); err != nil {
			return fmt.Errorf("bdrmapit: ingest: restoring checkpoint: %w", err)
		}
	} else if res, err = core.RunContext(ing.ctx, g, ing.rels, ropts); err != nil {
		return fmt.Errorf("bdrmapit: ingest: bootstrap: %w", err)
	}
	if res.Interrupted {
		return errInterrupted
	}
	ing.cur.lineage, ing.cur.res = lineage, res
	return nil
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
	res, err := core.RunDeltaContext(ing.ctx, g, ing.builder.LastAppend(), ing.cur.res.Checkpoint, ing.rels, dopts)
	if err != nil {
		return fmt.Errorf("bdrmapit: ingest: absorbing %s: %w", name, err)
	}
	if res.Interrupted {
		return errInterrupted
	}
	phase.Note("iterations", int64(res.Iterations))

	if ing.opts.VerifyDelta {
		ing.cur.traces = append(ing.cur.traces, batchTraces...)
		if err := ing.verifyDelta(ing.cur.traces, res); err != nil {
			return fmt.Errorf("bdrmapit: ingest: batch %s: %w", name, err)
		}
	}
	annDigest, err := ing.publish(res)
	if err != nil {
		return err
	}
	ing.cur.lineage, ing.cur.res = newLineage, res
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

// verifyDelta is the equivalence oracle: a from-scratch run over the
// merged corpus at workers 1, 4, and 8 must render byte-identical
// annotations to the delta result. It is expensive by design — the
// point is proof, not speed — and any divergence fails the batch
// before it can be marked applied.
func (ing *ingester) verifyDelta(merged []*traceroute.Trace, deltaRes *core.Result) error {
	want, err := annotationsDigest(deltaRes, ing.resolver)
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 4, 8} {
		vopts := ing.copts
		vopts.Workers = workers
		vopts.Checkpoint = nil
		g, err := core.BuildGraphContext(ing.ctx, merged, ing.resolver, ing.aliases, ing.rels, vopts)
		if err != nil {
			return err
		}
		vres, err := core.RunContext(ing.ctx, g, ing.rels, vopts)
		if err != nil {
			return err
		}
		if vres.Interrupted {
			return errInterrupted
		}
		got, err := annotationsDigest(vres, ing.resolver)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("delta≡full equivalence violated at workers=%d: delta annotations digest %016x, from-scratch %016x (iterations %d vs %d)",
				workers, want, got, deltaRes.Iterations, vres.Iterations)
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
func (ing *ingester) publish(res *core.Result) (uint64, error) {
	r := &Result{
		res: res, resolver: ing.resolver,
		Iterations: res.Iterations, Converged: res.Converged,
		Interrupted: res.Interrupted, Report: res.Report,
	}
	// One rendering feeds the journal's digest, the file and the
	// snapshot's digest.
	ann, annDigest, err := renderAnnotations(r)
	if err != nil {
		return 0, err
	}
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
		snap, err := r.serveSnapshot(annDigest, ing.prefixes)
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
			Addr: addr, Attempts: ing.opts.RetryAttempts,
			Base: ing.opts.RetryBase, Max: ing.opts.RetryMax,
			Seed: annDigest,
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
// session for a poison batch: the next batch proceeds.
func (ing *ingester) quarantine(ref *delta.Refusal, data []byte) error {
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
// counting each retry in ingest.retried.
func (ing *ingester) readWithRetry(path string, seed uint64) ([]byte, error) {
	var data []byte
	r := &delta.Retrier{
		Attempts: ing.opts.RetryAttempts,
		Base:     ing.opts.RetryBase,
		Max:      ing.opts.RetryMax,
		Seed:     seed,
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
	return data, err
}

// ckptConfig builds the checkpoint config for a given lineage: the
// input digest covers the base sources plus every absorbed batch, so a
// checkpoint can never be resumed against a different corpus.
func (ing *ingester) ckptConfig(lineage []ckpt.BatchInfo) *ckpt.Config {
	return &ckpt.Config{
		Dir:         ing.store.Dir,
		Every:       ing.opts.Run.CheckpointEvery,
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

// renderAnnotations returns the exact bytes Annotations writes and their
// FNV-64a — the digest ServeSnapshot records, tying the journal's
// applied records to the published artifacts.
func renderAnnotations(r *Result) ([]byte, uint64, error) {
	var buf bytes.Buffer
	if err := r.Annotations(&buf); err != nil {
		return nil, 0, fmt.Errorf("bdrmapit: rendering annotations: %w", err)
	}
	return buf.Bytes(), ckpt.Fingerprint(buf.Bytes()), nil
}

// annotationsDigest is renderAnnotations' digest for a bare core result.
func annotationsDigest(res *core.Result, resolver *ip2as.Resolver) (uint64, error) {
	_, d, err := renderAnnotations(&Result{res: res, resolver: resolver, Interrupted: res.Interrupted, Iterations: res.Iterations})
	return d, err
}

func fnvString(s string) uint64 { return ckpt.Fingerprint([]byte(s)) }
