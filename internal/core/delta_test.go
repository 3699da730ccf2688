package core_test

// The delta≡full equivalence suite: the regression gate for dirty-
// frontier delta refinement. A delta run over a merged corpus (base
// traces plus a new batch), replaying the base run's checkpointed
// history and recomputing only the dirty frontier, must produce
// byte-identical annotations, iteration counts, and convergence
// metadata to a from-scratch run over the merged corpus — at every
// worker count, whether the base converged or was capped, and when
// delta checkpoints stack on top of delta checkpoints.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/prov"
	"repro/internal/traceroute"
)

// buildGraph runs phase 1 over the given traces from scratch: the
// oracle side, and what crash recovery does. The delta side grows one
// Builder's graph batch by batch, as the ingest pipeline does.
func buildGraph(ds *eval.Dataset, traces []*traceroute.Trace) *core.Graph {
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(traces)
	return b.Finish(ds.Rels)
}

// checkpointedRun executes a full run over g with per-iteration
// checkpointing and returns the final snapshot.
func checkpointedRun(t *testing.T, ds *eval.Dataset, g *core.Graph, maxIter int) *ckpt.State {
	t.Helper()
	opts := core.Options{Workers: 4, Checkpoint: &ckpt.Config{Dir: t.TempDir(), InputDigest: 0x1234}}
	if maxIter > 0 {
		opts.MaxIterations = maxIter
	}
	res := mustRun(t, g, ds.Rels, opts)
	if res.Interrupted {
		t.Fatal("base run interrupted")
	}
	st, err := ckpt.Load(opts.Checkpoint.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RequireHistory(); err != nil {
		t.Fatalf("full run produced an incomplete history: %v", err)
	}
	return st
}

// absorbed builds base on a new Builder, runs it to a checkpoint (capped
// at maxIter when positive), then appends batch: the graph, the record of
// that append and the base state are what a delta run takes.
func absorbed(t *testing.T, ds *eval.Dataset, base, batch []*traceroute.Trace, maxIter int) (*core.Builder, *core.Graph, *ckpt.State) {
	t.Helper()
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(base)
	g := b.Finish(ds.Rels)
	st := checkpointedRun(t, ds, g, maxIter)
	b.AddTraces(batch)
	if b.Finish(ds.Rels) != g {
		t.Fatal("an appending Finish returned a different graph")
	}
	return b, g, st
}

func TestDeltaEquivalence(t *testing.T) {
	ds := parallelDataset(t)
	traces := ds.Traces
	cut := len(traces) * 17 / 20

	b, g, st := absorbed(t, ds, traces[:cut], traces[cut:], 0)
	if !st.Converged {
		t.Fatalf("base run did not converge in %d iterations; pick a different split", st.Iteration)
	}

	scratch := mustRun(t, buildGraph(ds, traces), ds.Rels, core.Options{Workers: 1, Provenance: true})
	oracle := outcomeOf(scratch)
	if oracle.annotations == "" {
		t.Fatal("oracle run produced no annotations")
	}
	wantProv := encodeArtifact(t, scratch.Provenance)

	// One appended graph serves every worker count: a delta run starts by
	// discarding whatever annotations the graph holds.
	for _, workers := range []int{1, 4, 8} {
		ckDir := t.TempDir()
		res, err := core.RunDeltaContext(context.Background(), g, b.LastAppend(), st, ds.Rels, core.Options{
			Workers:    workers,
			Provenance: true,
			Checkpoint: &ckpt.Config{
				Dir:         ckDir,
				InputDigest: 0x5678,
				Lineage:     []ckpt.BatchInfo{{FP: 0xabc, Name: "batch-1.jsonl", Traces: len(traces) - cut}},
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: RunDeltaContext: %v", workers, err)
		}
		if got := outcomeOf(res); got != oracle {
			t.Errorf("workers=%d: delta diverges from from-scratch merged run: iterations %d vs %d, converged %v vs %v, cycle %d vs %d, annotations equal: %v",
				workers, got.iterations, oracle.iterations, got.converged, oracle.converged,
				got.cycleLen, oracle.cycleLen, got.annotations == oracle.annotations)
		}
		if !bytes.Equal(encodeArtifact(t, res.Provenance), wantProv) {
			t.Errorf("workers=%d: delta run's provenance artifact differs from the from-scratch merged run's", workers)
		}
		// The delta checkpoint must itself be a complete delta base:
		// full history, the lineage stamped, and annotations matching
		// the committed state.
		dst, err := ckpt.Load(ckDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RequireHistory(); err != nil {
			t.Errorf("workers=%d: delta checkpoint history incomplete: %v", workers, err)
		}
		if len(dst.Lineage) != 1 || dst.Lineage[0].Name != "batch-1.jsonl" {
			t.Errorf("workers=%d: delta checkpoint lineage = %+v", workers, dst.Lineage)
		}
	}
}

// TestDeltaEquivalenceStacked absorbs two batches in sequence — each
// delta run's checkpoint serving as the next run's base — and demands
// the final state match a from-scratch run over everything. This is
// the continuous-ingest steady state: history recorded by a delta run
// must be as replayable as history recorded by a full run.
func TestDeltaEquivalenceStacked(t *testing.T) {
	ds := parallelDataset(t)
	traces := ds.Traces
	cutA, cutB := len(traces)*7/10, len(traces)*17/20

	// First absorption: traces[cutA:cutB].
	b, g, st := absorbed(t, ds, traces[:cutA], traces[cutA:cutB], 0)
	if !st.Converged {
		t.Fatalf("base run did not converge; pick a different split")
	}
	ck1 := t.TempDir()
	res1, err := core.RunDeltaContext(context.Background(), g, b.LastAppend(), st, ds.Rels, core.Options{
		Workers:    4,
		Checkpoint: &ckpt.Config{Dir: ck1, InputDigest: 2, Lineage: []ckpt.BatchInfo{{FP: 1, Name: "b1"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Converged {
		t.Fatal("first delta run did not converge")
	}
	st1, err := ckpt.Load(ck1)
	if err != nil {
		t.Fatal(err)
	}

	// Second absorption stacks on the delta checkpoint.
	b.AddTraces(traces[cutB:])
	b.Finish(ds.Rels)
	scratch := mustRun(t, buildGraph(ds, traces), ds.Rels, core.Options{Workers: 1, Provenance: true})
	oracle, wantProv := outcomeOf(scratch), encodeArtifact(t, scratch.Provenance)
	for _, workers := range []int{1, 4, 8} {
		res2, err := core.RunDeltaContext(context.Background(), g, b.LastAppend(), st1, ds.Rels, core.Options{Workers: workers, Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeOf(res2); got != oracle {
			t.Errorf("workers=%d: stacked delta diverges from from-scratch run: iterations %d vs %d, converged %v vs %v, annotations equal: %v",
				workers, got.iterations, oracle.iterations, got.converged, oracle.converged, got.annotations == oracle.annotations)
		}
		if !bytes.Equal(encodeArtifact(t, res2.Provenance), wantProv) {
			t.Errorf("workers=%d: stacked delta's provenance artifact differs from the from-scratch run's", workers)
		}
	}
}

// encodeArtifact is a run's provenance artifact as its file holds it.
func encodeArtifact(t *testing.T, a *prov.Artifact) []byte {
	t.Helper()
	if a == nil {
		t.Fatal("run produced no provenance artifact")
	}
	var buf bytes.Buffer
	if err := prov.Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaCappedBaseFallback: a base checkpoint that hit its iteration
// cap without converging offers no trajectory past its horizon; the
// delta run must fall back to full recomputation there and still match
// the from-scratch merged run under the same cap semantics.
func TestDeltaCappedBaseFallback(t *testing.T) {
	ds := parallelDataset(t)
	traces := ds.Traces
	cut := len(traces) * 17 / 20

	// A one-iteration cap can never observe a repeated state hash, so the
	// base is guaranteed unconverged and the delta run has no trajectory
	// to replay past iteration 1.
	b, g, st := absorbed(t, ds, traces[:cut], traces[cut:], 1)
	if st.Converged {
		t.Fatalf("one-iteration base run claims convergence")
	}

	oracle := outcomeOf(mustRun(t, buildGraph(ds, traces), ds.Rels, core.Options{Workers: 1}))
	res, err := core.RunDeltaContext(context.Background(), g, b.LastAppend(), st, ds.Rels, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeOf(res); got != oracle {
		t.Errorf("capped-base delta diverges from from-scratch run: iterations %d vs %d, annotations equal: %v",
			got.iterations, oracle.iterations, got.annotations == oracle.annotations)
	}
}

// TestDeltaRefusals pins the typed error paths: a base state without
// its whole history, option mismatches, a base state taken over some
// other graph and an append record that is not the graph's latest are
// refused before any annotation work happens.
func TestDeltaRefusals(t *testing.T) {
	ds := parallelDataset(t)
	traces := ds.Traces
	cut := len(traces) * 17 / 20
	b, g, st := absorbed(t, ds, traces[:cut], traces[cut:], 0)
	app := b.LastAppend()
	ctx := context.Background()

	legacy := *st
	legacy.History = nil
	var he *ckpt.HistoryError
	if _, err := core.RunDeltaContext(ctx, g, app, &legacy, ds.Rels, core.Options{}); !errors.As(err, &he) {
		t.Errorf("legacy base state accepted: %v", err)
	}

	var me *ckpt.MismatchError
	if _, err := core.RunDeltaContext(ctx, g, app, st, ds.Rels, core.Options{DisableThirdParty: true}); !errors.As(err, &me) || me.Field != "options" {
		t.Errorf("option-mismatched delta accepted: %v", err)
	}
	// A state taken over the merged corpus is not a state of the graph
	// before the append.
	wrong := checkpointedRun(t, ds, buildGraph(ds, traces), 0)
	if _, err := core.RunDeltaContext(ctx, g, app, wrong, ds.Rels, core.Options{}); !errors.As(err, &me) || me.Field != "graph" {
		t.Errorf("graph-mismatched delta accepted: %v", err)
	}

	// An append record goes stale with the next Finish, even one that
	// adds nothing; so does having none.
	var de *core.DeltaBaseError
	b.Finish(ds.Rels)
	for _, stale := range []*core.Append{app, nil} {
		if _, err := core.RunDeltaContext(ctx, g, stale, st, ds.Rels, core.Options{}); !errors.As(err, &de) {
			t.Errorf("stale append record %v accepted: %v", stale != nil, err)
		}
	}
}
