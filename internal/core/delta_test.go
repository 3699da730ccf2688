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
	"context"
	"errors"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/traceroute"
)

// buildGraph runs phase 1 over the given traces, matching the ingest
// pipeline's build order exactly: base corpus first, batches appended
// in absorption order.
func buildGraph(ds *eval.Dataset, traces []*traceroute.Trace) *core.Graph {
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(traces)
	return b.Finish(ds.Rels)
}

// checkpointedRun executes a full run over traces with per-iteration
// checkpointing and returns the final snapshot.
func checkpointedRun(t *testing.T, ds *eval.Dataset, traces []*traceroute.Trace, maxIter int) (*core.Graph, *ckpt.State) {
	t.Helper()
	g := buildGraph(ds, traces)
	opts := core.Options{Workers: 4, Checkpoint: &ckpt.Config{Dir: t.TempDir(), InputDigest: 0x1234}}
	if maxIter > 0 {
		opts.MaxIterations = maxIter
	}
	res := core.Run(g, ds.Rels, opts)
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
	return g, st
}

func TestDeltaEquivalence(t *testing.T) {
	ds := parallelDataset(t)
	traces := ds.Traces
	cut := len(traces) * 17 / 20
	baseTraces, merged := traces[:cut], traces

	base, st := checkpointedRun(t, ds, baseTraces, 0)
	if !st.Converged {
		t.Fatalf("base run did not converge in %d iterations; pick a different split", st.Iteration)
	}

	oracle := outcomeOf(core.Run(buildGraph(ds, merged), ds.Rels, core.Options{Workers: 1}))
	if oracle.annotations == "" {
		t.Fatal("oracle run produced no annotations")
	}

	for _, workers := range []int{1, 4, 8} {
		mg := buildGraph(ds, merged)
		ckDir := t.TempDir()
		res, err := core.RunDeltaContext(context.Background(), mg, base, st, ds.Rels, core.Options{
			Workers: workers,
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

	base, st := checkpointedRun(t, ds, traces[:cutA], 0)
	if !st.Converged {
		t.Fatalf("base run did not converge; pick a different split")
	}

	// First absorption: traces[:cutB].
	g1 := buildGraph(ds, traces[:cutB])
	ck1 := t.TempDir()
	res1, err := core.RunDeltaContext(context.Background(), g1, base, st, ds.Rels, core.Options{
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
	g2 := buildGraph(ds, traces)
	res2, err := core.RunDeltaContext(context.Background(), g2, g1, st1, ds.Rels, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	oracle := outcomeOf(core.Run(buildGraph(ds, traces), ds.Rels, core.Options{Workers: 1}))
	if got := outcomeOf(res2); got != oracle {
		t.Errorf("stacked delta diverges from from-scratch run: iterations %d vs %d, converged %v vs %v, annotations equal: %v",
			got.iterations, oracle.iterations, got.converged, oracle.converged, got.annotations == oracle.annotations)
	}
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
	base, st := checkpointedRun(t, ds, traces[:cut], 1)
	if st.Converged {
		t.Fatalf("one-iteration base run claims convergence")
	}

	oracle := outcomeOf(core.Run(buildGraph(ds, traces), ds.Rels, core.Options{Workers: 1}))
	mg := buildGraph(ds, traces)
	res, err := core.RunDeltaContext(context.Background(), mg, base, st, ds.Rels, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeOf(res); got != oracle {
		t.Errorf("capped-base delta diverges from from-scratch run: iterations %d vs %d, annotations equal: %v",
			got.iterations, oracle.iterations, got.annotations == oracle.annotations)
	}
}

// TestDeltaRefusals pins the typed error paths: legacy snapshots,
// provenance, resume, and option mismatches are refused before any
// annotation work happens.
func TestDeltaRefusals(t *testing.T) {
	ds := parallelDataset(t)
	traces := ds.Traces
	cut := len(traces) * 17 / 20
	base, st := checkpointedRun(t, ds, traces[:cut], 0)
	mg := buildGraph(ds, traces)
	ctx := context.Background()

	legacy := *st
	legacy.FormatVersion = 2
	legacy.History = nil
	var he *ckpt.HistoryError
	if _, err := core.RunDeltaContext(ctx, mg, base, &legacy, ds.Rels, core.Options{}); !errors.As(err, &he) {
		t.Errorf("legacy base state accepted: %v", err)
	}

	var de *core.DeltaBaseError
	if _, err := core.RunDeltaContext(ctx, mg, base, st, ds.Rels, core.Options{Provenance: true}); !errors.As(err, &de) {
		t.Errorf("provenance delta accepted: %v", err)
	}
	if _, err := core.RunDeltaContext(ctx, mg, base, st, ds.Rels, core.Options{
		Checkpoint: &ckpt.Config{Dir: t.TempDir(), Resume: true},
	}); !errors.As(err, &de) {
		t.Errorf("resuming delta accepted: %v", err)
	}

	var me *ckpt.MismatchError
	if _, err := core.RunDeltaContext(ctx, mg, base, st, ds.Rels, core.Options{DisableThirdParty: true}); !errors.As(err, &me) || me.Field != "options" {
		t.Errorf("option-mismatched delta accepted: %v", err)
	}
	if _, err := core.RunDeltaContext(ctx, mg, mg, st, ds.Rels, core.Options{}); !errors.As(err, &me) || me.Field != "graph" {
		t.Errorf("graph-mismatched delta accepted: %v", err)
	}
}
