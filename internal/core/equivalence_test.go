package core_test

// The production/oracle equivalence suite: the regression gate for the
// profile-guided refinement optimizations (per-shard scratch reuse,
// changed-set snapshots, precomputed link caches). The path those
// optimizations replaced lives on as the test-only oracle
// (core.OracleRefine, oracle_test.go); these tests hold production to
// it — byte-identical annotations, iteration counts, and convergence
// metadata across ladder rungs and worker counts — so any future change
// that lets the two drift fails loudly here rather than silently
// shifting inferences.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/topo"
)

// equivalenceOutcome captures everything a refinement run decides.
type equivalenceOutcome struct {
	annotations string
	iterations  int
	converged   bool
	cycleLen    int
}

// mustRun refines g to completion, failing t on an error.
func mustRun(t testing.TB, g *core.Graph, rels core.RelationshipOracle, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.RunContext(context.Background(), g, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func outcomeOf(res *core.Result) equivalenceOutcome {
	return equivalenceOutcome{
		annotations: annotationBytes(res),
		iterations:  res.Iterations,
		converged:   res.Converged,
		cycleLen:    res.CycleLength,
	}
}

// runEquivalence builds the rung's graph once, then replays phases 2–3
// over it with the oracle and with production at every worker count,
// resetting annotations between runs. Sharing the graph keeps the suite
// fast (the campaign and phase 1 dominate).
func runEquivalence(t *testing.T, cfg topo.Config, numVPs int) {
	t.Helper()
	ds, err := eval.BuildDataset(cfg, numVPs, true)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(ds.Traces)
	g := b.Finish(ds.Rels)

	want := outcomeOf(core.OracleRefine(g, ds.Rels, core.Options{}))
	if want.annotations == "" {
		t.Fatal("oracle run produced no annotations")
	}
	for _, workers := range []int{1, 4, 8} {
		g.ResetAnnotations()
		got := outcomeOf(mustRun(t, g, ds.Rels, core.Options{Workers: workers}))
		if got != want {
			t.Errorf("workers=%d diverges from the oracle: iterations %d vs %d, converged %v vs %v, cycle %d vs %d, annotations equal: %v",
				workers, got.iterations, want.iterations,
				got.converged, want.converged, got.cycleLen, want.cycleLen,
				got.annotations == want.annotations)
		}
	}
}

// TestEquivalenceSmall always runs: the fast whole-pipeline gate.
func TestEquivalenceSmall(t *testing.T) {
	runEquivalence(t, topo.SmallConfig(2018), 8)
}

// TestEquivalenceRungS covers the S benchmark rung.
func TestEquivalenceRungS(t *testing.T) {
	if raceEnabled {
		t.Skip("S-rung equivalence under the race detector: covered by TestEquivalenceSmall")
	}
	rung, err := topo.LadderRung("S", 2018)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, rung.Cfg, rung.NumVPs)
}

// TestEquivalenceRungM covers the M benchmark rung.
func TestEquivalenceRungM(t *testing.T) {
	if raceEnabled {
		t.Skip("M-rung equivalence under the race detector")
	}
	if testing.Short() {
		t.Skip("M-rung equivalence in -short mode")
	}
	rung, err := topo.LadderRung("M", 2018)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, rung.Cfg, rung.NumVPs)
}

// TestSkippingKeepsTheConvergenceTrace holds the per-iteration tallies
// to a full evaluation. After its first pass the loop evaluates only
// routers and interfaces whose inputs changed and takes everyone else's
// heuristic counts from their last evaluation; a resumed run's first
// pass evaluates everything. So resuming after every iteration k of a
// long-tailed run (4x core chains from few vantage points: a dozen or
// more iterations, most of them moving a handful of routers) and
// requiring the same trace, row for row, checks each row against a full
// evaluation of that iteration, and the oracle pins the annotations.
//
// A delta run's rows tally what it evaluated, which no from-scratch run
// reproduces. So the same fixture, absorbed in two stacked batches and
// once onto a base capped short of convergence, is held to rows recorded
// (testdata/delta_trace.json) at the last commit where delta runs had a
// loop of their own, one that evaluated every dirty router on every
// pass: evaluating a router on the pass that first reaches it, and adding
// its memoised tally on the passes that skip it, must come to the same.
func TestSkippingKeepsTheConvergenceTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("quadratic in the iteration count; the race build covers resume in checkpoint_test.go")
	}
	cfg := topo.DefaultConfig(7)
	cfg.EnableIPv6 = false
	cfg.HostsPerAS = 1
	cfg.CoreScale = 4
	ds, err := eval.BuildDataset(cfg, 6, false)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(ds.Traces)
	g := b.Finish(ds.Rels)

	want := outcomeOf(core.OracleRefine(g, ds.Rels, core.Options{}))
	g.ResetAnnotations()
	full := mustRun(t, g, ds.Rels, core.Options{Workers: 1, Recorder: obs.New()})
	if got := outcomeOf(full); got != want {
		t.Fatalf("uninterrupted run diverges from the oracle (iterations %d vs %d)", got.iterations, want.iterations)
	}
	wantTrace := full.Report.Series["refine.iterations"]
	if len(wantTrace) != full.Iterations || full.Iterations < 6 {
		t.Fatalf("%d trace rows for %d iterations; the fixture needs a tail of at least 6", len(wantTrace), full.Iterations)
	}
	ctx := context.Background()
	for k := 1; k < full.Iterations; k++ {
		dir := t.TempDir()
		g.ResetAnnotations()
		if _, err := core.RunContext(ctx, g, ds.Rels, core.Options{
			Workers: 4, MaxIterations: k, Checkpoint: &ckpt.Config{Dir: dir},
		}); err != nil {
			t.Fatalf("k=%d: capped run: %v", k, err)
		}
		res, err := resumeRun(ctx, g, ds.Rels, core.Options{
			Workers: 1 + k%4, Recorder: obs.New(), Checkpoint: &ckpt.Config{Dir: dir},
		})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got := outcomeOf(res); got != want {
			t.Errorf("k=%d: resumed run diverges from the oracle (iterations %d vs %d)", k, got.iterations, want.iterations)
		}
		if got := res.Report.Series["refine.iterations"]; !reflect.DeepEqual(got, wantTrace) {
			t.Errorf("k=%d: resumed trace differs from the uninterrupted run's\n got %v\nwant %v", k, got, wantTrace)
		}
	}

	data, err := os.ReadFile(filepath.Join("testdata", "delta_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string][]obs.Row
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	traces := ds.Traces
	cutA, cutB := len(traces)*7/10, len(traces)*17/20
	// absorb runs the delta over b's latest append from st and returns the
	// checkpoint it leaves, held to a from-scratch run over traces[:n].
	absorb := func(name string, b *core.Builder, g *core.Graph, st *ckpt.State, n, workers int) *ckpt.State {
		dir := t.TempDir()
		if _, err := core.RunDeltaContext(ctx, g, b.LastAppend(), st, ds.Rels, core.Options{
			Workers: workers, Checkpoint: &ckpt.Config{Dir: dir},
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ckpt.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if d := core.SameTrajectory(got, checkpointedRun(t, ds, buildGraph(ds, traces[:n]), 0)); d != "" {
			t.Errorf("%s: against the from-scratch run: %s", name, d)
		}
		if !reflect.DeepEqual(got.Trace, recorded[name]) {
			t.Errorf("%s: trace rows differ from the recorded ones\n got %v\nwant %v", name, got.Trace, recorded[name])
		}
		return got
	}
	bld, grown, st := absorbed(t, ds, traces[:cutA], traces[cutA:cutB], 0)
	st = absorb("absorb-1", bld, grown, st, cutB, 1)
	bld.AddTraces(traces[cutB:])
	bld.Finish(ds.Rels)
	absorb("absorb-2", bld, grown, st, len(traces), 4)
	bld, grown, st = absorbed(t, ds, traces[:cutB], traces[cutB:], 3)
	absorb("capped-base", bld, grown, st, len(traces), 4)
}
