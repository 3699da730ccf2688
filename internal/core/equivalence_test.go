package core_test

// The optimized/reference equivalence suite: the regression gate for
// the profile-guided refinement optimizations (per-shard scratch reuse,
// changed-set snapshots, precomputed link caches). Options.ReferenceMode
// forces the pre-optimization path; these tests hold the two paths to
// byte-identical annotations, iteration counts, and convergence
// metadata across ladder rungs and worker counts, so any future change
// that lets them drift fails loudly here rather than silently shifting
// inferences.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/topo"
)

// equivalenceOutcome captures everything a refinement run decides.
type equivalenceOutcome struct {
	annotations string
	iterations  int
	converged   bool
	cycleLen    int
}

// runEquivalence builds the rung's graph once, then replays phases 2–3
// over it for every (mode, workers) combination, resetting annotations
// between runs. Sharing the graph keeps the suite fast (the campaign
// and phase 1 dominate) and is exactly the benchmark harness's shape.
func runEquivalence(t *testing.T, cfg topo.Config, numVPs int) {
	t.Helper()
	ds, err := eval.BuildDataset(cfg, numVPs, true)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(ds.Traces)
	g := b.Finish(ds.Rels)

	run := func(reference bool, workers int) equivalenceOutcome {
		g.ResetAnnotations()
		res := core.Run(g, ds.Rels, core.Options{Workers: workers, ReferenceMode: reference})
		return equivalenceOutcome{
			annotations: annotationBytes(res),
			iterations:  res.Iterations,
			converged:   res.Converged,
			cycleLen:    res.CycleLength,
		}
	}

	want := run(true, 1) // the pre-optimization path, serial: the oracle
	if want.annotations == "" {
		t.Fatal("reference run produced no annotations")
	}
	for _, workers := range []int{1, 4, 8} {
		for _, reference := range []bool{true, false} {
			got := run(reference, workers)
			if got != want {
				t.Errorf("reference=%v workers=%d diverges from serial reference: iterations %d vs %d, converged %v vs %v, cycle %d vs %d, annotations equal: %v",
					reference, workers, got.iterations, want.iterations,
					got.converged, want.converged, got.cycleLen, want.cycleLen,
					got.annotations == want.annotations)
			}
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

// TestEquivalenceRungM covers the M benchmark rung — the rung the ≥20%
// per-iteration acceptance threshold is measured on.
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
