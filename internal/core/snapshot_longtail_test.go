package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/topo"
)

// TestCheckpointEqualsSnapshotLongTail is TestCheckpointEqualsSnapshot
// on the fixture TestSkippingKeepsTheConvergenceTrace uses: 4x core
// chains from six vantage points, eighteen iterations ending in a cycle
// of length 2, most of them moving a handful of routers, as a full run,
// a run capped halfway and a delta run absorbing its last three tenths.
func TestCheckpointEqualsSnapshotLongTail(t *testing.T) {
	cfg := topo.DefaultConfig(7)
	cfg.EnableIPv6 = false
	cfg.HostsPerAS = 1
	cfg.CoreScale = 4
	ds, err := eval.BuildDataset(cfg, 6, false)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	g := buildGraph(ds, ds.Traces)
	full := mustRun(t, g, ds.Rels, core.Options{Workers: 1})
	if full.Iterations < 12 || full.CycleLength < 2 {
		t.Fatalf("the fixture stops after %d iterations with cycle length %d; it is here for its long oscillating tail", full.Iterations, full.CycleLength)
	}
	g.ResetAnnotations()
	wantProv := encodeArtifact(t, mustRun(t, g, ds.Rels, core.Options{Workers: 1, Provenance: true}).Provenance)
	cut := len(ds.Traces) * 7 / 10
	bld, grown, base := absorbed(t, ds, ds.Traces[:cut], ds.Traces[cut:], 0)
	// The delta run explains its annotations as the from-scratch run does.
	for _, workers := range []int{1, 4, 8} {
		res, err := core.RunDeltaContext(context.Background(), grown, bld.LastAppend(), base, ds.Rels, core.Options{Workers: workers, Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeArtifact(t, res.Provenance), wantProv) {
			t.Errorf("workers=%d: delta run's provenance artifact differs from the from-scratch run's", workers)
		}
	}
	run := func(o core.Options) (*core.Result, error) {
		return core.RunContext(context.Background(), g, ds.Rels, o)
	}
	t.Run("full", func(t *testing.T) {
		g.ResetAnnotations()
		core.CheckSnapshots(t, g, ds.Rels, 0, false, run)
	})
	t.Run("capped", func(t *testing.T) {
		g.ResetAnnotations()
		core.CheckSnapshots(t, g, ds.Rels, full.Iterations/2, false, run)
	})
	t.Run("delta", func(t *testing.T) {
		core.CheckSnapshots(t, grown, ds.Rels, 0, true, func(o core.Options) (*core.Result, error) {
			return core.RunDeltaContext(context.Background(), grown, bld.LastAppend(), base, ds.Rels, o)
		})
	})
}
