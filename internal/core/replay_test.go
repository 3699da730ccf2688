package core_test

// A resume is a delta run with nothing appended: both replay a state's
// History onto the graph, take its trace rows for the iterations they
// replay whole, and hold the replay to the state's own annotations when
// it reaches the state's horizon.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/topo"
)

// longTail is the fixture of TestSkippingKeepsTheConvergenceTrace: 4x
// core chains from six vantage points, eighteen iterations ending in a
// cycle of length 2, most of them moving a handful of routers.
func longTail(t *testing.T) *eval.Dataset {
	t.Helper()
	cfg := topo.DefaultConfig(7)
	cfg.EnableIPv6 = false
	cfg.HostsPerAS = 1
	cfg.CoreScale = 4
	ds, err := eval.BuildDataset(cfg, 6, false)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	return ds
}

// oscillation is the report's oscillation warning, "" when it has none.
func oscillation(rep *obs.Report) string {
	for _, w := range rep.Warnings {
		if strings.HasPrefix(w, "refinement oscillates") {
			return w
		}
	}
	return ""
}

// resumeRun is how a caller resumes: ckpt.Load of opts.Checkpoint.Dir,
// then core.ResumeContext.
func resumeRun(ctx context.Context, g *core.Graph, rels core.RelationshipOracle, opts core.Options) (*core.Result, error) {
	st, err := ckpt.Load(opts.Checkpoint.Dir)
	if err != nil {
		return nil, err
	}
	return core.ResumeContext(ctx, g, st, rels, opts)
}

// TestResumeStitchesConvergenceTrace: a resumed run's report cannot be
// told from an uninterrupted one's. Resumed after every iteration k of
// the long oscillating fixture, at workers 1 and 4, its trace is the
// uninterrupted run's row for row — the replayed rows ahead of the live
// ones — and so is every cumulative refine.* counter and the oscillation
// warning. The interrupted leg runs without a recorder: the trace
// travels inside the state, not with the telemetry.
func TestResumeStitchesConvergenceTrace(t *testing.T) {
	ds := longTail(t)
	g := buildGraph(ds, ds.Traces)
	full := mustRun(t, g, ds.Rels, core.Options{Workers: 1, Recorder: obs.New()})
	want := full.Report
	if full.CycleLength < 2 || oscillation(want) == "" {
		t.Fatalf("the fixture stops after %d iterations with cycle length %d; it is here for its oscillating tail", full.Iterations, full.CycleLength)
	}
	refineCounters := func(rep *obs.Report) map[string]int64 {
		out := make(map[string]int64)
		for name, v := range rep.Counters {
			if strings.HasPrefix(name, "refine.") {
				out[name] = v
			}
		}
		return out
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for k := 1; k < full.Iterations; k++ {
			dir := t.TempDir()
			g.ResetAnnotations()
			if _, err := core.RunContext(ctx, g, ds.Rels, core.Options{
				Workers: workers, MaxIterations: k, Checkpoint: &ckpt.Config{Dir: dir},
			}); err != nil {
				t.Fatalf("workers=%d k=%d: capped run: %v", workers, k, err)
			}
			res, err := resumeRun(ctx, g, ds.Rels, core.Options{
				Workers: workers, Recorder: obs.New(), Checkpoint: &ckpt.Config{Dir: dir},
			})
			if err != nil {
				t.Fatalf("workers=%d k=%d: resume: %v", workers, k, err)
			}
			got := res.Report
			if got.ResumedFrom != k || res.Iterations != full.Iterations {
				t.Errorf("workers=%d k=%d: resumed from %d, stopped at %d; want %d, %d", workers, k, got.ResumedFrom, res.Iterations, k, full.Iterations)
			}
			if !reflect.DeepEqual(got.Series["refine.iterations"], want.Series["refine.iterations"]) {
				t.Errorf("workers=%d k=%d: trace differs from the uninterrupted run's\n got %v\nwant %v",
					workers, k, got.Series["refine.iterations"], want.Series["refine.iterations"])
			}
			if g, w := refineCounters(got), refineCounters(want); !reflect.DeepEqual(g, w) {
				t.Errorf("workers=%d k=%d: refine.* counters %v, want %v", workers, k, g, w)
			}
			if g, w := oscillation(got), oscillation(want); g != w {
				t.Errorf("workers=%d k=%d: oscillation warning %q, want %q", workers, k, g, w)
			}
			if got.Counters["ckpt.writes"] == 0 || got.Histograms["ckpt.write_ns"].Count == 0 {
				t.Errorf("workers=%d k=%d: a resume that went on wrote nothing", workers, k)
			}
		}
	}
}

// TestDeltaOverNothingIsTheBase: a delta run over an append that touched
// nothing replays its base whole, so the state it commits is the base's
// byte for byte — History, trace rows and annotations.
func TestDeltaOverNothingIsTheBase(t *testing.T) {
	ds := longTail(t)
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(ds.Traces)
	g := b.Finish(ds.Rels)
	base := checkpointedRun(t, ds, g, 0)
	b.Finish(ds.Rels)
	want := encodeState(t, base)
	for _, workers := range []int{1, 4} {
		res, err := core.RunDeltaContext(context.Background(), g, b.LastAppend(), base, ds.Rels, core.Options{
			Workers: workers, Checkpoint: &ckpt.Config{Dir: t.TempDir(), InputDigest: base.InputDigest},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := core.SameTrajectory(res.Checkpoint, base); d != "" {
			t.Errorf("workers=%d: %s", workers, d)
		}
		if !bytes.Equal(encodeState(t, res.Checkpoint), want) {
			t.Errorf("workers=%d: the delta run's state is not its base's", workers)
		}
	}
}

func encodeState(t *testing.T, st *ckpt.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withWrongFlip is st re-encoded, frame and CRC valid, with the last
// router flip of its History aimed at another AS: no later iteration
// moves that router again, so the History no longer replays to the
// annotations the state holds. It returns the flipped router too.
func withWrongFlip(t *testing.T, st *ckpt.State) (*ckpt.State, uint32) {
	t.Helper()
	bad, err := ckpt.Decode(bytes.NewReader(encodeState(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	for k := len(bad.History) - 1; k >= 0; k-- {
		if cs := bad.History[k].Routers; len(cs) > 0 {
			cs[len(cs)-1].Ann++
			bad, err = ckpt.Decode(bytes.NewReader(encodeState(t, bad)))
			if err != nil {
				t.Fatal(err)
			}
			return bad, cs[len(cs)-1].Idx
		}
	}
	t.Fatal("the state's History moves no router")
	return nil, 0
}

// TestReplayRefusesHistoryThatMissesTheState: a History whose replay
// does not land on the state's own annotations is refused with a
// *ckpt.FormatError naming the router, by a resume and by a delta run,
// instead of producing annotations.
func TestReplayRefusesHistoryThatMissesTheState(t *testing.T) {
	ds := longTail(t)
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.AddTraces(ds.Traces)
	g := b.Finish(ds.Rels)
	bad, router := withWrongFlip(t, checkpointedRun(t, ds, g, 0))
	refused := func(name string, res *core.Result, err error) {
		t.Helper()
		var fe *ckpt.FormatError
		if !errors.As(err, &fe) || res != nil {
			t.Fatalf("%s: result %v, err %v; want a *ckpt.FormatError", name, res != nil, err)
		}
		if want := fmt.Sprintf("router %d ", router); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %q does not name %q", name, err, want)
		}
	}

	dir := t.TempDir()
	if err := ckpt.Save(dir, bad, nil); err != nil {
		t.Fatal(err)
	}
	res, err := resumeRun(context.Background(), buildGraph(ds, ds.Traces), ds.Rels, core.Options{
		Workers: 2, Checkpoint: &ckpt.Config{Dir: dir, InputDigest: bad.InputDigest},
	})
	refused("resume", res, err)
	if _, err := os.Stat(filepath.Join(dir, "refine.log")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the refused resume created refine.log (%v)", err)
	}

	b.Finish(ds.Rels)
	res, err = core.RunDeltaContext(context.Background(), g, b.LastAppend(), bad, ds.Rels, core.Options{Workers: 2})
	refused("delta", res, err)
}
