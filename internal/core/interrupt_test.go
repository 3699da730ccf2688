package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asn"
)

// cancelInputs are the two ways into the refinement loop, each over the
// golden scenario: a full run over its graph, and a delta run that
// absorbs the last 3/20 of its traces onto a converged run over the
// rest. Whatever ctx does to one it must do to the other: the partial
// result is the committed state of a from-scratch run over the whole
// scenario, capped at the same iteration.
var cancelInputs = []struct {
	name string
	run  func(t *testing.T, ctx context.Context, opts Options) (*Result, error)
}{
	{"full", func(t *testing.T, ctx context.Context, opts Options) (*Result, error) {
		e := goldenEnv(t)
		return RunContext(ctx, buildGraph(t, e, opts.Workers), e.rels, opts)
	}},
	{"delta", func(t *testing.T, ctx context.Context, opts Options) (*Result, error) {
		e := goldenEnv(t)
		cut := len(e.traces) * 17 / 20
		b := NewBuilder(e.resolver, e.aliases)
		b.Workers = opts.Workers
		b.AddTraces(e.traces[:cut])
		g := b.Finish(e.rels)
		_, st := checkpointed(t, opts.Workers, func(o Options) (*Result, error) { return RunContext(context.Background(), g, e.rels, o) })
		b.AddTraces(e.traces[cut:])
		b.Finish(e.rels)
		return RunDeltaContext(ctx, g, b.LastAppend(), st, e.rels, opts)
	}},
}

// TestCancelAtEveryIterationMatchesCappedRun is the interruption
// determinism contract: cancelling after iteration k commits must
// return exactly the annotations a fresh run with MaxIterations=k
// produces, at every worker count. The test drives the golden scenario,
// which converges at iteration 4, so k=1..3 are genuine mid-run
// interruptions.
func TestCancelAtEveryIterationMatchesCappedRun(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1})
	if !full.Converged || full.Iterations < 2 {
		t.Fatalf("scenario must converge after >= 2 iterations to test interruption (got iterations=%d converged=%v)",
			full.Iterations, full.Converged)
	}
	for _, in := range cancelInputs {
		for _, workers := range []int{1, 4} {
			for k := 1; k < full.Iterations; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				opts := Options{Workers: workers}
				opts.hookIterEnd = func(iter int) {
					if iter == k {
						cancel()
					}
				}
				res, err := in.run(t, ctx, opts)
				cancel()
				if err != nil {
					t.Fatalf("%s workers=%d k=%d: a cancelled run must return a partial result, got error %v", in.name, workers, k, err)
				}
				if !res.Interrupted {
					t.Fatalf("%s workers=%d k=%d: Interrupted=false on a cancelled run", in.name, workers, k)
				}
				if res.Iterations != k {
					t.Fatalf("%s workers=%d k=%d: Iterations=%d, want the last committed iteration %d", in.name, workers, k, res.Iterations, k)
				}
				if res.Report == nil || !res.Report.Interrupted {
					t.Errorf("%s workers=%d k=%d: Report must be populated and marked interrupted", in.name, workers, k)
				}

				capped := goldenEnv(t).run(Options{Workers: workers, MaxIterations: k})
				if capped.Interrupted {
					t.Fatalf("workers=%d k=%d: capped run reported Interrupted", workers, k)
				}
				if got, want := dumpAnnotations(res), dumpAnnotations(capped); got != want {
					t.Errorf("%s workers=%d k=%d: interrupted annotations diverge from MaxIterations=%d run\n--- interrupted ---\n%s--- capped ---\n%s",
						in.name, workers, k, k, got, want)
				}
			}
		}
	}
}

// countCtx is a context whose Err starts failing after a fixed number
// of calls — a deterministic probe for each batch-boundary check inside
// the refinement loop (entry, then snapshot/router/interface per
// iteration).
type countCtx struct {
	calls     atomic.Int64
	failAfter int64
}

func (c *countCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countCtx) Done() <-chan struct{}       { return nil }
func (c *countCtx) Value(any) any               { return nil }
func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// TestCancelAtEveryBatchBoundary cancels at each of the three
// batch-boundary checks inside iteration 2 — before the snapshot,
// before the router pass, and before the interface pass (the case that
// forces the router-annotation rollback) — and asserts the partial
// result is always exactly the committed iteration-1 state.
func TestCancelAtEveryBatchBoundary(t *testing.T) {
	// The loop's ctx.Err() call sequence: 1 entry check, then three
	// checks per iteration. failAfter 4, 5, and 6 land the cancellation
	// on iteration 2's snapshot, router, and interface checks.
	boundaries := []struct {
		name      string
		failAfter int64
	}{
		{"snapshot", 4},
		{"router-pass", 5},
		{"interface-pass-rollback", 6},
	}
	for _, workers := range []int{1, 4} {
		capped := goldenEnv(t).run(Options{Workers: workers, MaxIterations: 1})
		want := dumpAnnotations(capped)
		for _, in := range cancelInputs {
			for _, b := range boundaries {
				res, err := in.run(t, &countCtx{failAfter: b.failAfter}, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", in.name, workers, b.name, err)
				}
				if !res.Interrupted {
					t.Fatalf("%s workers=%d %s: Interrupted=false", in.name, workers, b.name)
				}
				if res.Iterations != 1 {
					t.Fatalf("%s workers=%d %s: Iterations=%d, want 1", in.name, workers, b.name, res.Iterations)
				}
				if got := dumpAnnotations(res); got != want {
					t.Errorf("%s workers=%d %s: partial state is not the committed iteration-1 state\n--- got ---\n%s--- want ---\n%s",
						in.name, workers, b.name, got, want)
				}
			}
		}
	}
}

// TestCancelBeforeRunReturnsUnannotatedPartial covers the degenerate
// boundary: a context already cancelled when the run starts yields an
// iteration-0 partial result — for a delta run too, whose graph comes in
// carrying the base run's converged annotations — never a crash or a
// half-annotated map.
func TestCancelBeforeRunReturnsUnannotatedPartial(t *testing.T) {
	for _, in := range cancelInputs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := in.run(t, ctx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted || res.Iterations != 0 {
			t.Fatalf("%s: Interrupted=%v Iterations=%d, want true/0", in.name, res.Interrupted, res.Iterations)
		}
		if res.Report == nil || !res.Report.Interrupted {
			t.Errorf("%s: Report must be populated and marked interrupted", in.name)
		}
		for _, i := range res.Graph.Interfaces {
			if i.Router.Annotation != asn.None || i.Annotation != i.Origin {
				t.Fatalf("%s: %v is annotated AS%d on a router annotated AS%d at iteration 0; want its origin AS%d and none",
					in.name, i.Addr, i.Annotation, i.Router.Annotation, i.Origin)
			}
		}
	}
}

// TestInferContextCancelledDuringBuildReturnsError covers the
// pre-annotation phase: cancellation during graph construction has no
// partial result to salvage, so InferContext must surface ctx.Err().
func TestInferContextCancelledDuringBuildReturnsError(t *testing.T) {
	e := goldenEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := InferContext(ctx, e.traces, e.resolver, e.aliases, e.rels, Options{})
	if err == nil {
		t.Fatal("InferContext on a pre-cancelled context returned no error")
	}
	if res != nil {
		t.Fatalf("InferContext returned a result (%v) alongside the error", res)
	}
}

// buildGraph runs phase 1 the same way InferContext does, so RunContext
// tests start from the exact state a real run would.
func buildGraph(t *testing.T, e *testEnv, workers int) *Graph {
	t.Helper()
	b := NewBuilder(e.resolver, e.aliases)
	b.Workers = workers
	b.AddTraces(e.traces)
	return b.Finish(e.rels)
}
