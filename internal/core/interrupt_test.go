package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

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
	for _, workers := range []int{1, 4} {
		for k := 1; k < full.Iterations; k++ {
			e := goldenEnv(t)
			ctx, cancel := context.WithCancel(context.Background())
			opts := Options{Workers: workers}
			opts.hookIterEnd = func(iter int) {
				if iter == k {
					cancel()
				}
			}
			res, err := InferContext(ctx, e.traces, e.resolver, e.aliases, e.rels, opts)
			cancel()
			if err != nil {
				t.Fatalf("workers=%d k=%d: InferContext after graph build must return a partial result, got error %v", workers, k, err)
			}
			if !res.Interrupted {
				t.Fatalf("workers=%d k=%d: Interrupted=false on a cancelled run", workers, k)
			}
			if res.Iterations != k {
				t.Fatalf("workers=%d k=%d: Iterations=%d, want the last committed iteration %d", workers, k, res.Iterations, k)
			}
			if res.Report == nil || !res.Report.Interrupted {
				t.Errorf("workers=%d k=%d: Report must be populated and marked interrupted", workers, k)
			}

			capped := goldenEnv(t).run(Options{Workers: workers, MaxIterations: k})
			if capped.Interrupted {
				t.Fatalf("workers=%d k=%d: capped run reported Interrupted", workers, k)
			}
			if got, want := dumpAnnotations(res), dumpAnnotations(capped); got != want {
				t.Errorf("workers=%d k=%d: interrupted annotations diverge from MaxIterations=%d run\n--- interrupted ---\n%s--- capped ---\n%s",
					workers, k, k, got, want)
			}
		}
	}
}

// countCtx is a context whose Err starts failing after a fixed number
// of calls — a deterministic probe for each batch-boundary check inside
// RunContext (entry, then snapshot/router/interface per iteration).
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
	// RunContext's ctx.Err() call sequence: 1 entry check, then three
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
		for _, b := range boundaries {
			e := goldenEnv(t)
			g := buildGraph(t, e, workers)
			res, err := RunContext(&countCtx{failAfter: b.failAfter}, g, e.rels, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d %s: RunContext: %v", workers, b.name, err)
			}
			if !res.Interrupted {
				t.Fatalf("workers=%d %s: Interrupted=false", workers, b.name)
			}
			if res.Iterations != 1 {
				t.Fatalf("workers=%d %s: Iterations=%d, want 1", workers, b.name, res.Iterations)
			}
			if got := dumpAnnotations(res); got != want {
				t.Errorf("workers=%d %s: partial state is not the committed iteration-1 state\n--- got ---\n%s--- want ---\n%s",
					workers, b.name, got, want)
			}
		}
	}
}

// TestCancelBeforeRunReturnsUnannotatedPartial covers the degenerate
// boundary: a context already cancelled when RunContext starts yields
// an iteration-0 partial result, never a crash or a half-annotated map.
func TestCancelBeforeRunReturnsUnannotatedPartial(t *testing.T) {
	e := goldenEnv(t)
	g := buildGraph(t, e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, g, e.rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Iterations != 0 {
		t.Fatalf("Interrupted=%v Iterations=%d, want true/0", res.Interrupted, res.Iterations)
	}
	if res.Report == nil || !res.Report.Interrupted {
		t.Error("Report must be populated and marked interrupted")
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
