package core_test

// Determinism and race coverage for the parallel refinement engine.
// These tests live in the external test package so they can drive the
// engine over the seeded simnet substrate (eval → core would otherwise
// be an import cycle).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/topo"
)

var (
	parallelOnce sync.Once
	parallelDS   *eval.Dataset
	parallelErr  error
)

// parallelDataset builds one seeded simnet campaign shared by the tests
// and benchmarks of this package (the same substrate simnet.Generate
// wraps).
func parallelDataset(t testing.TB) *eval.Dataset {
	t.Helper()
	parallelOnce.Do(func() {
		parallelDS, parallelErr = eval.BuildDataset(topo.SmallConfig(2018), 20, true)
	})
	if parallelErr != nil {
		t.Fatal(parallelErr)
	}
	return parallelDS
}

// annotationBytes serializes every annotation of a run — router
// operator and interface connected-AS per observed address, plus the
// router partition — into one canonical string, so equality between two
// runs means byte-identical inferences.
func annotationBytes(res *core.Result) string {
	var b strings.Builder
	for _, i := range res.Graph.Interfaces {
		fmt.Fprintf(&b, "%s r%d %d %d\n", i.Addr, i.Router.ID, uint32(i.Router.Annotation), uint32(i.Annotation))
	}
	return b.String()
}

// TestParallelDeterminism runs the engine over the same seeded simnet
// topology at 1, 2, 4, and 8 workers and asserts every run produces
// identical annotations, iteration counts, and convergence metadata —
// the engine's core guarantee: worker count changes wall-clock time,
// never an inference.
func TestParallelDeterminism(t *testing.T) {
	ds := parallelDataset(t)

	type outcome struct {
		workers     int
		annotations string
		iterations  int
		converged   bool
		cycleLen    int
	}
	var runs []outcome
	for _, w := range []int{1, 2, 4, 8} {
		res := ds.RunBdrmapIT(nil, core.Options{Workers: w})
		runs = append(runs, outcome{
			workers:     w,
			annotations: annotationBytes(res),
			iterations:  res.Iterations,
			converged:   res.Converged,
			cycleLen:    res.CycleLength,
		})
	}

	base := runs[0]
	if !base.converged {
		t.Errorf("workers=1 run did not converge (%d iterations)", base.iterations)
	}
	if base.converged && base.cycleLen < 1 {
		t.Errorf("converged run reports cycle length %d, want >= 1", base.cycleLen)
	}
	for _, r := range runs[1:] {
		if r.iterations != base.iterations {
			t.Errorf("workers=%d: iterations = %d, workers=1 = %d", r.workers, r.iterations, base.iterations)
		}
		if r.converged != base.converged {
			t.Errorf("workers=%d: converged = %v, workers=1 = %v", r.workers, r.converged, base.converged)
		}
		if r.cycleLen != base.cycleLen {
			t.Errorf("workers=%d: cycle length = %d, workers=1 = %d", r.workers, r.cycleLen, base.cycleLen)
		}
		if r.annotations != base.annotations {
			t.Errorf("workers=%d: annotations differ from the serial run (%d vs %d bytes)",
				r.workers, len(r.annotations), len(base.annotations))
		}
	}
}

// TestParallelDeterminismRepeated re-runs the 8-worker engine several
// times: goroutine scheduling must never leak into the output.
func TestParallelDeterminismRepeated(t *testing.T) {
	ds := parallelDataset(t)
	var first string
	for i := 0; i < 3; i++ {
		res := ds.RunBdrmapIT(nil, core.Options{Workers: 8})
		got := annotationBytes(res)
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d produced different annotations than run 0", i)
		}
	}
}

// TestParallelRaceStress exercises the sharded engine the way the race
// detector sees the most interleavings: several complete inferences run
// concurrently, every one itself sharded across 8 workers, all sharing
// one resolver and one relationship oracle (whose lazily-filled cone
// cache is the shared mutable state under test). Run under
// `go test -race ./internal/core/...`.
func TestParallelRaceStress(t *testing.T) {
	ds := parallelDataset(t)
	const concurrent = 3
	results := make([]string, concurrent)
	var wg sync.WaitGroup
	wg.Add(concurrent)
	for i := 0; i < concurrent; i++ {
		go func(i int) {
			defer wg.Done()
			res := ds.RunBdrmapIT(nil, core.Options{Workers: 8})
			results[i] = annotationBytes(res)
		}(i)
	}
	wg.Wait()
	for i := 1; i < concurrent; i++ {
		if results[i] != results[0] {
			t.Errorf("concurrent run %d diverged from run 0", i)
		}
	}
}

// TestParallelAblationsDeterministic spot-checks that the determinism
// guarantee holds with heuristics ablated (different code paths through
// the voting logic).
func TestParallelAblationsDeterministic(t *testing.T) {
	ds := parallelDataset(t)
	for _, opts := range []core.Options{
		{DisableThirdParty: true},
		{DisableRealloc: true, DisableHiddenAS: true},
		{DisableLastHopDest: true},
	} {
		serial, par := opts, opts
		serial.Workers, par.Workers = 1, 4
		a := annotationBytes(ds.RunBdrmapIT(nil, serial))
		b := annotationBytes(ds.RunBdrmapIT(nil, par))
		if a != b {
			t.Errorf("opts %+v: parallel annotations differ from serial", opts)
		}
	}
}
