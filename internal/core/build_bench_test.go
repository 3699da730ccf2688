package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/traceroute"
)

// buildBenchSink keeps the compiler from discarding a build.
var buildBenchSink *core.Graph

// BenchmarkBuildGraph measures phase 1 alone — BuildGraphContext over a
// simulated campaign — at one worker and at every CPU, reporting
// traces/s and hops/s beside ns/op and the allocation figures.
func BenchmarkBuildGraph(b *testing.B) {
	ds := parallelDataset(b)
	hops := 0
	for _, t := range ds.Traces {
		hops += len(t.Hops)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := core.BuildGraphContext(context.Background(), ds.Traces, ds.Resolver, ds.Aliases, ds.Rels, core.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				buildBenchSink = g
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(b.N)*float64(len(ds.Traces))/secs, "traces/s")
			b.ReportMetric(float64(b.N)*float64(hops)/secs, "hops/s")
		})
	}
}

// TestBuildGraphAllocBudget pins what a build allocates to the graph it
// produces: a small multiple of (interfaces + links) — the objects and
// slices that are the graph — and nothing per trace. Building the
// corpus followed by a second copy of itself adds traces and hops but no
// interface and no link, so it must cost no more than chunk scratch.
func TestBuildGraphAllocBudget(t *testing.T) {
	ds := parallelDataset(t)
	build := func(traces []*traceroute.Trace) *core.Graph {
		g, err := core.BuildGraphContext(context.Background(), traces, ds.Resolver, ds.Aliases, ds.Rels, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := build(ds.Traces)
	size := len(g.Interfaces)
	for _, r := range g.Routers {
		size += len(r.Links)
	}
	doubled := append(append([]*traceroute.Trace{}, ds.Traces...), ds.Traces...)

	once := testing.AllocsPerRun(3, func() { buildBenchSink = build(ds.Traces) })
	twice := testing.AllocsPerRun(3, func() { buildBenchSink = build(doubled) })
	t.Logf("%d traces, %d interfaces + links: %.0f allocations (%.2f per interface or link); corpus twice over: %.0f",
		len(ds.Traces), size, once, once/float64(size), twice)
	// Measured 7.05 each (7.5 while Router.Links and Link.Prev were hash
	// maps, 12 while every AS set was one too): the Interface/Router/Link
	// objects, their link, previous-hop and sorted AS-set slices as they
	// grow, and the caches Finish fills.
	if limit := 9 * float64(size); once > limit {
		t.Errorf("%.0f allocations for %d interfaces + links, budget %.0f (9 each)", once, size, limit)
	}
	if extra := twice - once; extra > 64 {
		t.Errorf("the same corpus twice over costs %.0f more allocations than once; adding seen traces must allocate only chunk scratch", extra)
	}
}
