package bdrmapit

// One benchmark per table/figure of the paper's evaluation (§7), per
// the experiment index in DESIGN.md. Each bench regenerates its
// experiment against the simulated substrate and reports the headline
// metrics via b.ReportMetric, so `go test -bench=.` reproduces the
// whole evaluation. Under -short (or -bench with -short) the small
// topology is used.
//
// The recorded paper-vs-measured comparison lives in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topo"
)

var (
	benchOnce sync.Once
	benchDS   *eval.Dataset
	benchErr  error
)

// benchDataset builds the shared evaluation dataset once per process.
func benchDataset(b *testing.B) *eval.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := topo.DefaultConfig(2018)
		vps := 100
		if testing.Short() {
			cfg = topo.SmallConfig(2018)
			vps = 20
		}
		benchDS, benchErr = eval.BuildDataset(cfg, vps, true)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// BenchmarkTable3LinkLabels regenerates the §4.2 link-label statistics
// (Table 3's label classes; paper: 96.4% Nexthop, 2.8% IRs with E-only
// links).
func BenchmarkTable3LinkLabels(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		res := ds.RunBdrmapIT(nil, core.Options{})
		st := res.Graph.Stats
		total := st.LinksNexthop + st.LinksEcho + st.LinksMultihop
		b.ReportMetric(100*float64(st.LinksNexthop)/float64(total), "%nexthop")
		b.ReportMetric(100*float64(st.IRsEchoOnlyLink)/float64(st.IRsWithLinks), "%echo-only-IRs")
		b.ReportMetric(100*float64(st.LastHopEmptyDst)/float64(st.LastHopIRs), "%lasthop-emptydest")
	}
}

// BenchmarkDatasetStats regenerates the §4.1/§5 prose statistics
// (paper: 99.95% of addresses covered by BGP ∪ RIR ∪ IXP).
func BenchmarkDatasetStats(b *testing.B) {
	ds := benchDataset(b)
	addrs := eval.ObservedAddrs(ds.Traces)
	for i := 0; i < b.N; i++ {
		cov := ds.Resolver.Measure(addrs)
		b.ReportMetric(100*cov.Fraction(), "%covered")
	}
}

// BenchmarkFig15SingleVP regenerates Fig. 15: single in-network VP,
// bdrmapIT vs bdrmap accuracy per ground-truth network.
func BenchmarkFig15SingleVP(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rows := eval.RunFig15(ds)
		var it, bd float64
		for _, r := range rows {
			it += r.BdrmapIT
			bd += r.Bdrmap
		}
		n := float64(len(rows))
		b.ReportMetric(100*it/n, "%bdrmapIT-acc")
		b.ReportMetric(100*bd/n, "%bdrmap-acc")
	}
}

// BenchmarkFig16NoInNetVP regenerates Fig. 16: Internet-wide precision
// and recall for bdrmapIT vs MAP-IT with no in-network VPs.
func BenchmarkFig16NoInNetVP(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rows := eval.RunFig16(ds, false)
		reportFig16(b, rows)
	}
}

// BenchmarkFig17NoLastHop regenerates Fig. 17: the same comparison
// excluding links seen only as the last traceroute hop.
func BenchmarkFig17NoLastHop(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rows := eval.RunFig16(ds, true)
		reportFig16(b, rows)
	}
}

func reportFig16(b *testing.B, rows []eval.Fig16Row) {
	var itP, itR, mP, mR float64
	for _, r := range rows {
		itP += r.BdrmapIT.Precision()
		itR += r.BdrmapIT.Recall()
		mP += r.MAPIT.Precision()
		mR += r.MAPIT.Recall()
	}
	n := float64(len(rows))
	b.ReportMetric(100*itP/n, "%bdrmapIT-P")
	b.ReportMetric(100*itR/n, "%bdrmapIT-R")
	b.ReportMetric(100*mP/n, "%MAP-IT-P")
	b.ReportMetric(100*mR/n, "%MAP-IT-R")
}

// BenchmarkFig18VPSweep regenerates Fig. 18: precision/recall across
// 20/40/60/80-VP subsets (5 random sets each; paper: no degradation).
func BenchmarkFig18VPSweep(b *testing.B) {
	ds := benchDataset(b)
	sizes := []int{20, 40, 60, 80}
	if testing.Short() {
		sizes = []int{5, 10, 15}
	}
	for i := 0; i < b.N; i++ {
		rows := eval.RunVPSweep(ds, sizes, 5)
		// Report the smallest and largest groups' mean recall: the
		// paper's claim is their equality.
		var loR, hiR, loN, hiN float64
		for _, r := range rows {
			if r.NumVPs == sizes[0] {
				loR += r.RecMean
				loN++
			}
			if r.NumVPs == sizes[len(sizes)-1] {
				hiR += r.RecMean
				hiN++
			}
		}
		b.ReportMetric(100*loR/loN, "%recall-fewest-vps")
		b.ReportMetric(100*hiR/hiN, "%recall-most-vps")
	}
}

// BenchmarkFig19VisibleLinks regenerates Fig. 19: the fraction of
// interdomain links visible as the VP count grows.
func BenchmarkFig19VisibleLinks(b *testing.B) {
	ds := benchDataset(b)
	sizes := []int{20, 40, 60, 80}
	if testing.Short() {
		sizes = []int{5, 10, 15}
	}
	for i := 0; i < b.N; i++ {
		rows := eval.RunVPSweep(ds, sizes, 5)
		var lo, hi, loN, hiN float64
		for _, r := range rows {
			if r.NumVPs == sizes[0] {
				lo += r.VisibleMean
				loN++
			}
			if r.NumVPs == sizes[len(sizes)-1] {
				hi += r.VisibleMean
				hiN++
			}
		}
		b.ReportMetric(100*lo/loN, "%visible-fewest-vps")
		b.ReportMetric(100*hi/hiN, "%visible-most-vps")
	}
}

// BenchmarkFig20AliasResolution regenerates Fig. 20: router-annotation
// accuracy over multi-alias IRs with precise (midar+iffinder) vs
// imprecise (kapar) alias resolution.
func BenchmarkFig20AliasResolution(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rows := eval.RunFig20(ds)
		var ma, ka float64
		for _, r := range rows {
			ma += r.MidarAcc
			ka += r.KaparAcc
		}
		n := float64(len(rows))
		b.ReportMetric(100*ma/n, "%midar-acc")
		b.ReportMetric(100*ka/n, "%kapar-acc")
	}
}

// BenchmarkNoAliasDelta regenerates the §7.4 no-alias-resolution
// comparison (paper: <0.1% accuracy difference).
func BenchmarkNoAliasDelta(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		with := ds.RunBdrmapIT(ds.Aliases, core.Options{})
		without := ds.RunBdrmapIT(eval.EmptyAliases(), core.Options{})
		wa, _ := ds.OverallAccuracy(with)
		na, _ := ds.OverallAccuracy(without)
		b.ReportMetric(100*(wa-na), "pp-delta")
	}
}

// BenchmarkAblations measures each heuristic's contribution by
// disabling it (the DESIGN.md ablation index).
func BenchmarkAblations(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rows := eval.RunAblations(ds)
		for _, r := range rows {
			if r.Name == "all heuristics" {
				b.ReportMetric(100*r.Accuracy, "%acc-all-heuristics")
			}
		}
	}
}

// BenchmarkInference measures the raw inference cost over the shared
// campaign (graph construction + refinement), the number a downstream
// ITDK-scale user cares about.
func BenchmarkInference(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ds.RunBdrmapIT(nil, core.Options{})
		if res.Graph == nil {
			b.Fatal("no result")
		}
	}
	b.ReportMetric(float64(len(ds.Traces))/1000, "ktraces")
}

// buildBenchGraph runs phase 1 (graph construction) for the refinement
// benchmarks, which need a fresh graph per measured run.
func buildBenchGraph(ds *eval.Dataset, workers int) *core.Graph {
	bld := core.NewBuilder(ds.Resolver, ds.Aliases)
	bld.Workers = workers
	for _, t := range ds.Traces {
		bld.AddTrace(t)
	}
	return bld.Finish(ds.Rels)
}

// BenchmarkRefineWorkers measures the phase 2–3 engine — last-hop
// annotation plus the §6.3 refinement loop — at 1/2/4/8 workers over
// the shared campaign. The sharded engine is deterministic, so every
// worker count produces identical annotations; the sweep captures the
// pure speedup trajectory in BENCH_*.json.
func BenchmarkRefineWorkers(b *testing.B) {
	ds := benchDataset(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := buildBenchGraph(ds, w)
				b.StartTimer()
				res := mustRun(b, g, ds.Rels, core.Options{Workers: w})
				if !res.Converged {
					b.Fatal("refinement did not converge")
				}
			}
		})
	}
}

// BenchmarkRefineRecorder measures the telemetry overhead of the
// refinement engine: the same phase 2–3 run with no recorder versus a
// live one. The instrumented variant must stay within a few percent of
// the no-op baseline (per-shard tallies merge once per shard, so the
// hot loop sees only plain integer increments).
func BenchmarkRefineRecorder(b *testing.B) {
	ds := benchDataset(b)
	for _, mode := range []string{"off", "on"} {
		b.Run("recorder="+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := buildBenchGraph(ds, 0)
				opts := core.Options{}
				if mode == "on" {
					opts.Recorder = obs.New()
				}
				b.StartTimer()
				res := mustRun(b, g, ds.Rels, opts)
				if !res.Converged {
					b.Fatal("refinement did not converge")
				}
			}
		})
	}
}

// BenchmarkInferenceWorkers measures the full pipeline (parallel IP→AS
// pre-resolution, graph build, refinement) across the same worker
// sweep — the end-to-end number the -workers flag controls.
func BenchmarkInferenceWorkers(b *testing.B) {
	ds := benchDataset(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ds.RunBdrmapIT(nil, core.Options{Workers: w})
				if res.Graph == nil {
					b.Fatal("no result")
				}
			}
		})
	}
}

// BenchmarkServeSnapshot measures building the serving snapshot from a
// finished run — the tables an ingest session rebuilds at every publish,
// given the annotations rendering and the sorted prefix table it already
// holds. allocs/op must not grow with the graph
// (TestServeSnapshotAllocsFlat).
func BenchmarkServeSnapshot(b *testing.B) {
	ds := benchDataset(b)
	res := mustRun(b, buildBenchGraph(ds, 1), ds.Rels, core.Options{Workers: 1})
	r := &Result{res: res, resolver: ds.Resolver, Iterations: res.Iterations, Converged: res.Converged}
	prefixes := sortedPrefixes(ds.Resolver)
	r.rendering()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snapBenchSink, err = r.serveSnapshot(prefixes); err != nil {
			b.Fatal(err)
		}
	}
}

// snapBenchSink keeps the compiler from discarding a snapshot build.
var snapBenchSink *serve.Snapshot
