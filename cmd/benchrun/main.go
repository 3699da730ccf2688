// Command benchrun runs the full inference pipeline over one benchmark-
// ladder rung — streaming topology generation, traceroute campaign,
// alias resolution, graph construction, last-hop annotation, and
// refinement — and emits a schema-versioned BENCH_<rung>.json artifact
// with wall clock, peak RSS, per-phase timings, and the refinement
// loop's per-iteration cost.
//
// Unless -skip-provenance is set, the run then replays phases 2–3 over
// the same graph with decision provenance on (Options.Provenance),
// verifies the annotations are byte-identical, and records the
// per-iteration cost, the derivation pass included.
//
// Usage:
//
//	benchrun -rung S [-seed N] [-workers N] [-out FILE]
//	         [-chunk N] [-aliases=false] [-skip-provenance]
//	         [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"hash/fnv"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/benchfmt"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrun: ")
	var (
		rungName   = flag.String("rung", "S", "benchmark ladder rung (S, M, L, XL)")
		seed       = flag.Int64("seed", 2018, "generation seed")
		workers    = flag.Int("workers", 8, "annotation worker count")
		out        = flag.String("out", "", "output file (default BENCH_<rung>.json)")
		chunk      = flag.Int("chunk", 0, "campaign streaming chunk (default: the rung's)")
		aliases    = flag.Bool("aliases", true, "resolve aliases (midar+iffinder) before inference")
		skipProv   = flag.Bool("skip-provenance", false, "skip the provenance-overhead comparison run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the pipeline")
		memprofile = flag.String("memprofile", "", "write a heap profile at pipeline end")
	)
	flag.Parse()

	rung, err := topo.LadderRung(*rungName, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if rung.Manual {
		log.Printf("note: rung %s is a manual target (not sized for CI); expect a long run", rung.Name)
	}
	if *out == "" {
		*out = "BENCH_" + rung.Name + ".json"
	}
	if *chunk > 0 {
		rung.Chunk = *chunk
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rec := obs.New()

	ph := rec.Phase("generate")
	in, err := topo.Generate(rung.Cfg)
	if err != nil {
		log.Fatal(err)
	}
	ph.Note("ases", int64(len(in.ASList)))
	ph.Note("routers", int64(len(in.Routers)))
	ph.End()
	log.Printf("rung %s: %d ASes, %d routers, %d interfaces",
		rung.Name, len(in.ASList), len(in.Routers), len(in.IfaceByAddr))

	vps := in.SelectVPs(rung.NumVPs, nil)
	targets := in.Targets()
	ph = rec.Phase("campaign")
	traces := in.CollectCampaign(vps, targets, rung.Chunk)
	ph.Note("traces", int64(len(traces)))
	ph.End()
	log.Printf("campaign: %d VPs x %d targets -> %d traces", len(vps), len(targets), len(traces))

	var sets *alias.Sets
	if *aliases {
		ph = rec.Phase("aliases")
		addrs := eval.ObservedAddrs(traces)
		p := in.Prober()
		sets = alias.Merge(alias.MIDAR(p, addrs, alias.MIDAROptions{}), alias.Iffinder(p, addrs))
		ph.Note("addrs", int64(len(addrs)))
		ph.End()
	}

	resolver := in.Resolver()
	rels := asrel.Infer(in.ASPaths())

	ctx := context.Background()
	res, err := core.InferContext(ctx, traces, resolver, sets, rels, core.Options{
		Workers:  *workers,
		Recorder: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	digest := annotationDigest(res.Graph)
	log.Printf("inference: %d IRs, %d interfaces, %d iterations (converged=%v), digest %016x",
		len(res.Graph.Routers), len(res.Graph.Interfaces), res.Iterations, res.Converged, digest)

	rep := rec.Report()
	file := &benchfmt.File{
		SchemaVersion: benchfmt.SchemaVersion,
		Rung:          rung.Name,
		Seed:          *seed,
		Workers:       *workers,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		WallNS:        rep.WallNS,
		PeakRSSBytes:  rep.PeakRSSBytes,
		Topology: benchfmt.Topology{
			ASes:            len(in.ASList),
			Routers:         len(in.Routers),
			Interfaces:      len(in.IfaceByAddr),
			VPs:             len(vps),
			Targets:         len(targets),
			Traces:          len(traces),
			GraphRouters:    len(res.Graph.Routers),
			GraphInterfaces: len(res.Graph.Interfaces),
		},
		Refine: benchfmt.Refine{
			Iterations: res.Iterations,
			Converged:  res.Converged,
		},
	}
	var refineNS int64
	for _, p := range rep.Phases {
		file.Phases = append(file.Phases, benchfmt.Phase{Name: p.Name, DurationNS: p.DurationNS})
		if p.Name == "refine" {
			refineNS = p.DurationNS
		}
	}
	if res.Iterations > 0 {
		file.Refine.PerIterNS = refineNS / int64(res.Iterations)
	}

	if !*skipProv {
		// Replay phases 2–3 with decision provenance on. It is derived
		// after the loop and never read by the heuristics, so the digest
		// must not move; the timing difference is the derivation's cost.
		res.Graph.ResetAnnotations()
		provRec := obs.New()
		provRes, err := core.RunContext(ctx, res.Graph, rels, core.Options{
			Workers:    *workers,
			Provenance: true,
			Recorder:   provRec,
		})
		if err != nil {
			log.Fatal(err)
		}
		provDigest := annotationDigest(provRes.Graph)
		if provDigest != digest {
			log.Fatalf("provenance-on divergence: digest %016x with provenance, %016x without", provDigest, digest)
		}
		if provRes.Iterations != res.Iterations {
			log.Fatalf("provenance-on divergence: %d vs %d iterations", provRes.Iterations, res.Iterations)
		}
		var provNS int64
		for _, p := range provRec.Report().Phases {
			if p.Name == "refine" {
				provNS = p.DurationNS
			}
		}
		if provRes.Iterations > 0 {
			file.Refine.ProvPerIterNS = provNS / int64(provRes.Iterations)
		}
		if file.Refine.PerIterNS > 0 && file.Refine.ProvPerIterNS > 0 {
			file.Refine.ProvOverheadPct = 100 * (float64(file.Refine.ProvPerIterNS)/float64(file.Refine.PerIterNS) - 1)
		}
		log.Printf("refine per-iteration: provenance on %s, off %s (%+.1f%% overhead); annotations byte-identical",
			obs.FormatDuration(file.Refine.ProvPerIterNS), obs.FormatDuration(file.Refine.PerIterNS),
			file.Refine.ProvOverheadPct)
	}

	if err := file.Validate(); err != nil {
		log.Fatalf("refusing to write invalid bench file: %v", err)
	}
	if err := benchfmt.Write(*out, file); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: wall %s, peak rss %s",
		*out, obs.FormatDuration(file.WallNS), obs.FormatBytes(file.PeakRSSBytes))

	if *memprofile != "" {
		runtime.GC()
		if err := ckpt.AtomicWrite(*memprofile, func(w io.Writer) error {
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			log.Fatal(err)
		}
	}
}

// annotationDigest hashes every router and interface annotation in
// deterministic (sorted-address) order: the provenance replay's
// equivalence self-check.
func annotationDigest(g *core.Graph) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, i := range g.Interfaces {
		b := i.Addr.As16()
		copy(buf[:16], b[:])
		r := uint32(i.Router.Annotation)
		buf[16], buf[17], buf[18], buf[19] = byte(r>>24), byte(r>>16), byte(r>>8), byte(r)
		v := uint32(i.Annotation)
		buf[20], buf[21], buf[22], buf[23] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		if _, err := h.Write(buf[:]); err != nil {
			panic(err)
		}
	}
	return h.Sum64()
}
