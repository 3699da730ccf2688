// Command bdrmapit runs the full bdrmapIT inference over measurement
// dataset files and reports router operator annotations and inferred
// interdomain links.
//
// Usage:
//
//	bdrmapit -traces FILE[,FILE...] -rib FILE [-rir FILE] [-ixp FILE]
//	         [-rels FILE] [-aliases FILE] [-annotations OUT] [-links OUT]
//	         [-workers N]
//
// Traceroute files may be JSON-lines (.jsonl) or the compact binary
// form (.bin). With no -rels file, AS relationships are inferred from
// the RIB. The -annotations output is "address router-AS connected-AS"
// per observed interface; -links is "nearAS farAS farAddress
// confidence" per inferred interdomain link.
//
// Telemetry: a run report (phase timings, convergence trace, heuristic
// counters) is printed to stderr after the run and written as JSON with
// -report-json. -v streams progress logs while the run executes, and
// -metrics-addr serves live expvar-style metrics plus net/http/pprof
// at http://ADDR/debug/ for profiling long runs.
//
// Resilience: SIGINT/SIGTERM (and -timeout) cancel the run gracefully —
// input loading and graph construction abort within one chunk of
// traces, even mid-file, while a run that already
// reached refinement stops at the next iteration boundary and still
// writes its outputs, marked with a "# PARTIAL" footer. A second signal
// force-exits immediately with status 130. -strict turns every degraded input
// source into a hard error; -max-bad-inputs N tolerates up to N
// unreadable required files (traceroutes, RIBs) before aborting.
//
// Durability: -checkpoint-dir makes refinement crash-safe — the run's
// first and final (converged, capped or cancelled) states are
// snapshotted with atomic-rename semantics and nothing between, and
// -resume restarts a killed run from the snapshot, producing output
// byte-identical to an uninterrupted run at any worker count.
// Resume refuses checkpoints taken under different heuristic options or
// input files.
// Every output file (annotations, links, ITDK, JSON report) is also
// published atomically, so a kill at any instant never leaves a torn
// file.
//
// Provenance: -provenance OUT records why every router got its
// annotation (winning heuristic, vote tally, tie-break path, iteration
// of last change) into a CRC-guarded artifact, byte-identical at any
// worker count and across resumes, at no change to the annotations
// themselves. Query it with the explain command: "explain OUT IP"
// prints one router's decision chain, "explain -diff OLD NEW" reports
// annotation drift between two runs grouped by flipped heuristic.
//
// Serving: -serve-snapshot OUT writes the completed inference as a
// validated serving snapshot — the artifact cmd/bdrmapitd loads and
// hot-swaps to answer annotation lookups over HTTP. Interrupted runs
// skip it: a daemon cannot mark partial answers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	bdrmapit "repro"
	"repro/cmd/internal/cli"
	"repro/internal/ckpt"
	"repro/internal/obs"
)

func split(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bdrmapit: ")
	var (
		traces  = flag.String("traces", "", "traceroute file(s), comma separated (required)")
		rib     = flag.String("rib", "", "BGP RIB file(s), comma separated")
		rirF    = flag.String("rir", "", "RIR extended delegation file(s)")
		ixpF    = flag.String("ixp", "", "IXP prefix list file(s)")
		rels    = flag.String("rels", "", "AS relationship file(s) (serial-1); inferred from the RIB when absent")
		aliases = flag.String("aliases", "", "ITDK alias nodes file(s)")
		annOut  = flag.String("annotations", "", "write per-interface annotations to this file")
		lnkOut  = flag.String("links", "", "write inferred interdomain links to this file")
		itdkOut = flag.String("itdk", "", "write ITDK-format output (nodes, nodes.as, links) into this directory")
		maxIter = flag.Int("max-iterations", 0, "refinement iteration cap (default 50)")
		workers = flag.Int("workers", 0, "concurrent annotation workers (default GOMAXPROCS; results are identical for any count)")
		verbose = flag.Bool("v", false, "stream progress logs to stderr while the run executes")
		metrics = flag.String("metrics-addr", "", "serve live metrics and pprof at this address (e.g. localhost:6060)")
		repJSON = flag.String("report-json", "", "write the run report as JSON to this file (- for stdout)")
		quiet   = flag.Bool("quiet-report", false, "suppress the stderr run-report summary")
		timeout = flag.Duration("timeout", 0, "cancel the run after this long, flushing partial annotations (0 = no limit)")
		strict  = flag.Bool("strict", false, "treat any degraded input source as a hard error")
		maxBad  = flag.Int("max-bad-inputs", 0, "tolerate up to N unreadable required input files before aborting")
		ckptDir = flag.String("checkpoint-dir", "", "snapshot the first and final refinement states into this directory for crash-safe resume")
		resume  = flag.Bool("resume", false, "restore the snapshot in -checkpoint-dir and continue the run from there")
		provOut = flag.String("provenance", "", "collect per-router decision provenance and write the artifact to this file (query with cmd/explain)")
		srvOut  = flag.String("serve-snapshot", "", "write a serving snapshot to this file for bdrmapitd to load or hot-swap")
	)
	flag.Parse()
	if *traces == "" {
		log.Fatal("-traces is required")
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir (the directory holding the snapshot to restore)")
	}

	// Probe every output destination up front: a run that crunches for
	// hours and then dies on an unwritable path is the failure mode the
	// checkpoint subsystem exists to prevent, so misconfiguration must
	// surface before any real work starts.
	for _, dir := range []string{*ckptDir, *itdkOut} {
		if dir != "" {
			if err := cli.EnsureWritableDir(dir); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, out := range []string{*annOut, *lnkOut, *repJSON, *provOut, *srvOut} {
		if out != "" && out != "-" {
			if err := cli.EnsureWritableDir(filepath.Dir(out)); err != nil {
				log.Fatal(err)
			}
		}
	}

	cli.CrashAtEnv()
	// Stall seam for the signal tests: announce and hold at the named
	// point so a test can deliver signals at a deterministic instant
	// instead of racing a sub-second run. The hold is bounded so a
	// test that dies without signalling leaves no immortal process.
	if point := os.Getenv("BDRMAPIT_STALL_AT"); point != "" {
		ckpt.TestHook = func(p string) {
			if p == point {
				fmt.Fprintf(os.Stderr, "bdrmapit: test stall at %s\n", p)
				time.Sleep(time.Minute)
			}
		}
	}

	// First SIGINT/SIGTERM (or -timeout) cancels the run gracefully; a
	// second signal force-exits with a distinct status.
	ctx, cancel := cli.SignalContext("bdrmapit", "run", *timeout)
	defer cancel()

	rec := obs.New()
	if *verbose {
		rec.SetLogOutput(os.Stderr)
	}
	if *metrics != "" {
		addr, err := obs.Serve(*metrics, rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics and pprof at http://%s/debug/\n", addr)
	}
	res, err := bdrmapit.RunContext(ctx, bdrmapit.Sources{
		TraceroutePaths:     split(*traces),
		BGPRIBPaths:         split(*rib),
		RIRDelegationPaths:  split(*rirF),
		IXPPrefixListPaths:  split(*ixpF),
		ASRelationshipPaths: split(*rels),
		AliasNodePaths:      split(*aliases),
	}, bdrmapit.Options{
		MaxIterations:    *maxIter,
		Workers:          *workers,
		Recorder:         rec,
		Strict:           *strict,
		MaxBadInputFiles: *maxBad,
		CheckpointDir:    *ckptDir,
		Resume:           *resume,
		Provenance:       *provOut != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Interrupted {
		fmt.Fprintln(os.Stderr,
			"bdrmapit: run interrupted; writing partial annotations from the last committed iteration")
	}
	if res.Resumed {
		fmt.Fprintf(os.Stderr, "bdrmapit: resumed from checkpoint at iteration %d\n", res.ResumedFrom)
	}

	fmt.Printf("interfaces: %d  routers: %d\n", res.NumInterfaces(), res.NumRouters())
	fmt.Printf("refinement: %d iterations (converged: %v)\n", res.Iterations, res.Converged)
	fmt.Printf("interdomain links: %d  distinct AS adjacencies: %d\n",
		len(res.InterdomainLinks()), len(res.ASLinks()))

	// The outputs share nothing but the result they render, so they are
	// published side by side; what is reported, and which failure ends
	// the run, goes by the order they are listed in.
	type output struct {
		write func() error
		done  string
	}
	var outputs []output
	if *annOut != "" {
		outputs = append(outputs, output{
			func() error { return ckpt.AtomicWrite(*annOut, res.Annotations) },
			"annotations written to " + *annOut})
	}
	if *lnkOut != "" {
		outputs = append(outputs, output{
			func() error { return ckpt.AtomicWrite(*lnkOut, res.Links) },
			"links written to " + *lnkOut})
	}
	if *itdkOut != "" {
		outputs = append(outputs, output{
			func() error { return res.WriteITDK(*itdkOut) },
			"ITDK files written to " + *itdkOut})
	}
	if *provOut != "" {
		outputs = append(outputs, output{
			func() error { return res.WriteProvenance(*provOut) },
			"provenance written to " + *provOut})
	}
	if *srvOut != "" && !res.Interrupted {
		outputs = append(outputs, output{
			func() error { return res.WriteServeSnapshot(*srvOut) },
			"serve snapshot written to " + *srvOut})
	}
	writes := make([]func() error, len(outputs))
	for i, o := range outputs {
		writes[i] = o.write
	}
	for i, err := range ckpt.Concurrently(writes...) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(outputs[i].done)
	}
	if *srvOut != "" && res.Interrupted {
		// A daemon must never serve a partial map as authoritative;
		// the other outputs carry their PARTIAL markers, this one is
		// simply not produced.
		fmt.Fprintln(os.Stderr, "bdrmapit: skipping -serve-snapshot: run was interrupted and a daemon cannot mark partial answers")
	}

	if !*quiet {
		obs.WriteSummary(os.Stderr, res.Report)
	}
	if *repJSON != "" {
		if err := cli.WriteReportJSON(*repJSON, res.Report); err != nil {
			log.Fatal(err)
		}
	}
}
