// Command bdrmapit-ingest absorbs traceroute batches into a completed
// bdrmapIT map continuously and crash-safely: given the base corpus of
// a finished run and a sequence of new batch files, it delta-refines
// only the part of the router graph each batch can affect and
// republishes the annotations after every absorption.
//
// Usage:
//
//	bdrmapit-ingest -state DIR -traces FILE[,FILE...] -rib FILE
//	                -batch FILE[,FILE...] [-annotations OUT]
//	                [-serve-snapshot OUT] [-reload-addr HOST:PORT]
//	                [-verify-delta] [-workers N]
//
// -state names the durable intake directory: the refinement
// checkpoint, the write-ahead intake journal, durable copies of
// absorbed batches, the quarantine directory, and the Builder image
// (builder.img). The first run bootstraps it with a full inference over
// the base corpus; every later run (and every crash recovery) picks up
// exactly where the journal says the last one stopped. Re-offering
// already-absorbed batches is free: they are skipped by content
// fingerprint.
//
// A restart does not re-read the corpus: a finished session saves its
// graph as builder.img, and the next starts from it and streams only the
// batches absorbed since. The base files are still digested (a changed
// base is refused); a damaged or mismatched image is a warning and a
// rebuild from the corpus.
//
// Robustness: every batch transition is journaled before it takes
// effect, so a SIGKILL at any byte boundary neither loses nor
// double-applies a batch. Batches that fail validation — malformed
// JSONL (beyond -max-bad-records), replayed content under a new name,
// unreadable files after bounded retry — are quarantined with a typed
// reason and never block the batches behind them. -verify-delta turns
// on the equivalence oracle: each absorbed batch's output is proven
// byte-identical to a from-scratch run over the merged corpus at
// workers 1, 4, and 8 before the batch is marked applied.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	bdrmapit "repro"
	"repro/cmd/internal/cli"
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
	log.SetPrefix("bdrmapit-ingest: ")
	var (
		state    = flag.String("state", "", "durable intake state directory: checkpoint, journal, absorbed copies, quarantine, builder image (required)")
		traces   = flag.String("traces", "", "base corpus traceroute file(s), comma separated (required; must stay identical across sessions)")
		rib      = flag.String("rib", "", "BGP RIB file(s), comma separated")
		rirF     = flag.String("rir", "", "RIR extended delegation file(s)")
		ixpF     = flag.String("ixp", "", "IXP prefix list file(s)")
		rels     = flag.String("rels", "", "AS relationship file(s) (serial-1); inferred from the RIB when absent")
		aliases  = flag.String("aliases", "", "ITDK alias nodes file(s)")
		batch    = flag.String("batch", "", "new traceroute batch file(s) to absorb, comma separated, in order")
		annOut   = flag.String("annotations", "", "republish per-interface annotations to this file after each absorbed batch")
		srvOut   = flag.String("serve-snapshot", "", "republish a bdrmapitd serving snapshot to this file after each absorbed batch")
		reload   = flag.String("reload-addr", "", "bdrmapitd address whose /-/reload is triggered after each snapshot publish")
		verify   = flag.Bool("verify-delta", false, "prove each absorption byte-identical to a from-scratch run on the merged corpus at workers 1, 4, and 8")
		maxIter  = flag.Int("max-iterations", 0, "refinement iteration cap (default 50)")
		workers  = flag.Int("workers", 0, "concurrent annotation workers (default GOMAXPROCS; results are identical for any count)")
		verbose  = flag.Bool("v", false, "stream progress logs to stderr")
		repJSON  = flag.String("report-json", "", "write the session report as JSON to this file (- for stdout)")
		quiet    = flag.Bool("quiet-report", false, "suppress the stderr run-report summary")
		timeout  = flag.Duration("timeout", 0, "cancel the session after this long (the in-flight batch stays pending and a restart redoes it; 0 = no limit)")
		strict   = flag.Bool("strict", false, "treat any degraded base input source as a hard error")
		maxBadIn = flag.Int("max-bad-inputs", 0, "tolerate up to N unreadable required base input files before aborting")
		maxBadRe = flag.Int("max-bad-records", 0, "per-batch malformed-line budget before the batch is quarantined")
	)
	flag.Parse()
	if *state == "" {
		log.Fatal("-state is required")
	}
	if *traces == "" {
		log.Fatal("-traces is required (the base corpus the intake state was built over)")
	}

	if err := cli.EnsureWritableDir(*state); err != nil {
		log.Fatal(err)
	}
	for _, out := range []string{*annOut, *srvOut, *repJSON} {
		if out != "" && out != "-" {
			if err := cli.EnsureWritableDir(filepath.Dir(out)); err != nil {
				log.Fatal(err)
			}
		}
	}

	cli.CrashAtEnv()
	ctx, cancel := cli.SignalContext("bdrmapit-ingest", "session", *timeout)
	defer cancel()

	rec := obs.New()
	if *verbose {
		rec.SetLogOutput(os.Stderr)
	}
	res, err := bdrmapit.IngestContext(ctx, bdrmapit.Sources{
		TraceroutePaths:     split(*traces),
		BGPRIBPaths:         split(*rib),
		RIRDelegationPaths:  split(*rirF),
		IXPPrefixListPaths:  split(*ixpF),
		ASRelationshipPaths: split(*rels),
		AliasNodePaths:      split(*aliases),
	}, split(*batch), bdrmapit.IngestOptions{
		StateDir:        *state,
		AnnotationsPath: *annOut,
		SnapshotPath:    *srvOut,
		ReloadAddr:      *reload,
		VerifyDelta:     *verify,
		MaxBadRecords:   *maxBadRe,
		Run: bdrmapit.Options{
			MaxIterations:    *maxIter,
			Workers:          *workers,
			Recorder:         rec,
			Strict:           *strict,
			MaxBadInputFiles: *maxBadIn,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Interrupted {
		fmt.Fprintln(os.Stderr,
			"bdrmapit-ingest: session interrupted; the in-flight batch stays journaled as pending and the next run redoes it")
	}

	for _, o := range res.Outcomes {
		line := fmt.Sprintf("batch %s (fp %016x): %s", o.Name, o.FP, o.Decision)
		if o.Quarantined {
			line += " [" + o.Reason + "]"
		} else if o.Iterations > 0 {
			line += fmt.Sprintf(" (%d traces, %d iterations)", o.Traces, o.Iterations)
		}
		fmt.Println(line)
	}
	fmt.Printf("absorbed: %d  skipped: %d  quarantined: %d\n",
		res.Absorbed, res.Skipped, res.Quarantined)

	if !*quiet {
		obs.WriteSummary(os.Stderr, res.Report)
	}
	if *repJSON != "" {
		if err := cli.WriteReportJSON(*repJSON, res.Report); err != nil {
			log.Fatal(err)
		}
	}
	if res.Interrupted {
		os.Exit(3)
	}
}
