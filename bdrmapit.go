// Package bdrmapit infers the Autonomous System that operates each
// router observed in a collection of traceroutes, and from those
// annotations identifies interdomain links — a Go implementation of
// bdrmapIT (Marder et al., "Pushing the Boundaries with bdrmapIT:
// Mapping Router Ownership at Internet Scale", IMC 2018).
//
// The package consumes the same inputs as the published tool: archived
// traceroutes, BGP RIB dumps, RIR extended delegation files, IXP prefix
// directories, AS relationship files (CAIDA serial-1), and alias
// resolution node files (ITDK format). A typical run:
//
//	src := bdrmapit.Sources{
//	    TraceroutePaths:     []string{"traces.jsonl"},
//	    BGPRIBPaths:         []string{"rib.txt"},
//	    RIRDelegationPaths:  []string{"delegated-extended.txt"},
//	    IXPPrefixListPaths:  []string{"ixp-prefixes.txt"},
//	    ASRelationshipPaths: []string{"as-rel.txt"},
//	    AliasNodePaths:      []string{"nodes.txt"},
//	}
//	res, err := bdrmapit.Run(src, bdrmapit.Options{})
//	...
//	for _, l := range res.InterdomainLinks() { ... }
//
// When no relationship file is given, relationships are inferred from
// the RIB's AS paths. When no alias file is given, each interface is
// treated as its own router (the paper shows accuracy is nearly
// unchanged, §7.4).
package bdrmapit

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/ip2as"
	"repro/internal/itdk"
	"repro/internal/obs"
	"repro/internal/prov"
)

// Sources names the input files of a run. Traceroute files may be
// JSON-lines (.jsonl/.json) or the compact binary form (.bin); all
// other formats are documented in their package of origin.
type Sources struct {
	// TraceroutePaths are the traceroute archives (required).
	TraceroutePaths []string
	// BGPRIBPaths are RIB dumps: "prefix|as path" text or MRT
	// TABLE_DUMP_V2 (.mrt).
	BGPRIBPaths []string
	// Prefix2ASPaths are CAIDA routeviews-prefix2as files — a
	// precomputed origin mapping usable instead of (or alongside) raw
	// RIBs. They carry no AS paths, so supply ASRelationshipPaths when
	// using them alone.
	Prefix2ASPaths []string
	// RIRDelegationPaths are RIR extended delegation files.
	RIRDelegationPaths []string
	// IXPPrefixListPaths are IXP peering-LAN prefix lists (plain list,
	// .json, or .csv).
	IXPPrefixListPaths []string
	// ASRelationshipPaths are CAIDA serial-1 relationship files. When
	// empty, relationships are inferred from the RIB AS paths.
	ASRelationshipPaths []string
	// AliasNodePaths are ITDK-format alias node files.
	AliasNodePaths []string
}

// Options controls the inference; the zero value enables every
// heuristic with the default iteration cap.
type Options struct {
	// MaxIterations caps the refinement loop (default 50).
	MaxIterations int
	// Workers is the number of concurrent workers used for IP→AS
	// resolution, graph finishing, and each refinement iteration
	// (default: runtime.GOMAXPROCS). The engine shards work
	// deterministically, so any worker count produces byte-identical
	// annotations; 1 disables concurrency.
	Workers int
	// DisableLastHopDestinations ablates the §5.2 last-hop heuristic.
	DisableLastHopDestinations bool
	// DisableThirdParty ablates the §6.1.1 third-party address test.
	DisableThirdParty bool
	// DisableReallocated ablates the §6.1.2 reallocated-prefix fix.
	DisableReallocated bool
	// DisableExceptions ablates the §6.1.3 voting exceptions.
	DisableExceptions bool
	// DisableHiddenAS ablates the §6.1.5 hidden-AS check.
	DisableHiddenAS bool
	// DisableDestTieBreak ablates the destination-coverage vote
	// tie-break (an extension beyond the paper; see DESIGN.md).
	DisableDestTieBreak bool
	// Recorder receives run telemetry: phase timings, loader and
	// heuristic counters, and the per-iteration convergence trace. When
	// nil, Run creates one internally so Result.Report is always
	// populated; supply a recorder to stream progress logs
	// (Recorder.SetLogOutput) or serve live metrics (obs.Serve) during
	// the run.
	Recorder *obs.Recorder
	// Strict turns every input-source failure into a hard error: no
	// optional-source degradation, no required-source error budget. Use
	// it when inputs are expected to be pristine and a silent fallback
	// would hide an operational problem.
	Strict bool
	// MaxBadInputFiles is the error budget for required sources
	// (traceroutes, BGP RIBs): up to this many corrupt or missing
	// required files are skipped with a loud warning before the run
	// aborts. Default 0 — any bad required file aborts. Ignored under
	// Strict. Optional sources (alias, IXP, RIR, relationships,
	// prefix2as) never consume the budget; they degrade to the paper's
	// documented fallbacks and are recorded in Report.Degradations.
	MaxBadInputFiles int
	// WarnWriter receives the loud degradation and skipped-file
	// warnings. nil means os.Stderr; use io.Discard to silence.
	WarnWriter io.Writer
	// CheckpointDir, when set, makes the refinement loop durable: the
	// run's iteration-0 state and its final one (converged, capped or
	// cancelled) are snapshotted into this directory (created if needed)
	// with atomic-rename semantics, and nothing between, so a run killed
	// at any instant can restart with Resume — from iteration 0 when the
	// kill landed inside refinement — and finish byte-identically to an
	// uninterrupted run. Snapshots record a fingerprint of the heuristic
	// options and a digest of every input file; worker count and the
	// iteration cap are deliberately not part of the fingerprint (both
	// may change across a resume without changing the result).
	CheckpointDir string
	// Resume restores the snapshot in CheckpointDir before refinement
	// and continues after it. A missing snapshot fails with
	// ckpt.ErrNoCheckpoint; one taken under different options or inputs
	// fails with a *ckpt.MismatchError. Ignored without CheckpointDir.
	Resume bool
	// Provenance explains the run's final annotations: which §5/§6.1
	// heuristic decided each router, the final vote tally and runner-up,
	// the tie-break path, and the iteration of the last change, plus
	// each interface's §6.2 branch. The artifact is derived once
	// refinement stops, from the committed state and the run's change
	// sets, so annotations and checkpoints are byte-identical with it on
	// or off, and the artifact (Result.WriteProvenance) is byte-identical
	// across worker counts and resume points — any checkpoint resumes
	// with it. Query it with cmd/explain.
	Provenance bool
}

func (o Options) internal() core.Options {
	return core.Options{
		MaxIterations:       o.MaxIterations,
		Workers:             o.Workers,
		DisableLastHopDest:  o.DisableLastHopDestinations,
		DisableThirdParty:   o.DisableThirdParty,
		DisableRealloc:      o.DisableReallocated,
		DisableExceptions:   o.DisableExceptions,
		DisableHiddenAS:     o.DisableHiddenAS,
		DisableDestTieBreak: o.DisableDestTieBreak,
		Recorder:            o.Recorder,
		Provenance:          o.Provenance,
	}
}

// Link is one inferred interdomain link: the router operated by NearAS
// has a connection to FarAddr, on a router operated by FarAS.
type Link struct {
	NearAS, FarAS uint32
	// NearAddrs are the near router's observed interface addresses.
	NearAddrs []netip.Addr
	// FarAddr is the observed far-side interface.
	FarAddr netip.Addr
	// Confidence is the traceroute-derived link class: "N" (nexthop),
	// "E" (echo), or "M" (multihop), in decreasing confidence order.
	Confidence string
}

// Result holds the annotations of a completed run.
type Result struct {
	res *core.Result
	// resolver is the run's layered ip2as view, retained so serializers
	// (WriteServeSnapshot) can export the prefix tables that produced
	// the annotations.
	resolver *ip2as.Resolver
	// Iterations is the number of refinement iterations executed.
	Iterations int
	// Converged reports whether the refinement loop reached a repeated
	// state before the iteration cap.
	Converged bool
	// Interrupted reports that the run's context was cancelled and the
	// annotations are the last committed refinement iteration's partial
	// result. Serializers (Annotations, WriteITDK) append a PARTIAL
	// marker so downstream consumers cannot mistake the output for a
	// converged run.
	Interrupted bool
	// Report is the run's telemetry snapshot: per-phase wall-clock
	// timings, loader/graph/heuristic counters, and the per-iteration
	// convergence trace. It marshals to JSON and renders with
	// obs.WriteSummary.
	Report *obs.Report
	// Resumed reports that this run restored a checkpoint before
	// continuing (Options.Resume), ResumedFrom the iteration it restored:
	// 0 for a run started from scratch, or killed before its final
	// snapshot was durable. A resumed run's annotations, Iterations, and
	// Report trace are byte-identical to an uninterrupted run's.
	Resumed     bool
	ResumedFrom int

	// rendered is what Annotations writes and annDigest its FNV-64a,
	// rendered once, at the first call that needs either.
	renderOnce sync.Once
	rendered   []byte
	annDigest  uint64
}

// newResult wraps a core run for the serializers; resolver is the
// run's ip2as view.
func newResult(res *core.Result, resolver *ip2as.Resolver) *Result {
	return &Result{
		res:         res,
		resolver:    resolver,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Interrupted: res.Interrupted,
		Report:      res.Report,
		Resumed:     res.Resumed,
		ResumedFrom: res.ResumedFrom,
	}
}

// RouterOperator returns the AS inferred to operate the router that
// uses addr. ok is false when the address was not observed or no
// operator could be inferred.
func (r *Result) RouterOperator(addr netip.Addr) (as uint32, ok bool) {
	a := r.res.OperatorOf(addr)
	return uint32(a), a != asn.None
}

// ConnectedAS returns the AS inferred to be on the far side of addr's
// link.
func (r *Result) ConnectedAS(addr netip.Addr) (as uint32, ok bool) {
	a := r.res.ConnectedAS(addr)
	return uint32(a), a != asn.None
}

// InterdomainLinks enumerates the inferred interdomain links, ordered
// by (NearAS, FarAS, FarAddr).
func (r *Result) InterdomainLinks() []Link {
	var out []Link
	for _, l := range r.res.InterdomainLinks() {
		addrs := make([]netip.Addr, 0, len(l.NearRouter.Interfaces))
		for _, i := range l.NearRouter.Interfaces {
			addrs = append(addrs, i.Addr)
		}
		out = append(out, Link{
			NearAS:     uint32(l.NearAS),
			FarAS:      uint32(l.FarAS),
			NearAddrs:  addrs,
			FarAddr:    l.FarAddr,
			Confidence: l.Label.String(),
		})
	}
	return out
}

// ASLinks returns the distinct inferred AS-level adjacencies as
// unordered pairs with the smaller AS first.
func (r *Result) ASLinks() [][2]uint32 {
	pairs := r.res.ASLinks()
	out := make([][2]uint32, len(pairs))
	for i, p := range pairs {
		out[i] = [2]uint32{uint32(p[0]), uint32(p[1])}
	}
	return out
}

// Annotations writes every router annotation as "address router-AS
// connected-AS" lines, the output format of the published tool. When
// the run was interrupted a trailing "# PARTIAL" comment line marks the
// output as a non-converged partial result.
func (r *Result) Annotations(w io.Writer) error {
	ann, _ := r.rendering()
	_, err := w.Write(ann)
	return err
}

// rendering returns the exact bytes Annotations writes and their
// FNV-64a — the digest ServeSnapshot records, tying the journal's
// applied records to the published artifacts. It renders once per
// Result, from the annotations (and Interrupted and Iterations) as they
// stand at the first call; the slice is shared and must not be
// modified.
func (r *Result) rendering() ([]byte, uint64) {
	r.renderOnce.Do(func() {
		var b []byte
		for _, rt := range r.res.Graph.Routers {
			for _, i := range rt.Interfaces {
				b = i.Addr.AppendTo(b)
				b = append(b, ' ')
				b = strconv.AppendUint(b, uint64(rt.Annotation), 10)
				b = append(b, ' ')
				b = strconv.AppendUint(b, uint64(i.Annotation), 10)
				b = append(b, '\n')
			}
		}
		if r.Interrupted {
			b = fmt.Appendf(b, "# PARTIAL: run interrupted after %d refinement iteration(s); annotations are the last committed iteration, not a converged map\n",
				r.Iterations)
		}
		r.rendered, r.annDigest = b, ckpt.Fingerprint(b)
	})
	return r.rendered, r.annDigest
}

// Links writes every inferred interdomain link as a "near-AS far-AS
// far-address confidence" line, in InterdomainLinks order.
func (r *Result) Links(w io.Writer) error {
	var line []byte
	for _, l := range r.res.InterdomainLinks() {
		line = strconv.AppendUint(line[:0], uint64(l.NearAS), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(l.FarAS), 10)
		line = append(line, ' ')
		line = l.FarAddr.AppendTo(line)
		line = append(line, ' ')
		line = append(line, l.Label.String()...)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteITDK materializes the result in CAIDA ITDK form — the release
// format bdrmapIT's annotations ship in — writing itdk.nodes,
// itdk.nodes.as, and itdk.links into dir (created if needed). Each file
// is published atomically (temp file + fsync + rename), so a killed run
// leaves either no file or a complete one, never a torn prefix; the
// three are written side by side.
func (r *Result) WriteITDK(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bdrmapit: %w", err)
	}
	kit := itdk.FromResult(r.res)
	names := []string{"itdk.nodes", "itdk.nodes.as", "itdk.links"}
	fills := []func(io.Writer) error{kit.WriteNodes, kit.WriteNodesAS, kit.WriteLinks}
	writes := make([]func() error, len(names))
	for i := range names {
		writes[i] = func() error { return ckpt.AtomicWrite(filepath.Join(dir, names[i]), fills[i]) }
	}
	for i, err := range ckpt.Concurrently(writes...) {
		if err != nil {
			return fmt.Errorf("bdrmapit: writing %s: %w", names[i], err)
		}
	}
	return nil
}

// Provenance returns the run's decision-provenance artifact, or nil
// when the run was not started with Options.Provenance.
func (r *Result) Provenance() *prov.Artifact { return r.res.Provenance }

// WriteProvenance serializes the decision-provenance artifact to path
// with the same atomic-publish semantics as checkpoints (temp file +
// fsync + rename): a killed run leaves either no artifact or a complete
// one. It fails when the run holds no artifact (see Provenance).
func (r *Result) WriteProvenance(path string) error {
	if r.res.Provenance == nil {
		return fmt.Errorf("bdrmapit: run holds no provenance (set Options.Provenance)")
	}
	if err := prov.WriteFile(path, r.res.Provenance); err != nil {
		return fmt.Errorf("bdrmapit: writing provenance: %w", err)
	}
	return nil
}

// NumRouters returns the number of inferred routers in the graph.
func (r *Result) NumRouters() int { return len(r.res.Graph.Routers) }

// NumInterfaces returns the number of observed interfaces.
func (r *Result) NumInterfaces() int { return len(r.res.Graph.Interfaces) }

// Run loads every source file and executes the full three-phase
// inference. It is RunContext with a background (never cancelled)
// context.
func Run(src Sources, opts Options) (*Result, error) {
	return RunContext(context.Background(), src, opts)
}

// RunContext is Run with cooperative cancellation and the run's
// failure policy applied. The traceroute files are decoded on a
// goroutine of their own and reach the graph builder chunk by chunk
// while the other inputs load beside them (DESIGN §19), so the corpus is
// never held in memory as a whole — except one file at a time while
// MaxBadInputFiles still has room, since a file that turns out bad must
// not have contributed. The context is observed at every chunk handed
// over during loading and graph construction (and between the files of
// the other input classes), and at batch boundaries inside the
// refinement loop, so any worker count yields byte-identical output.
// Cancellation before the refinement loop starts returns (nil,
// ctx.Err()-wrapping error); once refinement is underway it returns the
// last committed iteration's annotations as a partial Result with
// Interrupted=true and no error — the partial annotations are the
// deliverable. With CheckpointDir set, durability failures (unwritable
// snapshots, refused resumes) are returned as errors; see
// Options.CheckpointDir and Options.Resume.
func RunContext(ctx context.Context, src Sources, opts Options) (*Result, error) {
	if len(src.TraceroutePaths) == 0 {
		return nil, fmt.Errorf("bdrmapit: no traceroute inputs")
	}
	rec := opts.Recorder
	if rec == nil {
		rec = obs.New()
		opts.Recorder = rec
	}
	warnw := opts.WarnWriter
	if warnw == nil {
		warnw = os.Stderr
	}
	l := &loader{ctx: ctx, opts: &opts, rec: rec, warnw: warnw, who: "bdrmapit", corpus: "traceroute"}
	h, _, g, err := l.build(src, nil, nil, opts.CheckpointDir != "")
	if err != nil {
		return nil, err
	}
	defer h.close()

	copts := opts.internal()
	resolver := h.in.resolver
	var st *ckpt.State
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("bdrmapit: creating checkpoint directory: %w", err)
		}
		copts.Checkpoint = &ckpt.Config{Dir: opts.CheckpointDir, InputDigest: h.digest()}
		if opts.Resume {
			if st, err = ckpt.Load(opts.CheckpointDir); err != nil {
				return nil, fmt.Errorf("bdrmapit: %w", err)
			}
		}
	}
	var res *core.Result
	if st != nil {
		res, err = core.ResumeContext(ctx, g, st, h.in.rels, copts)
	} else {
		res, err = core.RunContext(ctx, g, h.in.rels, copts)
	}
	if err != nil {
		return nil, fmt.Errorf("bdrmapit: %w", err)
	}
	return newResult(res, resolver), nil
}

func withFile[T any](path string, f func(io.Reader) (T, error)) (T, error) {
	var zero T
	fh, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer fh.Close()
	return f(fh)
}

func withFileErr(path string, f func(io.Reader) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return f(fh)
}

func mergeRels(dst, src *asrel.Graph) {
	for _, a := range src.ASes() {
		//lint:ignore maporder edge insertion into the relationship graph commutes: AddP2C is idempotent per (a,c) pair
		for c := range src.Customers(a) {
			dst.AddP2C(a, c)
		}
		//lint:ignore maporder edge insertion commutes: AddP2P is idempotent per (a,p) pair
		for p := range src.Peers(a) {
			if a < p {
				dst.AddP2P(a, p)
			}
		}
	}
}
