package core

import (
	"cmp"
	"context"
	"net/netip"
	"slices"
	"sort"
	"sync"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/ip2as"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/traceroute"
)

// Result is the output of a bdrmapIT run: the annotated graph plus loop
// metadata.
type Result struct {
	Graph *Graph
	// Iterations is the number of refinement iterations executed.
	Iterations int
	// Converged reports whether the loop stopped on a repeated state
	// rather than the iteration cap.
	Converged bool
	// CycleLength is the distance between the repeated state and its
	// earlier sighting when Converged: 1 means the loop reached a fixed
	// point, >1 that it oscillated between CycleLength states (§6.3
	// stops on either). 0 when the iteration cap ended the loop.
	CycleLength int
	// Interrupted reports that the run's context was cancelled before
	// the loop finished. The annotations are then the last committed
	// iteration's partial result — byte-identical to a fresh run with
	// MaxIterations=Iterations at any worker count — and must not be
	// mistaken for a converged map.
	Interrupted bool
	// Resumed reports that this run restored a checkpoint before
	// continuing (Options.Checkpoint.Resume), ResumedFrom the iteration it
	// restored: 0 for a run started from scratch, or killed before its
	// first iteration was durable. A resumed run's annotations, Iterations,
	// and convergence trace are byte-identical to an uninterrupted run's.
	Resumed     bool
	ResumedFrom int
	// Checkpoint is the run's committed state (what ckpt.Load returns once
	// the run has finished) when Options.Checkpoint is set; nil otherwise,
	// and for a resume that stopped before the iteration it resumed.
	Checkpoint *ckpt.State
	// Report is the telemetry snapshot taken when the run finished:
	// phase timings, pipeline counters, and the per-iteration
	// convergence trace. Always non-nil; empty (wall clock and peak RSS
	// only) when no Recorder was attached via Options.
	Report *obs.Report
	// Provenance is the run's decision-provenance artifact — per-router
	// winning heuristic, vote tally, tie-break path, and last-change
	// iteration, plus per-interface §6.2 branches — derived once the loop
	// stops when Options.Provenance is set; nil otherwise. It is
	// byte-identical (via prov.Encode) across worker counts and resume
	// points, and a delta run's is the from-scratch run's.
	Provenance *prov.Artifact

	// links is InterdomainLinks' answer, computed on first use.
	linksOnce sync.Once
	links     []InterdomainLink
}

// OperatorOf returns the AS inferred to operate the router owning addr,
// or asn.None when addr was not observed or not annotated.
func (res *Result) OperatorOf(addr netip.Addr) asn.ASN {
	i, ok := res.Graph.Interfaces[addr]
	if !ok {
		return asn.None
	}
	return i.Router.Annotation
}

// ConnectedAS returns the AS inferred to be on the far side of addr's
// link (the interface annotation).
func (res *Result) ConnectedAS(addr netip.Addr) asn.ASN {
	i, ok := res.Graph.Interfaces[addr]
	if !ok {
		return asn.None
	}
	return i.Annotation
}

// InterdomainLink is one inferred interdomain connection: the link's
// near router is operated by NearAS and its subsequent interface sits on
// a router operated by FarAS.
type InterdomainLink struct {
	NearAS, FarAS asn.ASN
	// NearRouter is the IR on the near side.
	NearRouter *Router
	// FarAddr is the subsequent interface's address.
	FarAddr netip.Addr
	// Label is the link's confidence label.
	Label LinkLabel
}

// InterdomainLinks enumerates every graph link whose endpoint routers
// carry different (non-empty) AS annotations — the border links the
// system exists to find. Results are ordered by (NearAS, FarAS,
// FarAddr). The walk runs once per Result, over the annotations as they
// stand at the first call; the slice is shared by every caller and must
// not be modified.
func (res *Result) InterdomainLinks() []InterdomainLink {
	res.linksOnce.Do(func() {
		var out []InterdomainLink
		for _, r := range res.Graph.Routers {
			if r.Annotation == asn.None {
				continue
			}
			for _, l := range r.Links {
				far := l.To.Router.Annotation
				if far == asn.None || far == r.Annotation {
					continue
				}
				out = append(out, InterdomainLink{
					NearAS:     r.Annotation,
					FarAS:      far,
					NearRouter: r,
					FarAddr:    l.To.Addr,
					Label:      l.Label,
				})
			}
		}
		// Two routers of one operator can reach the same far interface,
		// so keys repeat; the walk above fixes the order the sort sees,
		// which keeps the order it leaves deterministic.
		slices.SortFunc(out, func(a, b InterdomainLink) int {
			if c := cmp.Compare(a.NearAS, b.NearAS); c != 0 {
				return c
			}
			if c := cmp.Compare(a.FarAS, b.FarAS); c != 0 {
				return c
			}
			return a.FarAddr.Compare(b.FarAddr)
		})
		res.links = out
	})
	return res.links
}

// ASLinks returns the distinct inferred AS-level adjacencies
// (unordered pairs), sorted.
func (res *Result) ASLinks() [][2]asn.ASN {
	seen := make(map[[2]asn.ASN]bool)
	for _, l := range res.InterdomainLinks() {
		a, b := l.NearAS, l.FarAS
		if b < a {
			a, b = b, a
		}
		seen[[2]asn.ASN{a, b}] = true
	}
	out := make([][2]asn.ASN, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Infer is the one-call entry point: build the graph from traces
// (phase 1) and run phases 2–3. The IP→AS lookups for every distinct
// observed address are performed concurrently across opts.Workers
// before the (order-sensitive, sequential) graph build consumes them.
func Infer(traces []*traceroute.Trace, resolver *ip2as.Resolver,
	aliases *alias.Sets, rels RelationshipOracle, opts Options) *Result {

	//lint:ignore ctxflow Infer is the documented no-cancellation entry point; Background here means "never cancelled", and cancellable runs go through InferContext
	res, err := InferContext(context.Background(), traces, resolver, aliases, rels, opts)
	if err != nil {
		// context.Background is never cancelled, so only checkpoint I/O
		// or an incompatible resume can fail — both need
		// Options.Checkpoint, whose documentation directs those runs to
		// InferContext.
		panic("core.Infer: " + err.Error() + " (checkpointed runs must use InferContext)")
	}
	return res
}

// TraceBatch is how many traces the graph build hands the Builder at a
// time: the unit of address interning and concurrent resolution, whose
// scratch it bounds, and the interval between context checks — frequent
// enough that cancellation lands within milliseconds, coarse enough
// that the check never shows up in a profile. A caller that streams
// traces to BuildFrom should cut them into chunks of this size.
const TraceBatch = 4096

// InferContext is Infer with cooperative cancellation. Cancellation
// during graph construction returns (nil, ctx.Err()) — there are no
// annotations yet, so there is nothing partial to salvage. Once the
// graph is built, cancellation is handled by RunContext: the returned
// Result carries the last committed iteration's annotations with
// Interrupted=true, and the error is nil. With Options.Checkpoint set,
// RunContext's durability errors (failed snapshot writes, refused
// resumes) propagate here as non-nil errors with a nil Result.
func InferContext(ctx context.Context, traces []*traceroute.Trace, resolver *ip2as.Resolver,
	aliases *alias.Sets, rels RelationshipOracle, opts Options) (*Result, error) {

	opts.setDefaults()
	g, err := BuildGraphContext(ctx, traces, resolver, aliases, rels, opts)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, g, rels, opts)
}

// BuildGraphContext runs phase 1 alone: construct the annotation graph
// from traces without starting refinement. It is a from-scratch build
// on a Builder of its own, which it lets go of — the graph holds none of
// the construction tables. The same traces in the same order always
// yield the same graph, however they were split across Builder.Finish
// calls, which is what lets a session that grows one graph batch by
// batch be recovered, and checked, by building its corpus here.
// Cancellation returns (nil, ctx.Err()); there is no partial graph to
// salvage.
func BuildGraphContext(ctx context.Context, traces []*traceroute.Trace, resolver *ip2as.Resolver,
	aliases *alias.Sets, rels RelationshipOracle, opts Options) (*Graph, error) {

	opts.setDefaults()
	b := NewBuilder(resolver, aliases)
	b.Workers = opts.Workers
	b.Rec = opts.Recorder
	return b.BuildContext(ctx, traces, rels)
}

// BuildFrom is AddTraces for every chunk next yields, in order, then
// Finish, under a "construct-graph" phase, with ctx checked before each
// call to next. An empty chunk ends the traces; an error from next ends
// the build with that error. The graph does not depend on where the
// chunks are cut, and a chunk is not referenced once the next one has
// been asked for, so a caller that decodes as it goes never holds more
// of the corpus than is in flight. Called again on the same Builder it
// appends: the returned Graph is the one the first call returned, grown
// in place. A failed or cancelled call leaves the Builder holding traces
// no Finish has accounted for; neither it nor its graph may be used
// again.
func (b *Builder) BuildFrom(ctx context.Context, next func() ([]*traceroute.Trace, error), rels RelationshipOracle) (*Graph, error) {
	phase := b.Rec.Phase("construct-graph")
	defer phase.End()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk, err := next()
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			break
		}
		b.AddTraces(chunk)
	}
	g := b.Finish(rels)
	phase.Note("appended_traces", int64(b.last.traces))
	return g, nil
}

// BuildContext is BuildFrom over a slice already in memory, cut into
// chunks of TraceBatch.
func (b *Builder) BuildContext(ctx context.Context, traces []*traceroute.Trace, rels RelationshipOracle) (*Graph, error) {
	return b.BuildFrom(ctx, func() ([]*traceroute.Trace, error) {
		chunk := traces[:min(TraceBatch, len(traces))]
		traces = traces[len(chunk):]
		return chunk, nil
	}, rels)
}
