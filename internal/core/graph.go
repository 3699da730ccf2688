// Package core implements the bdrmapIT inference algorithm (Marder et
// al., IMC 2018): constructing an annotated Inferred-Router graph from
// traceroutes and alias resolution (§4), annotating last-hop routers
// from destination-AS evidence (§5), and iteratively refining router and
// interface annotations until a repeated state (§6).
package core

import (
	"net/netip"
	"sort"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/ip2as"
	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/traceroute"
)

// LinkLabel is the confidence class of an IR→interface link (paper
// §4.2, Table 3). Nexthop links are the most reliable and dominate the
// voting; Echo and Multihop links are consulted only when no better
// label exists for an IR.
type LinkLabel uint8

const (
	// LabelMultihop: hops separated by unresponsive/private hops with
	// different origin ASes.
	LabelMultihop LinkLabel = iota
	// LabelEcho: adjacent hops where the subsequent hop replied with an
	// ICMP Echo Reply.
	LabelEcho
	// LabelNexthop: same origin AS, or adjacent hops with a
	// Time Exceeded / Destination Unreachable reply.
	LabelNexthop
)

// String returns the paper's one-letter label name.
func (l LinkLabel) String() string {
	switch l {
	case LabelNexthop:
		return "N"
	case LabelEcho:
		return "E"
	default:
		return "M"
	}
}

// Interface is one observed traceroute interface (an IP address) and its
// static metadata plus its dynamic AS annotation. The annotation
// represents the AS on the other side of the interface's link (paper
// Fig. 3).
type Interface struct {
	Addr   netip.Addr
	Origin asn.ASN    // origin AS of the address (asn.None if unannounced/IXP)
	Kind   ip2as.Kind // which source resolved the address
	Router *Router    // owning IR

	// Annotation is the AS inferred to be connected to this interface.
	Annotation asn.ASN

	// DestASes are the origin ASes of destinations of traceroutes in
	// which this interface replied (paper §4.4), before reallocated-
	// prefix cleanup.
	DestASes asn.Set

	// InLinks are the links pointing at this interface, used by the
	// interface-annotation vote (§6.2).
	InLinks []*Link

	// EchoOnly is true when the interface was only ever seen replying
	// with ICMP Echo Reply; such interfaces are excluded from recall
	// computations (§7.2).
	EchoOnly bool
}

// Link is an inferred connection from an IR to a subsequent interface
// (paper Fig. 2).
type Link struct {
	From *Router
	To   *Interface
	// Label is the highest-confidence label observed for this link.
	Label LinkLabel
	// Prev maps each of From's interface addresses seen immediately
	// prior to To in a traceroute to that interface's origin AS; its
	// value set is the link origin-AS set L(IRi,j) (§4.3), and its key
	// count drives the interface-annotation vote weight (§6.2).
	Prev map[netip.Addr]asn.ASN
	// DestASes are the destination origin ASes of traceroutes that
	// crossed this link, consulted by the third-party test (§6.1.1).
	DestASes asn.Set

	// origins/originsSorted cache OriginSet and its sorted form. Prev is
	// immutable once Finish returns, so Finish computes them once and
	// the refinement hot loop stops re-deriving a set per link per
	// iteration. nil on graphs assembled without Finish; readers fall
	// back to live computation.
	origins       asn.Set
	originsSorted []asn.ASN
}

// OriginSet returns L(IRi,j): the origin ASes of From's interfaces seen
// immediately prior to To, sorted. Unannounced origins are omitted.
func (l *Link) OriginSet() asn.Set {
	s := asn.NewSet()
	//lint:ignore maporder set insertion commutes; the set is only read via sorted/lookup accessors
	for _, o := range l.Prev {
		if o != asn.None {
			s.Add(o)
		}
	}
	return s
}

// originSet returns the cached origin set, or computes it live in
// reference mode (the pre-optimization path) and on Finish-less graphs.
// The cached set is shared and must not be mutated by callers.
func (l *Link) originSet(reference bool) asn.Set {
	if !reference && l.origins != nil {
		return l.origins
	}
	return l.OriginSet()
}

// originSorted is originSet's sorted-slice counterpart.
func (l *Link) originSorted(reference bool) []asn.ASN {
	if !reference && l.origins != nil {
		return l.originsSorted
	}
	return l.OriginSet().Sorted()
}

// Router is an inferred router (IR): a set of aliased interfaces, its
// outgoing links, and its static metadata plus dynamic AS annotation.
type Router struct {
	ID         int
	Interfaces []*Interface
	// Links maps subsequent interface address → link.
	Links map[netip.Addr]*Link

	// OriginSet is the union of the IR's interface origin ASes (§4.3).
	OriginSet asn.Set
	// DestASes is the aggregated destination-AS set after reallocated-
	// prefix cleanup (§4.4).
	DestASes asn.Set

	// Annotation is the AS inferred to operate this router.
	Annotation asn.ASN
	// prevAnnotation is the annotation committed at the end of the
	// previous refinement iteration. Voting heuristics read neighbour
	// routers exclusively through it, so annotation within an iteration
	// is order-free — the property the parallel engine shards on.
	prevAnnotation asn.ASN
	// LastHop marks routers without outgoing links; they are annotated
	// in phase 2 and never revisited (§3.3).
	LastHop bool

	// voteLinks caches selectLinks(r): the sorted best-label link
	// selection the refinement vote iterates, immutable once Finish
	// returns. nil on graphs assembled without Finish; readers fall back
	// to computing the selection live.
	voteLinks []*Link
}

// SortedLinks returns the router's links ordered by subsequent interface
// address, for deterministic iteration.
func (r *Router) SortedLinks() []*Link {
	out := make([]*Link, 0, len(r.Links))
	for _, l := range r.Links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To.Addr.Less(out[j].To.Addr) })
	return out
}

// voteLinksFor returns the cached best-label link selection, or computes
// it live in reference mode and on Finish-less graphs. The cached slice
// is shared and must not be mutated by callers.
func (r *Router) voteLinksFor(reference bool) []*Link {
	if !reference && r.voteLinks != nil {
		return r.voteLinks
	}
	return selectLinks(r)
}

// Graph is the annotated IR graph (phase 1 output).
type Graph struct {
	Interfaces map[netip.Addr]*Interface
	Routers    []*Router

	// sortedAddrs fixes a deterministic interface order for state
	// hashing and iteration.
	sortedAddrs []netip.Addr

	// Stats accumulates dataset statistics reported in the paper.
	Stats GraphStats
}

// GraphStats tallies the dataset statistics the paper reports (§4.2,
// §5).
type GraphStats struct {
	Traces          int
	LinksNexthop    int // distinct links whose best label is N
	LinksEcho       int
	LinksMultihop   int
	IRsWithLinks    int
	IRsEchoOnlyLink int // IRs with E links but no N links
	LastHopIRs      int
	LastHopEmptyDst int // last-hop IRs with an empty destination AS set
}

// Builder constructs the IR graph incrementally from traceroutes
// (paper §4). Feed traces with AddTrace, then call Finish. Optionally
// call PreResolve first to perform the IP→AS lookups concurrently.
type Builder struct {
	resolver *ip2as.Resolver
	aliases  *alias.Sets

	// Workers is the worker count for the parallel parts of
	// construction (PreResolve sharding and Finish's per-router pass);
	// <= 0 means runtime.GOMAXPROCS.
	Workers int

	// Rec receives construction telemetry (resolve coverage, graph
	// shape, link-label breakdown). Nil disables recording.
	Rec *obs.Recorder

	ifaces   map[netip.Addr]*Interface
	routers  map[int]*Router // alias group id → router
	nextID   int
	byIface  map[netip.Addr]*Router // singleton routers
	traces   int
	resolved map[netip.Addr]ip2as.Result // PreResolve lookup cache

	// cleanHops scratch, reused by every AddTrace: its result never
	// outlives the call.
	hops []traceroute.Hop
	seen map[netip.Addr]bool
}

// NewBuilder returns a Builder resolving addresses through resolver and
// grouping interfaces through aliases (nil aliases → every interface is
// its own IR, paper §7.4).
func NewBuilder(resolver *ip2as.Resolver, aliases *alias.Sets) *Builder {
	return &Builder{
		resolver: resolver,
		aliases:  aliases,
		ifaces:   make(map[netip.Addr]*Interface),
		routers:  make(map[int]*Router),
		byIface:  make(map[netip.Addr]*Router),
		seen:     make(map[netip.Addr]bool),
	}
}

func (b *Builder) routerFor(addr netip.Addr) *Router {
	if b.aliases != nil {
		if g, ok := b.aliases.GroupOf(addr); ok {
			r, ok := b.routers[g]
			if !ok {
				r = b.newRouter()
				b.routers[g] = r
			}
			return r
		}
	}
	r, ok := b.byIface[addr]
	if !ok {
		r = b.newRouter()
		b.byIface[addr] = r
	}
	return r
}

func (b *Builder) newRouter() *Router {
	r := &Router{
		ID:        b.nextID,
		Links:     make(map[netip.Addr]*Link),
		OriginSet: asn.NewSet(),
		DestASes:  asn.NewSet(),
	}
	b.nextID++
	return r
}

// PreResolve performs the IP→AS lookups for addrs concurrently across
// the Builder's workers and caches the results for AddTrace. The
// trie-backed resolver layers are read-only during lookups, so shards
// share them safely; results land in a cache the (sequential) graph
// build then consults, keeping the build itself deterministic.
func (b *Builder) PreResolve(addrs []netip.Addr) {
	ph := b.Rec.Phase("resolve")
	results := b.resolver.ResolveBatch(addrs, b.Workers)
	if b.resolved == nil {
		b.resolved = make(map[netip.Addr]ip2as.Result, len(addrs))
	}
	for i, a := range addrs {
		b.resolved[a] = results[i]
	}
	if b.Rec.Enabled() {
		cov := ip2as.MeasureResults(results)
		b.Rec.Counter("resolve.addrs").Add(int64(cov.Total))
		b.Rec.Counter("resolve.by_bgp").Add(int64(cov.ByBGP))
		b.Rec.Counter("resolve.by_rir").Add(int64(cov.ByRIR))
		b.Rec.Counter("resolve.by_ixp").Add(int64(cov.ByIXP))
		b.Rec.Counter("resolve.unannounced").Add(int64(cov.UnannouncedN))
		b.Rec.Counter("resolve.special").Add(int64(cov.SpecialN))
		ph.Note("addrs", int64(cov.Total))
	}
	ph.End()
}

// lookup resolves addr, consulting the PreResolve cache first.
func (b *Builder) lookup(addr netip.Addr) ip2as.Result {
	if res, ok := b.resolved[addr]; ok {
		return res
	}
	return b.resolver.Lookup(addr)
}

func (b *Builder) iface(addr netip.Addr) *Interface {
	i, ok := b.ifaces[addr]
	if !ok {
		res := b.lookup(addr)
		i = &Interface{
			Addr:     addr,
			Origin:   res.Origin,
			Kind:     res.Kind,
			DestASes: asn.NewSet(),
			EchoOnly: true,
		}
		i.Router = b.routerFor(addr)
		i.Router.Interfaces = append(i.Router.Interfaces, i)
		if i.Origin != asn.None && i.Kind != ip2as.IXP {
			i.Router.OriginSet.Add(i.Origin)
		}
		b.ifaces[addr] = i
	}
	return i
}

// AddTrace incorporates one traceroute into the graph: interfaces for
// each responsive hop, a link from each IR to the first interface seen
// subsequently (with a confidence label per §4.2 and the origin-AS set
// per §4.3), and destination-AS bookkeeping per §4.4.
func (b *Builder) AddTrace(t *traceroute.Trace) {
	b.traces++
	hops := b.cleanHops(t.Hops)
	if len(hops) == 0 {
		return
	}
	dstAS := b.lookup(t.Dst).Origin

	for idx := range hops {
		h := &hops[idx]
		i := b.iface(h.Addr)
		if h.Reply != traceroute.EchoReply {
			i.EchoOnly = false
		}
		// Destination-AS recording (§4.4): every replying interface,
		// except the last hop of a trace ending in an Echo Reply.
		last := idx == len(hops)-1
		if dstAS != asn.None && !(last && h.Reply == traceroute.EchoReply) {
			i.DestASes.Add(dstAS)
		}
	}

	for idx := 0; idx+1 < len(hops); idx++ {
		a, c := &hops[idx], &hops[idx+1]
		if a.Addr == c.Addr {
			continue
		}
		ai := b.ifaces[a.Addr]
		ci := b.ifaces[c.Addr]
		if ai.Router == ci.Router {
			continue // both interfaces aliased onto the same IR
		}
		dist := int(c.ProbeTTL) - int(a.ProbeTTL)
		label := classifyLink(ai, ci, c.Reply, dist)
		l, ok := ai.Router.Links[c.Addr]
		if !ok {
			l = &Link{
				From:     ai.Router,
				To:       ci,
				Label:    label,
				Prev:     make(map[netip.Addr]asn.ASN, 1),
				DestASes: asn.NewSet(),
			}
			ai.Router.Links[c.Addr] = l
			ci.InLinks = append(ci.InLinks, l)
		} else if label > l.Label {
			l.Label = label
		}
		l.Prev[a.Addr] = ai.Origin
		if dstAS != asn.None {
			l.DestASes.Add(dstAS)
		}
	}
}

// classifyLink assigns the §4.2 confidence label for one observation of
// the link a→c.
func classifyLink(a, c *Interface, reply traceroute.ReplyType, dist int) LinkLabel {
	sameOrigin := a.Origin != asn.None && a.Origin == c.Origin
	if reply == traceroute.EchoReply {
		if dist <= 1 || sameOrigin {
			return LabelEcho
		}
		return LabelMultihop
	}
	if sameOrigin || dist <= 1 {
		return LabelNexthop
	}
	return LabelMultihop
}

// maxSeenScratch is the most addresses the seen scratch may hold and
// still be kept: clearing a map costs its capacity, so one record with
// an absurd hop count must not leave every later trace paying for it. A
// real trace has at most 255 hops (ProbeTTL is a byte).
const maxSeenScratch = 256

// cleanHops removes hops with private/special addresses (treated as
// unresponsive, per §4.2) and truncates at forwarding loops. The result
// is the Builder's scratch, valid until the next call.
func (b *Builder) cleanHops(hops []traceroute.Hop) []traceroute.Hop {
	if len(b.seen) > maxSeenScratch {
		b.seen = make(map[netip.Addr]bool)
	} else {
		clear(b.seen)
	}
	out := b.hops[:0]
	for _, h := range hops {
		if netutil.IsSpecial(h.Addr) {
			continue
		}
		if b.seen[h.Addr] {
			// Allow immediate repetition (same router answering twice in
			// a row via per-TTL retries); a non-adjacent repeat is a loop.
			if len(out) > 0 && out[len(out)-1].Addr == h.Addr {
				continue
			}
			break
		}
		b.seen[h.Addr] = true
		out = append(out, h)
	}
	b.hops = out
	return out
}

// Finish completes phase 1: reallocated-prefix cleanup of destination-AS
// sets (§4.4), IR destination-set aggregation, last-hop marking, initial
// interface annotations (§6), and statistics. The Builder must not be
// used afterwards.
func (b *Builder) Finish(rels RelationshipOracle) *Graph {
	ph := b.Rec.Phase("finish-graph")
	defer ph.End()
	g := &Graph{Interfaces: b.ifaces}
	g.Stats.Traces = b.traces

	// Deterministic router order: by smallest interface address.
	routerSet := make(map[*Router]bool)
	for _, i := range b.ifaces {
		routerSet[i.Router] = true
	}
	g.Routers = make([]*Router, 0, len(routerSet))
	//lint:ignore maporder collected in arbitrary order, then sorted by smallest interface address below
	for r := range routerSet {
		g.Routers = append(g.Routers, r)
	}
	shard.For(len(g.Routers), b.Workers, func(lo, hi int) {
		for _, r := range g.Routers[lo:hi] {
			sort.Slice(r.Interfaces, func(a, b int) bool {
				return r.Interfaces[a].Addr.Less(r.Interfaces[b].Addr)
			})
		}
	})
	sort.Slice(g.Routers, func(i, j int) bool {
		return g.Routers[i].Interfaces[0].Addr.Less(g.Routers[j].Interfaces[0].Addr)
	})
	for id, r := range g.Routers {
		r.ID = id
	}

	g.sortedAddrs = make([]netip.Addr, 0, len(b.ifaces))
	for a := range b.ifaces {
		g.sortedAddrs = append(g.sortedAddrs, a)
	}
	sort.Slice(g.sortedAddrs, func(i, j int) bool {
		return g.sortedAddrs[i].Less(g.sortedAddrs[j])
	})

	// Per-router finishing touches only that router's state, so the pass
	// shards cleanly; statistics accumulate into per-shard slots merged
	// afterwards (counter sums commute, so the merge order is moot).
	perShard := make([]GraphStats, len(shard.Bounds(len(g.Routers), b.Workers)))
	shard.ForShards(len(g.Routers), b.Workers, func(s, lo, hi int) {
		st := &perShard[s]
		for _, r := range g.Routers[lo:hi] {
			// §4.4: per-interface reallocated-prefix cleanup, then aggregate.
			for _, i := range r.Interfaces {
				dests := i.DestASes
				if dests.Len() == 2 && rels != nil {
					cleanReallocatedDest(i, rels)
				}
				r.DestASes.AddAll(dests)
			}
			if len(r.Links) == 0 {
				r.LastHop = true
				st.LastHopIRs++
				if r.DestASes.Len() == 0 {
					st.LastHopEmptyDst++
				}
			} else {
				st.IRsWithLinks++
				hasN, hasE := false, false
				//lint:ignore maporder per-label counter bumps and boolean flags commute
				for _, l := range r.Links {
					switch l.Label {
					case LabelNexthop:
						hasN = true
						st.LinksNexthop++
					case LabelEcho:
						hasE = true
						st.LinksEcho++
					default:
						st.LinksMultihop++
					}
				}
				if hasE && !hasN {
					st.IRsEchoOnlyLink++
				}
			}
			// Initial interface annotations: the origin AS (§6).
			for _, i := range r.Interfaces {
				i.Annotation = i.Origin
			}
			// Refinement hot-loop caches. Links and their Prev maps are
			// immutable from here on, so the per-iteration vote can read
			// precomputed origin sets and link selections instead of
			// re-deriving them for every router every iteration.
			//lint:ignore maporder each link's cache fill is independent of every other's
			for _, l := range r.Links {
				l.origins = l.OriginSet()
				l.originsSorted = l.origins.Sorted()
			}
			if len(r.Links) > 0 {
				r.voteLinks = selectLinks(r)
			}
		}
	})
	for _, st := range perShard {
		g.Stats.merge(st)
	}
	if b.Rec.Enabled() {
		b.Rec.Counter("graph.traces").Add(int64(g.Stats.Traces))
		b.Rec.Counter("graph.interfaces").Add(int64(len(g.Interfaces)))
		b.Rec.Counter("graph.routers").Add(int64(len(g.Routers)))
		b.Rec.Counter("graph.links.nexthop").Add(int64(g.Stats.LinksNexthop))
		b.Rec.Counter("graph.links.echo").Add(int64(g.Stats.LinksEcho))
		b.Rec.Counter("graph.links.multihop").Add(int64(g.Stats.LinksMultihop))
		b.Rec.Counter("graph.irs_with_links").Add(int64(g.Stats.IRsWithLinks))
		b.Rec.Counter("graph.irs_echo_only").Add(int64(g.Stats.IRsEchoOnlyLink))
		b.Rec.Counter("graph.lasthop_irs").Add(int64(g.Stats.LastHopIRs))
		b.Rec.Counter("graph.lasthop_empty_dst").Add(int64(g.Stats.LastHopEmptyDst))
		ph.Note("interfaces", int64(len(g.Interfaces)))
		ph.Note("routers", int64(len(g.Routers)))
	}
	return g
}

// ResetAnnotations returns the graph to its just-built annotation state:
// no router annotations, interface annotations at their origin AS. The
// benchmark harness uses it to run phases 2–3 repeatedly over one graph
// (optimized vs. reference) without rebuilding phase 1.
func (g *Graph) ResetAnnotations() {
	for _, r := range g.Routers {
		r.Annotation = asn.None
		r.prevAnnotation = asn.None
		for _, i := range r.Interfaces {
			i.Annotation = i.Origin
		}
	}
}

// merge adds the counters of other into s (Traces excluded: it is a
// whole-build number, not a per-shard one).
func (s *GraphStats) merge(other GraphStats) {
	s.LinksNexthop += other.LinksNexthop
	s.LinksEcho += other.LinksEcho
	s.LinksMultihop += other.LinksMultihop
	s.IRsWithLinks += other.IRsWithLinks
	s.IRsEchoOnlyLink += other.IRsEchoOnlyLink
	s.LastHopIRs += other.LastHopIRs
	s.LastHopEmptyDst += other.LastHopEmptyDst
}

// RelationshipOracle is the subset of asrel.Graph the core algorithm
// consumes; the indirection keeps core testable with table-driven fakes.
// When Options.Workers > 1 the engine queries the oracle from many
// goroutines at once, so implementations must be safe for concurrent
// readers (asrel.Graph guards its lazy cone cache accordingly).
type RelationshipOracle interface {
	HasRelationship(a, b asn.ASN) bool
	IsProvider(p, c asn.ASN) bool
	IsPeer(a, b asn.ASN) bool
	Providers(a asn.ASN) asn.Set
	Customers(a asn.ASN) asn.Set
	Peers(a asn.ASN) asn.Set
	ConeSize(a asn.ASN) int
	CustomerCone(a asn.ASN) asn.Set
	SmallestCone(candidates []asn.ASN) asn.ASN
	LargestCone(candidates []asn.ASN) asn.ASN
}

// cleanReallocatedDest applies the §4.4 reallocated-prefix test to one
// interface with exactly two destination ASes: when one AS matches the
// interface origin, the other has a customer cone of at most five ASes,
// and the two share no BGP-observable relationship, the AS with the
// larger cone is inferred to be the reallocating provider and removed.
func cleanReallocatedDest(i *Interface, rels RelationshipOracle) {
	ds := i.DestASes.Sorted()
	a, b := ds[0], ds[1]
	var other asn.ASN
	switch i.Origin {
	case a:
		other = b
	case b:
		other = a
	default:
		return
	}
	if rels.ConeSize(other) > 5 {
		return
	}
	if rels.HasRelationship(i.Origin, other) {
		return
	}
	// Remove the reallocating provider: the destination AS with the
	// larger cone.
	drop := i.Origin
	if rels.ConeSize(other) > rels.ConeSize(i.Origin) {
		drop = other
	}
	delete(i.DestASes, drop)
}
