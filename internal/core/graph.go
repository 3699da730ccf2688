// Package core implements the bdrmapIT inference algorithm (Marder et
// al., IMC 2018): constructing an annotated Inferred-Router graph from
// traceroutes and alias resolution (§4), annotating last-hop routers
// from destination-AS evidence (§5), and iteratively refining router and
// interface annotations until a repeated state (§6).
package core

import (
	"net/netip"
	"slices"
	"sort"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/ip2as"
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
	// changedIter is the refinement iteration whose interface pass last
	// changed Annotation (0: never). The next router pass reads it to
	// skip routers none of whose inputs moved.
	changedIter int32

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
	// lastPrev is Builder scratch: the interned ID of the Prev key
	// written most recently. It occupies padding after Label and means
	// nothing once Finish returns.
	lastPrev uint32
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
	// iteration. Both are shared: readers must not mutate them.
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
	// changedIter is the refinement iteration whose router pass last
	// changed Annotation (0: never), stamped when the next iteration
	// snapshots it into prevAnnotation — so, like prevAnnotation, it is
	// only ever read a barrier after it was written.
	changedIter int32
	// LastHop marks routers without outgoing links; they are annotated
	// in phase 2 and never revisited (§3.3).
	LastHop bool

	// voteLinks caches selectLinks(r): the sorted best-label link
	// selection the refinement vote iterates, shared and immutable once
	// Finish returns (nil for a last-hop router, which has no links).
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

// selectLinks returns the IR's links of the highest available confidence
// class: Nexthop links when any exist, otherwise Echo, otherwise
// Multihop (§4.2, §6.1.1).
func selectLinks(r *Router) []*Link {
	links := r.SortedLinks()
	best := LabelMultihop
	for _, l := range links {
		if l.Label > best {
			best = l.Label
		}
	}
	out := links[:0:0]
	for _, l := range links {
		if l.Label == best {
			out = append(out, l)
		}
	}
	return out
}

// Graph is the annotated IR graph (phase 1 output).
type Graph struct {
	Interfaces map[netip.Addr]*Interface
	Routers    []*Router

	// sortedAddrs fixes a deterministic interface order for state
	// hashing and iteration.
	sortedAddrs []netip.Addr

	// routerDigests/ifaceDigests cache structDigests.
	routerDigests, ifaceDigests []uint64

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

// internEntry is everything the Builder knows about one interned
// address. Entries live in Builder.tab, indexed by the address's ID.
type internEntry struct {
	// iface is nil until the address first survives hop cleaning: an
	// address seen only as a destination, as a special hop, or past a
	// loop cut is interned but never becomes an interface.
	iface *Interface
	// origin and kind are the ip2as.Result, resolved once when the
	// address is interned; kind == ip2as.Special is netutil.IsSpecial.
	origin asn.ASN
	// stamp is the generation of the last trace that kept the address
	// as a hop — the per-trace loop detector.
	stamp uint32
	kind  ip2as.Kind
}

// keptHop is one hop that survived cleaning in the trace being added.
type keptHop struct {
	iface *Interface
	id    uint32
	ttl   uint8
	reply traceroute.ReplyType
}

// invalidID is the reserved ID of the invalid (zero) netip.Addr. Its
// entry is permanently special, so an address-less hop is skipped and
// an address-less destination has no origin AS without either costing
// a branch per hop; it is not counted as an observed address.
const invalidID = 0

// Builder constructs the IR graph incrementally from traceroutes
// (paper §4). Feed traces with AddTraces (or AddTrace, one at a time),
// then call Finish.
//
// Internally every address is interned on first sight to a dense
// uint32 ID — first-seen order, private to this Builder, never
// serialised — and everything done per hop indexes slices by that ID
// (DESIGN §18). Addresses are unmapped before interning, so a v4-mapped
// IPv6 hop is the same interface as its plain IPv4 form.
type Builder struct {
	resolver *ip2as.Resolver
	aliases  *alias.Sets

	// Workers is the worker count for the parallel parts of
	// construction (resolving newly interned addresses and Finish's
	// per-router pass); <= 0 means runtime.GOMAXPROCS.
	Workers int

	// Rec receives construction telemetry (resolve coverage, graph
	// shape, link-label breakdown). Nil disables recording.
	Rec *obs.Recorder

	ids     map[netip.Addr]uint32 // unmapped address → ID: the one address-keyed lookup per hop
	tab     []internEntry         // ID → entry
	links   map[uint64]*Link      // linkKey(from-router, to-ID) → link
	groups  map[int]*Router       // alias group id → router
	routers []*Router             // creation order; Router.ID indexes it until Finish renumbers
	nIfaces int
	traces  int
	gen     uint32 // current trace's generation; never 0

	// Per-chunk scratch, reused by every AddTraces call.
	chunkIDs []uint32     // per trace: the destination's ID, then one per hop
	newAddrs []netip.Addr // addresses first interned by this chunk, in ID order
	kept     []keptHop    // cleaned hops of the trace being added
	one      [1]*traceroute.Trace
}

// NewBuilder returns a Builder resolving addresses through resolver and
// grouping interfaces through aliases (nil aliases → every interface is
// its own IR, paper §7.4).
func NewBuilder(resolver *ip2as.Resolver, aliases *alias.Sets) *Builder {
	return &Builder{
		resolver: resolver,
		aliases:  aliases,
		ids:      make(map[netip.Addr]uint32),
		tab:      []internEntry{invalidID: {kind: ip2as.Special}},
		links:    make(map[uint64]*Link),
		groups:   make(map[int]*Router),
	}
}

// AddTrace is AddTraces for a single trace.
func (b *Builder) AddTrace(t *traceroute.Trace) {
	b.one[0] = t
	b.AddTraces(b.one[:])
	b.one[0] = nil
}

// AddTraces incorporates a chunk of traceroutes into the graph, in
// order: it interns every hop and destination address of the chunk,
// resolves the addresses this chunk introduced concurrently across the
// Builder's workers (the trie-backed resolver layers are read-only
// during lookups, so shards share them safely), then adds the traces
// sequentially, which keeps the build deterministic. Scratch memory is
// proportional to the chunk, not to the corpus.
//
//lint:hotpath
func (b *Builder) AddTraces(traces []*traceroute.Trace) {
	first := len(b.tab)
	b.newAddrs = b.newAddrs[:0]
	need := len(traces)
	for _, t := range traces {
		need += len(t.Hops)
	}
	ids := slices.Grow(b.chunkIDs[:0], need)
	for _, t := range traces {
		ids = append(ids, b.intern(t.Dst))
		for i := range t.Hops {
			ids = append(ids, b.intern(t.Hops[i].Addr))
		}
	}
	b.chunkIDs = ids
	if len(b.newAddrs) > 0 {
		b.resolveNew(first)
	}
	for _, t := range traces {
		n := 1 + len(t.Hops)
		b.addInterned(t, ids[:n])
		ids = ids[n:]
	}
}

// intern returns addr's ID, assigning the next one on first sight.
//
//lint:hotpath
func (b *Builder) intern(addr netip.Addr) uint32 {
	if !addr.IsValid() {
		return invalidID
	}
	addr = addr.Unmap()
	if id, ok := b.ids[addr]; ok {
		return id
	}
	id := uint32(len(b.tab))
	b.ids[addr] = id
	b.tab = append(b.tab, internEntry{})
	b.newAddrs = append(b.newAddrs, addr)
	return id
}

// resolveNew performs the IP→AS lookups for the addresses the current
// chunk interned (IDs first, first+1, …) and records the results in
// their entries.
func (b *Builder) resolveNew(first int) {
	ph := b.Rec.Phase("resolve")
	results := b.resolver.ResolveBatch(b.newAddrs, b.Workers)
	for i, res := range results {
		e := &b.tab[first+i]
		e.origin, e.kind = res.Origin, res.Kind
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

func (b *Builder) routerFor(addr netip.Addr) *Router {
	if b.aliases != nil {
		if g, ok := b.aliases.GroupOf(addr); ok {
			r, ok := b.groups[g]
			if !ok {
				r = b.newRouter()
				b.groups[g] = r
			}
			return r
		}
	}
	return b.newRouter()
}

func (b *Builder) newRouter() *Router {
	r := &Router{
		ID:        len(b.routers),
		Links:     make(map[netip.Addr]*Link),
		OriginSet: asn.NewSet(),
		DestASes:  asn.NewSet(),
	}
	b.routers = append(b.routers, r)
	return r
}

// newIface creates the interface for the interned address id, whose
// unmapped form is addr, on its first appearance as a kept hop.
func (b *Builder) newIface(id uint32, addr netip.Addr) *Interface {
	e := &b.tab[id]
	i := &Interface{
		Addr:     addr,
		Origin:   e.origin,
		Kind:     e.kind,
		DestASes: asn.NewSet(),
		EchoOnly: true,
	}
	i.Router = b.routerFor(addr)
	i.Router.Interfaces = append(i.Router.Interfaces, i)
	if i.Origin != asn.None && i.Kind != ip2as.IXP {
		i.Router.OriginSet.Add(i.Origin)
	}
	e.iface = i
	b.nIfaces++
	return i
}

// linkKey identifies the link from a router (by its build-time ID) to
// an interned subsequent address.
func linkKey(from *Router, to uint32) uint64 {
	return uint64(from.ID)<<32 | uint64(to)
}

func (b *Builder) newLink(key uint64, from *Router, to *Interface, label LinkLabel) *Link {
	l := &Link{
		From:     from,
		To:       to,
		Label:    label,
		Prev:     make(map[netip.Addr]asn.ASN, 1),
		DestASes: asn.NewSet(),
	}
	b.links[key] = l
	from.Links[to.Addr] = l
	to.InLinks = append(to.InLinks, l)
	return l
}

// addInterned incorporates one traceroute whose addresses are already
// interned (ids[0] is the destination's ID, ids[1+k] hop k's):
// interfaces for each responsive hop, a link from each IR to the first
// interface seen subsequently (with a confidence label per §4.2 and the
// origin-AS set per §4.3), and destination-AS bookkeeping per §4.4.
//
//lint:hotpath
func (b *Builder) addInterned(t *traceroute.Trace, ids []uint32) {
	b.traces++
	b.gen++
	if b.gen == 0 {
		// The generation counter wrapped: stamps from 2^32 traces ago
		// would read as current. Forget them all and restart at 1.
		for i := range b.tab {
			b.tab[i].stamp = 0
		}
		b.gen = 1
	}

	// Clean the hops: private/special addresses are dropped (treated as
	// unresponsive, per §4.2) and the trace is cut at a forwarding loop.
	kept := b.kept[:0]
	for k := range t.Hops {
		h := &t.Hops[k]
		id := ids[1+k]
		e := &b.tab[id]
		if e.kind == ip2as.Special {
			continue
		}
		if e.stamp == b.gen {
			// Allow immediate repetition (same router answering twice in
			// a row via per-TTL retries); a non-adjacent repeat is a
			// loop. A current stamp means this trace already kept the
			// address, so kept is not empty.
			if kept[len(kept)-1].id == id {
				continue
			}
			break
		}
		e.stamp = b.gen
		i := e.iface
		if i == nil {
			i = b.newIface(id, h.Addr.Unmap())
		}
		if h.Reply != traceroute.EchoReply {
			i.EchoOnly = false
		}
		kept = append(kept, keptHop{iface: i, id: id, ttl: h.ProbeTTL, reply: h.Reply})
	}
	b.kept = kept
	if len(kept) == 0 {
		return
	}
	dstAS := b.tab[ids[0]].origin

	for idx := range kept {
		c := &kept[idx]
		ci := c.iface
		// Destination-AS recording (§4.4): every replying interface,
		// except the last hop of a trace ending in an Echo Reply.
		last := idx == len(kept)-1
		if dstAS != asn.None && !(last && c.reply == traceroute.EchoReply) {
			ci.DestASes.Add(dstAS)
		}
		if idx == 0 {
			continue
		}
		a := &kept[idx-1]
		ai := a.iface
		if ai.Router == ci.Router {
			continue // both interfaces aliased onto the same IR
		}
		label := classifyLink(ai, ci, c.reply, int(c.ttl)-int(a.ttl))
		key := linkKey(ai.Router, c.id)
		l := b.links[key]
		if l == nil {
			l = b.newLink(key, ai.Router, ci, label)
		} else if label > l.Label {
			l.Label = label
		}
		// A link is usually entered from the same previous hop trace
		// after trace; re-storing that key is the one address-keyed map
		// write the per-hop path would otherwise still make.
		if l.lastPrev != a.id {
			l.Prev[ai.Addr] = ai.Origin
			l.lastPrev = a.id
		}
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

// Finish completes phase 1: reallocated-prefix cleanup of destination-AS
// sets (§4.4), IR destination-set aggregation, last-hop marking, initial
// interface annotations (§6), and statistics. The Builder must not be
// used afterwards.
func (b *Builder) Finish(rels RelationshipOracle) *Graph {
	ph := b.Rec.Phase("finish-graph")
	defer ph.End()
	g := &Graph{
		Interfaces:  make(map[netip.Addr]*Interface, b.nIfaces),
		Routers:     b.routers,
		sortedAddrs: make([]netip.Addr, 0, b.nIfaces),
	}
	g.Stats.Traces = b.traces
	for idx := range b.tab {
		if i := b.tab[idx].iface; i != nil {
			g.Interfaces[i.Addr] = i
			g.sortedAddrs = append(g.sortedAddrs, i.Addr)
		}
	}
	// Release every construction table before the allocating passes
	// below: the Graph holds none of them, and a Builder reused by
	// mistake fails on its first trace.
	workers, rec := b.Workers, b.Rec
	*b = Builder{}

	sort.Slice(g.sortedAddrs, func(i, j int) bool {
		return g.sortedAddrs[i].Less(g.sortedAddrs[j])
	})

	// Deterministic router order: by smallest interface address. Every
	// router was created for an interface, so the creation-order slice
	// is exactly the set of routers in the graph.
	shard.For(len(g.Routers), workers, func(lo, hi int) {
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

	// Per-router finishing touches only that router's state, so the pass
	// shards cleanly; statistics accumulate into per-shard slots merged
	// afterwards (counter sums commute, so the merge order is moot).
	perShard := make([]GraphStats, len(shard.Bounds(len(g.Routers), workers)))
	shard.ForShards(len(g.Routers), workers, func(s, lo, hi int) {
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
	if rec.Enabled() {
		rec.Counter("graph.traces").Add(int64(g.Stats.Traces))
		rec.Counter("graph.interfaces").Add(int64(len(g.Interfaces)))
		rec.Counter("graph.routers").Add(int64(len(g.Routers)))
		rec.Counter("graph.links.nexthop").Add(int64(g.Stats.LinksNexthop))
		rec.Counter("graph.links.echo").Add(int64(g.Stats.LinksEcho))
		rec.Counter("graph.links.multihop").Add(int64(g.Stats.LinksMultihop))
		rec.Counter("graph.irs_with_links").Add(int64(g.Stats.IRsWithLinks))
		rec.Counter("graph.irs_echo_only").Add(int64(g.Stats.IRsEchoOnlyLink))
		rec.Counter("graph.lasthop_irs").Add(int64(g.Stats.LastHopIRs))
		rec.Counter("graph.lasthop_empty_dst").Add(int64(g.Stats.LastHopEmptyDst))
		ph.Note("interfaces", int64(len(g.Interfaces)))
		ph.Note("routers", int64(len(g.Routers)))
	}
	return g
}

// ResetAnnotations returns the graph to its just-built annotation state:
// no router annotations, interface annotations at their origin AS.
// cmd/benchrun's provenance-overhead replay and the tests that hold Run
// to oracleRefine (equivalence_test.go, checkRefineAgainstOracle) use it
// to run phases 2–3 repeatedly over one graph without rebuilding phase 1.
func (g *Graph) ResetAnnotations() {
	for _, r := range g.Routers {
		r.Annotation = asn.None
		r.prevAnnotation = asn.None
		r.changedIter = 0
		for _, i := range r.Interfaces {
			i.Annotation = i.Origin
			i.changedIter = 0
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
