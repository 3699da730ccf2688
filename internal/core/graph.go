// Package core implements the bdrmapIT inference algorithm (Marder et
// al., IMC 2018): constructing an annotated Inferred-Router graph from
// traceroutes and alias resolution (§4), annotating last-hop routers
// from destination-AS evidence (§5), and iteratively refining router and
// interface annotations until a repeated state (§6).
package core

import (
	"net/netip"
	"slices"

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
	// which this interface replied (paper §4.4). Once Finish returns,
	// reallocated-prefix cleanup has been applied to it.
	DestASes asn.SmallSet

	// InLinks are the links pointing at this interface, used by the
	// interface-annotation vote (§6.2).
	InLinks []*Link

	// EchoOnly is true when the interface was only ever seen replying
	// with ICMP Echo Reply; such interfaces are excluded from recall
	// computations (§7.2).
	EchoOnly bool

	// droppedDest is the destination AS the §4.4 cleanup removed from
	// DestASes (asn.None: none). The cleanup is not monotone — a third
	// destination AS voids it — so the Builder keeps what was removed and
	// the set as observed stays recoverable: DestASes ∪ {droppedDest}.
	droppedDest asn.ASN
	// pos is the interface's index in Graph.Interfaces (-1 until a Finish
	// has placed it).
	pos int32
	// touched is Builder scratch: the append epoch whose traces last
	// changed this interface's structure.
	touched uint32
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
	// nothing outside the Builder that wrote it.
	lastPrev uint32
	// Prev holds each of From's interfaces seen immediately prior to To
	// in a traceroute, ascending by address, with its origin AS; its
	// origins are the link origin-AS set L(IRi,j) (§4.3), and its length
	// is the interface-annotation vote weight (§6.2).
	Prev []PrevHop
	// DestASes are the destination origin ASes of traceroutes that
	// crossed this link, consulted by the third-party test (§6.1.1).
	DestASes asn.SmallSet

	// origins is L(IRi,j): the origin ASes of From's interfaces seen
	// immediately prior to To — Prev's values, unannounced origins
	// omitted. Prev changes only between one Finish and the next, so
	// Finish derives it and the refinement hot loop stops re-deriving a
	// set per link per iteration. Readers must not mutate it.
	origins asn.SmallSet
}

// PrevHop is one previous-hop interface of a link: its address and
// origin AS.
type PrevHop struct {
	Addr   netip.Addr
	Origin asn.ASN
}

// Router is an inferred router (IR): a set of aliased interfaces, its
// outgoing links, and its static metadata plus dynamic AS annotation.
type Router struct {
	// ID is the router's index in Graph.Routers: its rank by smallest
	// interface address. Finish assigns it, and assigns it again when an
	// append inserts routers ahead of this one (-1 until then).
	ID         int
	Interfaces []*Interface
	// Links are the router's outgoing links, ascending by subsequent
	// interface address.
	Links []*Link

	// OriginSet is the union of the IR's interface origin ASes (§4.3).
	OriginSet asn.SmallSet
	// DestASes is the aggregated destination-AS set after reallocated-
	// prefix cleanup (§4.4).
	DestASes asn.SmallSet

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
	// selection the refinement vote iterates, shared and immutable from
	// one Finish to the next (nil for a last-hop router, which has no
	// links).
	voteLinks []*Link

	// buildID is the router's index in its Builder's creation order. It
	// never changes, which is what the Builder's link table is keyed by;
	// ID moves whenever an append re-sorts the routers.
	buildID uint32
	// queued and touched are Builder scratch: the append epoch in which
	// Finish last had this router to re-derive, and in which its structure
	// last changed. Touching queues; a destination AS new to one of the
	// router's interfaces only queues — whether the aggregate moved is
	// for Finish to say.
	queued, touched uint32
}

// selectLinks returns the IR's links of the highest available confidence
// class: Nexthop links when any exist, otherwise Echo, otherwise
// Multihop (§4.2, §6.1.1).
func selectLinks(r *Router) []*Link {
	best := LabelMultihop
	for _, l := range r.Links {
		if l.Label > best {
			best = l.Label
		}
	}
	var out []*Link
	for _, l := range r.Links {
		if l.Label == best {
			out = append(out, l)
		}
	}
	return out
}

// Graph is the annotated IR graph (phase 1 output).
type Graph struct {
	// Interfaces holds every interface ascending by address, the one
	// deterministic interface order: state hashing, iteration and every
	// position-indexed array (checkpoints, provenance, the delta engine's
	// dirty sets) use it, and Interface searches it. Interfaces[k].pos is
	// k. The slice is the graph's own and must not be modified.
	Interfaces []*Interface
	Routers    []*Router

	// digest is graphDigest(g) as of the last Finish, and finishes how
	// many there have been.
	digest   uint64
	finishes uint32

	// Stats accumulates dataset statistics reported in the paper.
	Stats GraphStats
}

// Interface returns the interface with address addr, or nil when the
// graph holds none. Addresses are held unmapped, so the v4-mapped form of
// an IPv4 interface's address is a miss.
func (g *Graph) Interface(addr netip.Addr) *Interface {
	k, ok := slices.BinarySearchFunc(g.Interfaces, addr, func(i *Interface, a netip.Addr) int { return i.Addr.Compare(a) })
	if !ok {
		return nil
	}
	return g.Interfaces[k]
}

// Digest is the graph's shape fingerprint as of its last Finish: the
// GraphDigest a checkpoint of a run over it records.
func (g *Graph) Digest() uint64 { return g.digest }

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

// destGrowth is one destination AS added to an interface's set.
type destGrowth struct {
	iface *Interface
	as    asn.ASN
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
// then call Finish. Phase 1 is an accumulation — a trace only ever adds
// interfaces, links, previous hops and destination ASes, and raises
// labels — so the Builder outlives Finish: more traces and another
// Finish grow the same Graph in place, at a cost proportional to what
// the new traces touched (DESIGN §18).
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
	routers []*Router             // creation order, indexed by Router.buildID
	traces  int
	gen     uint32 // current trace's generation; never 0

	// The append being accumulated: what the traces added since the last
	// Finish changed. A router or interface is listed once, when a
	// statement that mutates its structure first finds its stamp behind
	// epoch. queue holds the routers Finish must re-derive, touched or
	// not; grown holds each destination AS an interface gained, which
	// changes the interface only if §4.4 cleanup lets it stand.
	epoch    uint32 // never 0; a wrap would need 2^32 Finish calls
	queue    []*Router
	touchedI []*Interface
	grown    []destGrowth

	graph *Graph     // what Finish returns, grown in place by every later Finish
	stats GraphStats // graph.Stats, kept current across touches (see touchRouter)
	last  *Append

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
	return newBuilder(resolver, aliases, 0, 0)
}

// newBuilder is NewBuilder with room for addrs interned addresses, as
// many interfaces and routers, and links links.
func newBuilder(resolver *ip2as.Resolver, aliases *alias.Sets, addrs, links int) *Builder {
	tab := make([]internEntry, 1, 1+addrs)
	tab[invalidID] = internEntry{kind: ip2as.Special}
	return &Builder{
		resolver: resolver,
		aliases:  aliases,
		ids:      make(map[netip.Addr]uint32, addrs),
		tab:      tab,
		links:    make(map[uint64]*Link, links),
		groups:   make(map[int]*Router),
		epoch:    1,
		routers:  make([]*Router, 0, addrs),
		queue:    make([]*Router, 0, addrs),
		touchedI: make([]*Interface, 0, addrs),
		newAddrs: make([]netip.Addr, 0, addrs),
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
		ID:      -1,
		buildID: uint32(len(b.routers)),
		queued:  b.epoch,
		touched: b.epoch,
	}
	b.routers = append(b.routers, r)
	b.queue = append(b.queue, r)
	return r
}

// requeue has the next Finish derive r again. Queueing a router an
// earlier Finish completed also takes its contribution out of the
// running statistics, so it must come before the statement that adds a
// link or raises a label: the router's links and last-hop flag still
// read as that Finish counted them. Finish counts every queued router
// back in.
//
//lint:hotpath
func (b *Builder) requeue(r *Router) {
	if r.queued == b.epoch {
		return
	}
	r.queued = b.epoch
	b.queue = append(b.queue, r)
	b.stats.count(r, -1)
}

// touchRouter records that the current append changes r's structure.
//
//lint:hotpath
func (b *Builder) touchRouter(r *Router) {
	if r.touched == b.epoch {
		return
	}
	r.touched = b.epoch
	b.requeue(r)
}

// touchIface records that the current append changes i's structure.
//
//lint:hotpath
func (b *Builder) touchIface(i *Interface) {
	if i.touched == b.epoch {
		return
	}
	i.touched = b.epoch
	b.touchedI = append(b.touchedI, i)
}

// newIface creates the interface for the interned address id, whose
// unmapped form is addr, on its first appearance as a kept hop.
func (b *Builder) newIface(id uint32, addr netip.Addr) *Interface {
	e := &b.tab[id]
	i := &Interface{
		Addr:     addr,
		Origin:   e.origin,
		Kind:     e.kind,
		EchoOnly: true,
		pos:      -1,
		touched:  b.epoch,
	}
	b.touchedI = append(b.touchedI, i)
	i.Router = b.routerFor(addr)
	b.touchRouter(i.Router)
	i.Router.Interfaces = append(i.Router.Interfaces, i)
	if i.Origin != asn.None && i.Kind != ip2as.IXP {
		i.Router.OriginSet.Add(i.Origin)
	}
	e.iface = i
	return i
}

// linkKey identifies the link from a router to an interned subsequent
// address.
func linkKey(from *Router, to uint32) uint64 {
	return uint64(from.buildID)<<32 | uint64(to)
}

func (b *Builder) newLink(key uint64, from *Router, to *Interface, label LinkLabel) *Link {
	b.touchRouter(from)
	b.touchIface(to)
	l := &Link{
		From:  from,
		To:    to,
		Label: label,
	}
	b.links[key] = l
	from.Links = append(from.Links, l)
	to.InLinks = append(to.InLinks, l)
	return l
}

// addDest adds a destination AS that is not in interface i's set. A set
// the §4.4 cleanup cut to one AS gets the removed AS back first: Finish
// decides afresh, from the set as observed, whether the cleanup still
// applies — and with that, whether i and its router's aggregate changed
// at all. (They did not if a is just the removed AS seen again.)
func (b *Builder) addDest(i *Interface, a asn.ASN) {
	if i.droppedDest != asn.None {
		i.DestASes.Add(i.droppedDest)
		i.droppedDest = asn.None
	}
	i.DestASes.Add(a)
	if i.touched != b.epoch {
		b.grown = append(b.grown, destGrowth{i, a})
	}
	b.requeue(i.Router)
}

// addInterned incorporates one traceroute whose addresses are already
// interned (ids[0] is the destination's ID, ids[1+k] hop k's):
// interfaces for each responsive hop, a link from each IR to the first
// interface seen subsequently (with a confidence label per §4.2 and the
// origin-AS set per §4.3), and destination-AS bookkeeping per §4.4.
// Every statement that changes structure — and only those: a repeated
// observation changes nothing — touches the router and interface whose
// structure it is.
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
		if i.EchoOnly && h.Reply != traceroute.EchoReply {
			i.EchoOnly = false
			b.touchIface(i)
			b.touchRouter(i.Router)
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
		if dstAS != asn.None && !(last && c.reply == traceroute.EchoReply) && !ci.DestASes.Has(dstAS) {
			b.addDest(ci, dstAS)
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
			b.touchRouter(ai.Router)
			b.touchIface(ci)
			l.Label = label
		}
		// A link is usually entered from the same previous hop trace
		// after trace; the memo spares that case the search.
		if l.lastPrev != a.id {
			l.lastPrev = a.id
			k, found := slices.BinarySearchFunc(l.Prev, ai.Addr, func(p PrevHop, a netip.Addr) int { return p.Addr.Compare(a) })
			if !found {
				l.Prev = slices.Insert(l.Prev, k, PrevHop{ai.Addr, ai.Origin})
				b.touchRouter(ai.Router)
				b.touchIface(ci)
			}
		}
		if dstAS != asn.None && l.DestASes.Add(dstAS) {
			b.touchRouter(ai.Router)
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

// Append is the record of one Finish: which routers and interfaces the
// traces added since the previous Finish touched, and where that Finish
// moved everything the graph already held. It is what lets a delta run
// (RunDeltaContext) carry a checkpoint taken over the graph as it was
// onto the graph as it is.
type Append struct {
	// graph and finish say which Finish of which graph this describes.
	graph  *Graph
	finish uint32
	// traces is the number of traces added since the previous Finish.
	traces int
	// baseDigest is the graph's digest before that Finish.
	baseDigest uint64
	// routerPos maps a router ID, and ifacePos a sorted-interface
	// position, from before this Finish to after it. Both are monotone
	// over everything untouched: appending inserts, it never reorders.
	routerPos, ifacePos []int
	// routers (by ID) and ifaces (by sorted position) are the touched
	// set. After the first Finish of a Builder that is everything.
	routers, ifaces []int
}

// LastAppend returns the record of the most recent Finish (nil before
// the first).
func (b *Builder) LastAppend() *Append { return b.last }

// byAddr orders interfaces by address; byRep orders routers by their
// representative — smallest — interface address.
func byAddr(a, b *Interface) int { return a.Addr.Compare(b.Addr) }
func byRep(a, b *Router) int     { return a.Interfaces[0].Addr.Compare(b.Interfaces[0].Addr) }

// mergeSorted merges add into old — both ascending under cmp, sharing no
// element — without disturbing the relative order of either.
func mergeSorted[T any](old, add []T, cmp func(a, b T) int) []T {
	if len(add) == 0 {
		return old
	}
	if len(old) == 0 {
		return add
	}
	out := make([]T, 0, len(old)+len(add))
	for len(old) > 0 && len(add) > 0 {
		if cmp(add[0], old[0]) < 0 {
			out = append(out, add[0])
			add = add[1:]
		} else {
			out = append(out, old[0])
			old = old[1:]
		}
	}
	return append(append(out, old...), add...)
}

// Finish completes phase 1 for the traces added so far: reallocated-
// prefix cleanup of destination-AS sets (§4.4), IR destination-set
// aggregation, last-hop marking, initial interface annotations (§6), the
// refinement caches, and statistics — for the routers those traces
// touched, which on a new Builder is every router. It then merges new
// interfaces and routers into the graph's sorted orders and renumbers
// them.
//
// The first call returns a new Graph; every later call grows that same
// Graph in place and returns it again, identical in structure to the
// graph a new Builder would build from all the traces in the same
// order. LastAppend describes what the call changed. rels must be the
// same oracle on every call. Annotations on a graph that has been
// appended to are stale until ResetAnnotations.
func (b *Builder) Finish(rels RelationshipOracle) *Graph {
	ph := b.Rec.Phase("finish-graph")
	defer ph.End()
	if b.graph == nil {
		b.graph = &Graph{}
	}
	g := b.graph
	g.finishes++
	app := &Append{graph: g, finish: g.finishes, traces: b.traces - g.Stats.Traces, baseDigest: g.digest}
	before, beforeIfaces, beforeRouters := g.Stats, len(g.Interfaces), len(g.Routers)

	// A router the graph already holds that gained an interface smaller
	// than all it had has a new representative: that is its identity and
	// its sort key, and it is part of the structure of its member
	// interfaces (their owner) and of its link targets (who points at
	// them). Such a router is pulled out of the order (ID -1, and a copy
	// of the order: the old one still says where everything was) and
	// merged back in with the new ones. It is rare, and the marking
	// appends to shared lists, so this runs before the sharded pass.
	old, placed := g.Routers, g.Routers
	moved := make([]*Router, 0, len(b.routers)-len(old))
	for _, r := range b.queue {
		if r.ID >= 0 {
			rep := r.Interfaces[0]
			slices.SortFunc(r.Interfaces, byAddr)
			if r.Interfaces[0] == rep {
				continue
			}
			r.ID = -1
			placed = slices.DeleteFunc(slices.Clone(placed), func(p *Router) bool { return p == r })
			for _, i := range r.Interfaces {
				b.touchIface(i)
			}
			for _, l := range r.Links {
				b.touchIface(l.To)
			}
		}
		moved = append(moved, r) // new routers sort their interfaces below, in parallel
	}

	// Per-router finishing touches only that router's state, so the pass
	// shards cleanly; statistics accumulate into per-shard slots merged
	// afterwards (counter sums commute, so the merge order is moot). A
	// router queued only because an interface gained a destination AS is
	// touched if that moved its aggregate.
	queue, epoch := b.queue, b.epoch
	perShard := make([]GraphStats, len(shard.Bounds(len(queue), b.Workers)))
	shard.ForShards(len(queue), b.Workers, func(s, lo, hi int) {
		st := &perShard[s]
		var agg asn.SmallSet
		for _, r := range queue[lo:hi] {
			if r.ID < 0 {
				slices.SortFunc(r.Interfaces, byAddr)
			}
			if finishRouter(r, rels, &agg) {
				r.touched = epoch
			}
			st.count(r, 1)
		}
	})
	for _, st := range perShard {
		b.stats.merge(st)
	}
	b.stats.Traces = b.traces
	g.Stats = b.stats
	// And an interface that gained a destination AS is touched unless
	// the cleanup just removed that very AS again.
	for _, d := range b.grown {
		if d.as != d.iface.droppedDest {
			b.touchIface(d.iface)
		}
	}

	// Deterministic router order: by smallest interface address.
	slices.SortFunc(moved, byRep)
	g.Routers = mergeSorted(placed, moved, byRep)
	for id, r := range g.Routers {
		r.ID = id
	}
	app.routerPos = make([]int, len(old))
	for id, r := range old {
		app.routerPos[id] = r.ID
	}

	// The same for interfaces: new ones are those no Finish has placed.
	var added []*Interface
	for _, i := range b.touchedI {
		if i.pos < 0 {
			added = append(added, i)
		}
	}
	slices.SortFunc(added, byAddr)
	oldIfaces := g.Interfaces
	g.Interfaces = mergeSorted(oldIfaces, added, byAddr)
	if len(added) > 0 {
		for pos, i := range g.Interfaces {
			i.pos = int32(pos)
		}
	}
	app.ifacePos = make([]int, len(oldIfaces))
	for pos, i := range oldIfaces {
		app.ifacePos[pos] = int(i.pos)
	}

	app.routers = make([]int, 0, len(b.queue))
	for _, r := range b.queue {
		if r.touched == b.epoch {
			app.routers = append(app.routers, r.ID)
		}
	}
	app.ifaces = make([]int, len(b.touchedI))
	for k, i := range b.touchedI {
		app.ifaces[k] = int(i.pos)
	}
	g.digest = graphDigest(g)
	b.last = app
	b.epoch++
	b.queue, b.touchedI, b.grown = b.queue[:0], b.touchedI[:0], b.grown[:0]

	if rec := b.Rec; rec.Enabled() {
		rec.Counter("graph.traces").Add(int64(g.Stats.Traces - before.Traces))
		rec.Counter("graph.interfaces").Add(int64(len(g.Interfaces) - beforeIfaces))
		rec.Counter("graph.routers").Add(int64(len(g.Routers) - beforeRouters))
		rec.Counter("graph.links.nexthop").Add(int64(g.Stats.LinksNexthop - before.LinksNexthop))
		rec.Counter("graph.links.echo").Add(int64(g.Stats.LinksEcho - before.LinksEcho))
		rec.Counter("graph.links.multihop").Add(int64(g.Stats.LinksMultihop - before.LinksMultihop))
		rec.Counter("graph.irs_with_links").Add(int64(g.Stats.IRsWithLinks - before.IRsWithLinks))
		rec.Counter("graph.irs_echo_only").Add(int64(g.Stats.IRsEchoOnlyLink - before.IRsEchoOnlyLink))
		rec.Counter("graph.lasthop_irs").Add(int64(g.Stats.LastHopIRs - before.LastHopIRs))
		rec.Counter("graph.lasthop_empty_dst").Add(int64(g.Stats.LastHopEmptyDst - before.LastHopEmptyDst))
		ph.Note("interfaces", int64(len(g.Interfaces)))
		ph.Note("routers", int64(len(g.Routers)))
		ph.Note("touched_routers", int64(len(app.routers)))
		ph.Note("touched_ifaces", int64(len(app.ifaces)))
	}
	return g
}

// finishRouter derives everything Finish owes one router from the
// structure the Builder accumulated for it, from scratch: the §4.4
// cleanup of its interfaces' destination sets and their aggregate, the
// last-hop flag, the initial interface annotations (the origin AS, §6),
// the link order, and the refinement hot-loop caches — links and their
// previous hops do not change again before the next Finish, so the
// per-iteration vote can read precomputed origin sets and link
// selections instead of re-deriving them for every router every
// iteration. The aggregate is built in agg, the caller's scratch, and
// copied — r must not alias the scratch — if it differs from the one r
// had, which is the result.
func finishRouter(r *Router, rels RelationshipOracle, agg *asn.SmallSet) (destChanged bool) {
	*agg = (*agg)[:0]
	for _, i := range r.Interfaces {
		if i.DestASes.Len() == 2 && rels != nil {
			cleanReallocatedDest(i, rels)
		}
		agg.AddAll(i.DestASes)
		i.Annotation = i.Origin
	}
	if destChanged = !agg.Equal(r.DestASes); destChanged {
		r.DestASes = append(r.DestASes[:0], *agg...)
	}
	r.LastHop = len(r.Links) == 0
	slices.SortFunc(r.Links, func(a, b *Link) int { return a.To.Addr.Compare(b.To.Addr) })
	for _, l := range r.Links {
		l.origins = l.origins[:0]
		for _, p := range l.Prev {
			if p.Origin != asn.None {
				l.origins.Add(p.Origin)
			}
		}
	}
	if !r.LastHop {
		r.voteLinks = selectLinks(r)
	}
	return destChanged
}

// count adds d times router r's contribution to the per-router tallies.
func (s *GraphStats) count(r *Router, d int) {
	if len(r.Links) == 0 {
		s.LastHopIRs += d
		if r.DestASes.Len() == 0 {
			s.LastHopEmptyDst += d
		}
		return
	}
	s.IRsWithLinks += d
	hasN, hasE := false, false
	for _, l := range r.Links {
		switch l.Label {
		case LabelNexthop:
			hasN = true
			s.LinksNexthop += d
		case LabelEcho:
			hasE = true
			s.LinksEcho += d
		default:
			s.LinksMultihop += d
		}
	}
	if hasE && !hasN {
		s.IRsEchoOnlyLink += d
	}
}

// ResetAnnotations returns the graph to its just-built annotation state:
// no router annotations, interface annotations at their origin AS.
// cmd/benchrun's provenance-overhead replay and the tests that hold
// RunContext to oracleRefine (equivalence_test.go,
// checkRefineAgainstOracle) use it to run phases 2–3 repeatedly over one
// graph without rebuilding phase 1.
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
// larger cone is inferred to be the reallocating provider and removed
// (and remembered in droppedDest, should a third destination AS turn up).
func cleanReallocatedDest(i *Interface, rels RelationshipOracle) {
	a, b := i.DestASes[0], i.DestASes[1]
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
	i.DestASes.Remove(drop)
	i.droppedDest = drop
}
