package core

// The differential oracle for graph construction: the map-keyed Builder
// exactly as it stood before construction moved onto interned IDs
// (DESIGN §18), kept test-only. Every address-keyed map the production
// Builder no longer has — resolved, seen, ifaces, byIface, the
// distinct-address set, routerSet — is still here, so agreement between
// the two is agreement between two independent derivations of §4.
//
// So are the AS sets as hash maps, which the graph held before they
// became sorted slices (asn.SmallSet): the oracle accumulates, cleans and
// aggregates in asn.Set side tables keyed by the entity, and Finish
// renders each into its graph field only once it is final — where
// diffGraphs compares.
//
// The oracle keys by the raw netip.Addr; it does not unmap. Inputs to
// the differential tests therefore carry no v4-mapped addresses; the
// mapped ≡ plain property has its own test.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

// oracleBuilder constructs the IR graph incrementally from traceroutes
// (paper §4). Feed traces with AddTrace, then call Finish. Optionally
// call PreResolve first to perform the IP→AS lookups concurrently.
type oracleBuilder struct {
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

	ifaceDests                 map[*Interface]asn.Set
	linkDests                  map[*Link]asn.Set
	routerOrigins, routerDests map[*Router]asn.Set
	// routerLinks maps each router's subsequent interface addresses to
	// its links, and linkPrev each link's previous-hop addresses to their
	// origin AS; Finish renders both into Router.Links and Link.Prev.
	routerLinks map[*Router]map[netip.Addr]*Link
	linkPrev    map[*Link]map[netip.Addr]asn.ASN

	// cleanHops scratch, reused by every AddTrace: its result never
	// outlives the call.
	hops []traceroute.Hop
	seen map[netip.Addr]bool
}

// newOracleBuilder returns an oracleBuilder resolving addresses through resolver and
// grouping interfaces through aliases (nil aliases → every interface is
// its own IR, paper §7.4).
func newOracleBuilder(resolver *ip2as.Resolver, aliases *alias.Sets) *oracleBuilder {
	return &oracleBuilder{
		resolver: resolver,
		aliases:  aliases,
		ifaces:   make(map[netip.Addr]*Interface),
		routers:  make(map[int]*Router),
		byIface:  make(map[netip.Addr]*Router),
		seen:     make(map[netip.Addr]bool),

		ifaceDests:    make(map[*Interface]asn.Set),
		linkDests:     make(map[*Link]asn.Set),
		routerOrigins: make(map[*Router]asn.Set),
		routerDests:   make(map[*Router]asn.Set),
		routerLinks:   make(map[*Router]map[netip.Addr]*Link),
		linkPrev:      make(map[*Link]map[netip.Addr]asn.ASN),
	}
}

func (b *oracleBuilder) routerFor(addr netip.Addr) *Router {
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

func (b *oracleBuilder) newRouter() *Router {
	r := &Router{ID: b.nextID}
	b.routerLinks[r] = make(map[netip.Addr]*Link)
	b.routerOrigins[r] = asn.NewSet()
	b.routerDests[r] = asn.NewSet()
	b.nextID++
	return r
}

// PreResolve performs the IP→AS lookups for addrs concurrently across
// the Builder's workers and caches the results for AddTrace. The
// trie-backed resolver layers are read-only during lookups, so shards
// share them safely; results land in a cache the (sequential) graph
// build then consults, keeping the build itself deterministic.
func (b *oracleBuilder) PreResolve(addrs []netip.Addr) {
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
func (b *oracleBuilder) lookup(addr netip.Addr) ip2as.Result {
	if res, ok := b.resolved[addr]; ok {
		return res
	}
	return b.resolver.Lookup(addr)
}

func (b *oracleBuilder) iface(addr netip.Addr) *Interface {
	i, ok := b.ifaces[addr]
	if !ok {
		res := b.lookup(addr)
		i = &Interface{
			Addr:     addr,
			Origin:   res.Origin,
			Kind:     res.Kind,
			EchoOnly: true,
		}
		b.ifaceDests[i] = asn.NewSet()
		i.Router = b.routerFor(addr)
		i.Router.Interfaces = append(i.Router.Interfaces, i)
		if i.Origin != asn.None && i.Kind != ip2as.IXP {
			b.routerOrigins[i.Router].Add(i.Origin)
		}
		b.ifaces[addr] = i
	}
	return i
}

// AddTrace incorporates one traceroute into the graph: interfaces for
// each responsive hop, a link from each IR to the first interface seen
// subsequently (with a confidence label per §4.2 and the origin-AS set
// per §4.3), and destination-AS bookkeeping per §4.4.
func (b *oracleBuilder) AddTrace(t *traceroute.Trace) {
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
			b.ifaceDests[i].Add(dstAS)
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
		l, ok := b.routerLinks[ai.Router][c.Addr]
		if !ok {
			l = &Link{
				From:  ai.Router,
				To:    ci,
				Label: label,
			}
			b.linkDests[l] = asn.NewSet()
			b.linkPrev[l] = make(map[netip.Addr]asn.ASN, 1)
			b.routerLinks[ai.Router][c.Addr] = l
			ci.InLinks = append(ci.InLinks, l)
		} else if label > l.Label {
			l.Label = label
		}
		b.linkPrev[l][a.Addr] = ai.Origin
		if dstAS != asn.None {
			b.linkDests[l].Add(dstAS)
		}
	}
}

// oracleMaxSeenScratch is the most addresses the seen scratch may hold and
// still be kept: clearing a map costs its capacity, so one record with
// an absurd hop count must not leave every later trace paying for it. A
// real trace has at most 255 hops (ProbeTTL is a byte).
const oracleMaxSeenScratch = 256

// cleanHops removes hops with private/special addresses (treated as
// unresponsive, per §4.2) and truncates at forwarding loops. The result
// is the Builder's scratch, valid until the next call.
func (b *oracleBuilder) cleanHops(hops []traceroute.Hop) []traceroute.Hop {
	if len(b.seen) > oracleMaxSeenScratch {
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
// interface annotations (§6), and statistics. The oracleBuilder must not be
// used afterwards.
func (b *oracleBuilder) Finish(rels RelationshipOracle) *Graph {
	ph := b.Rec.Phase("finish-graph")
	defer ph.End()
	g := &Graph{}
	g.Stats.Traces = b.traces

	// Deterministic router order: by smallest interface address.
	routerSet := make(map[*Router]bool)
	for _, i := range b.ifaces {
		routerSet[i.Router] = true
	}
	g.Routers = make([]*Router, 0, len(routerSet))
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

	g.Interfaces = make([]*Interface, 0, len(b.ifaces))
	for _, i := range b.ifaces {
		g.Interfaces = append(g.Interfaces, i)
	}
	sort.Slice(g.Interfaces, func(i, j int) bool {
		return g.Interfaces[i].Addr.Less(g.Interfaces[j].Addr)
	})

	// Per-router finishing touches only that router's state, so the pass
	// shards cleanly; statistics accumulate into per-shard slots merged
	// afterwards (counter sums commute, so the merge order is moot).
	perShard := make([]GraphStats, len(shard.Bounds(len(g.Routers), b.Workers)))
	shard.ForShards(len(g.Routers), b.Workers, func(s, lo, hi int) {
		st := &perShard[s]
		for _, r := range g.Routers[lo:hi] {
			// §4.4: per-interface reallocated-prefix cleanup, then aggregate.
			rdests := b.routerDests[r]
			for _, i := range r.Interfaces {
				dests := b.ifaceDests[i]
				if dests.Len() == 2 && rels != nil {
					oracleCleanReallocatedDest(i, dests, rels)
				}
				rdests.AddAll(dests)
				i.DestASes = dests.Sorted()
			}
			r.DestASes = rdests.Sorted()
			r.OriginSet = b.routerOrigins[r].Sorted()
			// Links ascending by subsequent address, each with its
			// previous hops ascending by address.
			links := b.routerLinks[r]
			r.Links = make([]*Link, 0, len(links))
			for _, l := range links {
				r.Links = append(r.Links, l)
				prev := b.linkPrev[l]
				l.Prev = make([]PrevHop, 0, len(prev))
				for a, o := range prev {
					l.Prev = append(l.Prev, PrevHop{Addr: a, Origin: o})
				}
				sort.Slice(l.Prev, func(i, j int) bool { return l.Prev[i].Addr.Less(l.Prev[j].Addr) })
			}
			sort.Slice(r.Links, func(i, j int) bool { return r.Links[i].To.Addr.Less(r.Links[j].To.Addr) })
			if len(r.Links) == 0 {
				r.LastHop = true
				st.LastHopIRs++
				if rdests.Len() == 0 {
					st.LastHopEmptyDst++
				}
			} else {
				st.IRsWithLinks++
				hasN, hasE := false, false
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
			// Refinement hot-loop caches. Links and their previous hops
			// are immutable from here on, so the per-iteration vote can
			// read precomputed origin sets and link selections instead of
			// re-deriving them for every router every iteration.
			for _, l := range r.Links {
				l.DestASes = b.linkDests[l].Sorted()
				l.origins = oracleLinkOrigins(l).Sorted()
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

// oracleLinkOrigins returns L(IRi,j): the origin ASes of From's
// interfaces seen immediately prior to To. Unannounced origins are
// omitted.
func oracleLinkOrigins(l *Link) asn.Set {
	s := asn.NewSet()
	for _, p := range l.Prev {
		if p.Origin != asn.None {
			s.Add(p.Origin)
		}
	}
	return s
}

// oracleCleanReallocatedDest applies the §4.4 reallocated-prefix test to
// one interface with exactly two destination ASes, dests: when one AS
// matches the interface origin, the other has a customer cone of at most
// five ASes, and the two share no BGP-observable relationship, the AS
// with the larger cone is inferred to be the reallocating provider and
// removed.
func oracleCleanReallocatedDest(i *Interface, dests asn.Set, rels RelationshipOracle) {
	ds := dests.Sorted()
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
	delete(dests, drop)
}

// oracleDistinctAddrs collects every distinct hop and destination address of
// the traces, in first-seen order.
func oracleDistinctAddrs(traces []*traceroute.Trace) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	add := func(a netip.Addr) {
		if a.IsValid() && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, t := range traces {
		add(t.Dst)
		for _, h := range t.Hops {
			add(h.Addr)
		}
	}
	return out
}

// buildOracle runs the parent's construction the way BuildGraphContext
// used to: one PreResolve over the whole corpus, then the traces.
func buildOracle(e *testEnv, traces []*traceroute.Trace, workers int, rec *obs.Recorder) *Graph {
	b := newOracleBuilder(e.resolver, e.aliases)
	b.Workers = workers
	b.Rec = rec
	b.PreResolve(oracleDistinctAddrs(traces))
	for _, t := range traces {
		b.AddTrace(t)
	}
	return b.Finish(e.rels)
}

// linkName identifies a link across two graphs: representative address
// of the source router, address of the target interface.
func linkName(l *Link) string {
	return l.From.Interfaces[0].Addr.String() + ">" + l.To.Addr.String()
}

// diffGraphs returns the first structural difference between two
// finished graphs, or "". Structure is everything phase 1 decides: the
// router partition and order, every set-valued field (through the
// structural digests, which hash members in sorted order, or in stored
// order where the order is the graph's own), the link
// caches Finish fills, and the statistics. With ordered set, the
// first-seen order of InLinks must agree too; Stats.Traces is compared
// only when traces is set.
func diffGraphs(got, want *Graph, ordered, traces bool) string {
	gs, ws := got.Stats, want.Stats
	if !traces {
		gs.Traces, ws.Traces = 0, 0
	}
	if gs != ws {
		return fmt.Sprintf("stats %+v, want %+v", gs, ws)
	}
	if len(got.Interfaces) != len(want.Interfaces) {
		return fmt.Sprintf("%d interfaces, want %d", len(got.Interfaces), len(want.Interfaces))
	}
	if len(got.Routers) != len(want.Routers) {
		return fmt.Sprintf("%d routers, want %d", len(got.Routers), len(want.Routers))
	}
	for id, wr := range want.Routers {
		gr := got.Routers[id]
		if gr.ID != id || wr.ID != id {
			return fmt.Sprintf("router %d carries ID %d (want side %d)", id, gr.ID, wr.ID)
		}
		if len(gr.Interfaces) != len(wr.Interfaces) {
			return fmt.Sprintf("router %d: %d interfaces, want %d", id, len(gr.Interfaces), len(wr.Interfaces))
		}
		for k, wi := range wr.Interfaces {
			if gi := gr.Interfaces[k]; gi.Addr != wi.Addr || gi.Router != gr {
				return fmt.Sprintf("router %d interface %d: %v, want %v", id, k, gi.Addr, wi.Addr)
			}
		}
		if g, w := routerStructDigest(gr), routerStructDigest(wr); g != w {
			return fmt.Sprintf("router %d (%v): structural digest %016x, want %016x", id, wr.Interfaces[0].Addr, g, w)
		}
		if gr.LastHop != wr.LastHop || gr.Annotation != wr.Annotation {
			return fmt.Sprintf("router %d: lasthop/annotation %v/%v, want %v/%v", id, gr.LastHop, gr.Annotation, wr.LastHop, wr.Annotation)
		}
		if len(gr.voteLinks) != len(wr.voteLinks) {
			return fmt.Sprintf("router %d: %d vote links, want %d", id, len(gr.voteLinks), len(wr.voteLinks))
		}
		for k, wl := range wr.voteLinks {
			gl := gr.voteLinks[k]
			if linkName(gl) != linkName(wl) {
				return fmt.Sprintf("router %d vote link %d: %s, want %s", id, k, linkName(gl), linkName(wl))
			}
			if !gl.origins.Equal(wl.origins) {
				return fmt.Sprintf("link %s: cached origins %v, want %v", linkName(wl), gl.origins, wl.origins)
			}
		}
	}
	for idx, wi := range want.Interfaces {
		gi, a := got.Interfaces[idx], wi.Addr
		if gi.Addr != a {
			return fmt.Sprintf("sorted address %d: %v, want %v", idx, gi.Addr, a)
		}
		if g, w := ifaceStructDigest(gi), ifaceStructDigest(wi); g != w {
			return fmt.Sprintf("interface %v: structural digest %016x, want %016x", a, g, w)
		}
		if gi.Annotation != wi.Annotation || gi.Router.ID != wi.Router.ID {
			return fmt.Sprintf("interface %v: annotation/router %v/%d, want %v/%d", a, gi.Annotation, gi.Router.ID, wi.Annotation, wi.Router.ID)
		}
		if !ordered {
			continue
		}
		for k, wl := range wi.InLinks {
			if g, w := linkName(gi.InLinks[k]), linkName(wl); g != w {
				return fmt.Sprintf("interface %v in-link %d: %s, want %s", a, k, g, w)
			}
		}
	}
	return ""
}

// buildCounters renders the non-zero construction counters of a report,
// the part of the telemetry both builders must agree on. (A counter that
// never fired and one that was never created read the same: the oracle
// registers resolve.* even for a corpus without addresses.)
func buildCounters(rec *obs.Recorder) string {
	c := rec.Report().Counters
	names := make([]string, 0, len(c))
	for name, v := range c {
		if v != 0 && (strings.HasPrefix(name, "resolve.") || strings.HasPrefix(name, "graph.")) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s=%d ", name, c[name])
	}
	return sb.String()
}

// checkAgainstOracle builds traces with the production Builder — in
// TraceBatch chunks through BuildGraphContext, or trace by trace through
// AddTrace when oneByOne is set — and with the oracle, and demands the
// same graph and the same construction counters, then the same
// refinement of that graph.
func checkAgainstOracle(t *testing.T, e *testEnv, traces []*traceroute.Trace, workers int, oneByOne bool) {
	t.Helper()
	wantRec := obs.New()
	want := buildOracle(e, traces, workers, wantRec)

	gotRec := obs.New()
	var got *Graph
	if oneByOne {
		b := NewBuilder(e.resolver, e.aliases)
		b.Workers = workers
		b.Rec = gotRec
		for _, tr := range traces {
			b.AddTrace(tr)
		}
		got = b.Finish(e.rels)
	} else {
		var err error
		got, err = BuildGraphContext(context.Background(), traces, e.resolver, e.aliases, e.rels,
			Options{Workers: workers, Recorder: gotRec})
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := diffGraphs(got, want, true, true); d != "" {
		t.Fatalf("graph differs from the oracle's: %s", d)
	}
	if g, w := buildCounters(gotRec), buildCounters(wantRec); g != w {
		t.Fatalf("construction counters differ from the oracle's:\n got %s\nwant %s", g, w)
	}
	checkRefineAgainstOracle(t, got, e.rels)
}

// checkRefineAgainstOracle refines g with oracleRefine and with
// production Run at workers 1 and 4, and demands the same annotations,
// iteration count and convergence verdict.
func checkRefineAgainstOracle(t *testing.T, g *Graph, rels RelationshipOracle) {
	t.Helper()
	want := oracleRefine(g, rels, Options{})
	wantState := oracleState(g)
	for _, workers := range []int{1, 4} {
		g.ResetAnnotations()
		got := mustRun(t, g, rels, Options{Workers: workers})
		if got.Iterations != want.Iterations || got.Converged != want.Converged ||
			got.CycleLength != want.CycleLength || oracleState(g) != wantState {
			t.Fatalf("workers=%d refinement differs from the oracle's: iterations %d vs %d, converged %v vs %v, cycle %d vs %d, annotations equal: %v",
				workers, got.Iterations, want.Iterations, got.Converged, want.Converged,
				got.CycleLength, want.CycleLength, oracleState(g) == wantState)
		}
	}
}

// campaign simulates a measurement campaign over the small topology:
// what eval.BuildDataset does, without importing eval (which imports
// this package).
func campaign(t testing.TB, seed int64, vps int) (*testEnv, []*traceroute.Trace) {
	t.Helper()
	in, err := topo.Generate(topo.SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	traces := in.RunCampaign(in.SelectVPs(vps, asn.NewSet()), in.Targets())
	seen := make(map[netip.Addr]bool)
	var addrs []netip.Addr
	for _, a := range oracleDistinctAddrs(traces) {
		if !netutil.IsSpecial(a) && !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	p := in.Prober()
	e := &testEnv{
		resolver: in.Resolver(),
		aliases:  alias.Merge(alias.MIDAR(p, addrs, alias.MIDAROptions{}), alias.Iffinder(p, addrs)),
		rels:     asrel.Infer(in.ASPaths()),
	}
	return e, traces
}

// TestBuilderMatchesOracleOnCampaigns: simulated campaigns × alias
// resolution on/off × workers {1, 4} × chunked/one-by-one.
func TestBuilderMatchesOracleOnCampaigns(t *testing.T) {
	for _, seed := range []int64{1, 2018} {
		e, traces := campaign(t, seed, 12)
		// Pad the front with repeats of the first half until the second
		// half — other VPs, so addresses not seen before — starts in a
		// later chunk and is resolved by a later ResolveBatch.
		half := len(traces) / 2
		var padded []*traceroute.Trace
		for len(padded) < TraceBatch {
			padded = append(padded, traces[:half]...)
		}
		traces = append(padded, traces[half:]...)
		for _, aliases := range []*alias.Sets{e.aliases, nil} {
			env := &testEnv{resolver: e.resolver, aliases: aliases, rels: e.rels}
			for _, workers := range []int{1, 4} {
				for _, oneByOne := range []bool{false, true} {
					name := fmt.Sprintf("seed=%d/aliases=%v/workers=%d/oneByOne=%v", seed, aliases != nil, workers, oneByOne)
					t.Run(name, func(t *testing.T) {
						checkAgainstOracle(t, env, traces, workers, oneByOne)
					})
				}
			}
		}
	}
}

// The hand-written table and the fuzz target share one small world: 16
// addresses (announced, aliased, IXP, unannounced, private, IPv6,
// invalid) and a byte language for trace sets over them, so every table
// case is also a fuzz seed.

// poolAddrs are the addresses a pool trace can use, by index.
var poolAddrs = [16]netip.Addr{
	0:  netip.MustParseAddr("1.0.0.1"),     // AS100
	1:  netip.MustParseAddr("1.0.0.2"),     // AS100
	2:  netip.MustParseAddr("2.0.0.1"),     // AS200, aliased with 3
	3:  netip.MustParseAddr("2.0.0.2"),     // AS200, aliased with 2
	4:  netip.MustParseAddr("3.0.0.1"),     // AS300
	5:  netip.MustParseAddr("3.0.0.2"),     // AS300, aliased with 6
	6:  netip.MustParseAddr("4.0.0.1"),     // AS400, aliased with 5
	7:  netip.MustParseAddr("9.9.9.9"),     // AS900: the usual destination
	8:  netip.MustParseAddr("11.0.0.2"),    // IXP LAN
	9:  netip.MustParseAddr("7.7.7.7"),     // unannounced
	10: netip.MustParseAddr("10.0.0.1"),    // private
	11: netip.MustParseAddr("192.168.1.1"), // private
	12: {},                                 // no address at all
	13: netip.MustParseAddr("2400::1"),     // AS600 (IPv6)
	14: netip.MustParseAddr("2400::2"),     // AS600 (IPv6)
	15: netip.MustParseAddr("2001:db8::1"), // IPv6 documentation space: special
}

// poolEnv resolves poolAddrs as annotated above.
func poolEnv(t testing.TB) *testEnv {
	t.Helper()
	e := newEnv(nil)
	for prefix, origin := range map[string]uint32{
		"1.0.0.0/24": 100, "2.0.0.0/24": 200, "3.0.0.0/24": 300,
		"4.0.0.0/24": 400, "9.9.9.0/24": 900, "2400::/32": 600,
	} {
		path, err := bgp.ParsePath("64999 " + asnString(origin))
		if err != nil {
			t.Fatal(err)
		}
		e.resolver.Table.Add(bgp.Route{Prefix: netip.MustParsePrefix(prefix), Path: path})
	}
	e.ixpPrefix("11.0.0.0/24")
	e.aliases.Add(poolAddrs[2], poolAddrs[3])
	e.aliases.Add(poolAddrs[5], poolAddrs[6])
	return e
}

// poolEnd terminates a trace in the byte language.
const poolEnd = 0xFF

// decodePoolTraces reads a trace set from data. A trace is its
// destination's pool index (low 4 bits), then one byte per hop — pool
// index in bits 0–3, reply type in bits 4–5 (mod 3), TTL gap beyond 1 in
// bits 6–7 — up to a poolEnd byte or 40 hops.
func decodePoolTraces(data []byte) []*traceroute.Trace {
	var traces []*traceroute.Trace
	for len(data) > 0 && len(traces) < 64 {
		t := &traceroute.Trace{VP: "vp", Dst: poolAddrs[data[0]&15], Stop: traceroute.StopGapLimit}
		data = data[1:]
		ttl := uint8(0)
		for len(data) > 0 && len(t.Hops) < 40 {
			b := data[0]
			data = data[1:]
			if b == poolEnd {
				break
			}
			ttl += 1 + b>>6
			t.Hops = append(t.Hops, traceroute.Hop{
				Addr: poolAddrs[b&15], ProbeTTL: ttl, Reply: traceroute.ReplyType((b >> 4 & 3) % 3),
			})
		}
		traces = append(traces, t)
	}
	return traces
}

// Hop bytes for the table: pool index, optionally marked.
const (
	echo = 1 << 4 // the hop answered with an Echo Reply
	gap  = 1 << 6 // one unresponsive TTL before the hop
)

// poolCases is the hand-written table: each case is a trace set in the
// byte language, chosen to take one branch of AddTrace.
var poolCases = []struct {
	name string
	data []byte
}{
	{"plain path", []byte{7, 0, 2, 4, 7 | echo}},
	{"loop cut", []byte{7, 0, 2, 4, 0, 5}},
	{"immediate repeat", []byte{7, 0, 2, 2, 4}},
	{"repeat across a dropped private hop", []byte{7, 0, 2, 10, 2, 4}},
	{"loop across a dropped private hop", []byte{7, 0, 2, 4, 10, 2, 1}},
	{"all-special trace", []byte{7, 10, 11, 15, 12}},
	{"empty trace", []byte{7, poolEnd, 7, 0, 2}},
	{"hop without an address", []byte{7, 0, 12, 2, 12, 12}},
	{"destination without an address", []byte{12, 0, 2, 4}},
	{"special destination", []byte{10, 0, 2, 4, poolEnd, 15, 0, 2, 4}},
	{"unannounced and IXP destinations", []byte{9, 0, 2, poolEnd, 8, 0, 4}},
	{"echo-reply last hop", []byte{7, 0, 2, 7 | echo, poolEnd, 7, 0, 2 | echo, 4}},
	{"echo-only interface", []byte{7, 0, 4 | echo, poolEnd, 7, 1, 4 | echo}},
	{"label upgrade M→E→N", []byte{7, 0, 4 | gap, poolEnd, 7, 0, 4 | echo, poolEnd, 7, 0, 4}},
	{"label never downgrades", []byte{7, 0, 4, poolEnd, 7, 0, 4 | gap, poolEnd, 7, 0, 4 | echo}},
	{"same-origin gap is a nexthop", []byte{7, 0, 1 | 2*gap}},
	{"two aliased hops adjacent", []byte{7, 0, 2, 3, 4, poolEnd, 7, 5, 6}},
	{"aliased hops in separate traces", []byte{7, 0, 2, 4, poolEnd, 7, 1, 3, 4}},
	{"previous hop alternates", []byte{7, 0, 4, poolEnd, 7, 1, 4, poolEnd, 7, 0, 4, poolEnd, 7, 0, 4}},
	{"previous hops through one aliased router", []byte{7, 2, 4, poolEnd, 7, 3, 4, poolEnd, 7, 2, 4}},
	{"IXP and unannounced hops", []byte{7, 0, 8, 2, 9, 4}},
	{"IPv6 hops", []byte{13, 13, 14 | echo, poolEnd, 14, 13, 15, 14}},
	{"destination seen later as a hop", []byte{4, 0, 2, poolEnd, 7, 0, 4, 2}},
	{"last hop goes on to a further hop", []byte{7, 0, 2, poolEnd, 7, 0, 2, 4}},
	{"third destination AS after a reallocated-prefix cleanup", []byte{4, 5, poolEnd, 7, 5, poolEnd, 13, 5}},
}

// checkPoolTraces runs one decoded trace set through both builders in
// all four arrangements: aliases on/off × one chunk/one trace at a time.
func checkPoolTraces(t *testing.T, e *testEnv, traces []*traceroute.Trace) {
	t.Helper()
	for _, aliases := range []*alias.Sets{e.aliases, nil} {
		env := &testEnv{resolver: e.resolver, aliases: aliases, rels: e.rels}
		for _, oneByOne := range []bool{false, true} {
			checkAgainstOracle(t, env, traces, 1, oneByOne)
		}
	}
}

func TestBuilderMatchesOracleOnTable(t *testing.T) {
	e := poolEnv(t)
	var all []*traceroute.Trace
	for _, c := range poolCases {
		traces := decodePoolTraces(c.data)
		all = append(all, traces...)
		t.Run(c.name, func(t *testing.T) { checkPoolTraces(t, e, traces) })
	}
	t.Run("every case in one corpus", func(t *testing.T) { checkPoolTraces(t, e, all) })
}

// TestPoolCasesBuildWhatTheyName spot-checks that the byte language
// says what the case names claim, so the table cannot rot into traces
// that exercise nothing.
func TestPoolCasesBuildWhatTheyName(t *testing.T) {
	e := poolEnv(t)
	build := func(name string) *Graph {
		for _, c := range poolCases {
			if c.name == name {
				b := NewBuilder(e.resolver, e.aliases)
				b.AddTraces(decodePoolTraces(c.data))
				return b.Finish(e.rels)
			}
		}
		t.Fatalf("no case %q", name)
		return nil
	}
	if g := build("loop cut"); len(g.Interfaces) != 3 {
		t.Errorf("loop cut: %d interfaces, want the 3 before the loop", len(g.Interfaces))
	}
	if g := build("all-special trace"); len(g.Interfaces) != 0 || g.Stats.Traces != 1 {
		t.Errorf("all-special trace: %d interfaces over %d traces", len(g.Interfaces), g.Stats.Traces)
	}
	g := build("label upgrade M→E→N")
	if l := linkTo(g.Interface(poolAddrs[0]).Router, poolAddrs[4]); l == nil || l.Label != LabelNexthop {
		t.Errorf("label upgrade: link %+v, want label N", l)
	}
	g = build("two aliased hops adjacent")
	if r := g.Interface(poolAddrs[2]).Router; r != g.Interface(poolAddrs[3]).Router || len(r.Links) != 1 {
		t.Errorf("aliased hops: routers differ or %d links, want one shared router with the one link onward", len(r.Links))
	}
	g = build("previous hop alternates")
	if l := linkTo(g.Interface(poolAddrs[0]).Router, poolAddrs[4]); l == nil || len(l.Prev) != 1 {
		t.Errorf("previous hop alternates: link from 1.0.0.1 %+v, want one previous hop", l)
	}
	g = build("previous hops through one aliased router")
	if l := linkTo(g.Interface(poolAddrs[2]).Router, poolAddrs[4]); l == nil || len(l.Prev) != 2 {
		t.Errorf("aliased previous hops: link %+v, want two previous hops", l)
	}
	if g := build("IPv6 hops"); len(g.Interfaces) != 2 {
		t.Errorf("IPv6 hops: %d interfaces, want 2", len(g.Interfaces))
	}
}

// FuzzAddTraceDifferential holds the production Builder to the oracle
// on arbitrary small trace sets over the pool.
func FuzzAddTraceDifferential(f *testing.F) {
	for _, c := range poolCases {
		f.Add(c.data)
	}
	e := poolEnv(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPoolTraces(t, e, decodePoolTraces(data))
	})
}

// Flags in the first byte of a FuzzAppendDifferential input, above the
// six bits that place the split.
const (
	appendMapped = 1 << 6 // the second part's IPv4 addresses arrive v4-mapped
	appendWrap   = 1 << 7 // the generation counter wraps during the second part
)

// checkAppendedPoolTraces builds traces on one production Builder in two
// parts — AddTraces, Finish, AddTraces, Finish — and holds the grown
// graph to the oracle's build of the whole list, with aliases and
// without. It also saves the Builder's image at the split and replays
// it, at one worker and at four, finishes, and appends the second part:
// the replayed Builder must be the one that never saved — the same
// graph and digest, the same append record, the same image — and its
// graph must annotate the same. head picks the split point and the
// flags above.
func checkAppendedPoolTraces(t *testing.T, e *testEnv, head byte, traces []*traceroute.Trace) {
	t.Helper()
	split := int(head&63) % (len(traces) + 1)
	second := traces[split:]
	if head&appendMapped != 0 {
		second = v4Mapped(second)
	}
	for _, aliases := range []*alias.Sets{e.aliases, nil} {
		env := &testEnv{resolver: e.resolver, aliases: aliases, rels: e.rels}
		want := buildOracle(env, traces, 1, nil)
		b := NewBuilder(env.resolver, env.aliases)
		b.AddTraces(traces[:split])
		g := b.Finish(env.rels)
		var replayed []*Builder
		saved := imageOf(t, b)
		for _, workers := range []int{1, 4} {
			rb := replayImage(t, env, saved, workers)
			rb.Finish(env.rels)
			replayed = append(replayed, rb)
		}
		if head&appendWrap != 0 {
			b.gen = math.MaxUint32 - uint32(len(second)/2)
			for _, rb := range replayed {
				rb.gen = b.gen
			}
		}
		b.AddTraces(second)
		if b.Finish(env.rels) != g {
			t.Fatal("the second Finish returned a different graph")
		}
		if d := diffGraphs(g, want, true, true); d != "" {
			t.Fatalf("split at %d of %d (aliases %v): appended graph differs from the oracle's: %s", split, len(traces), aliases != nil, d)
		}
		if g.digest != graphDigest(g) {
			t.Fatalf("split at %d of %d: stale graph digest", split, len(traces))
		}

		app, img := b.LastAppend(), imageOf(t, b)
		var rgs []*Graph
		for k, rb := range replayed {
			rb.AddTraces(second)
			rg := rb.Finish(env.rels)
			rapp := rb.LastAppend()
			switch {
			case rg.digest != g.digest:
				t.Fatalf("split at %d, replay %d: graph digest %016x, the unsaved Builder's %016x", split, k, rg.digest, g.digest)
			case !slices.Equal(rapp.routers, app.routers) || !slices.Equal(rapp.ifaces, app.ifaces) ||
				!slices.Equal(rapp.routerPos, app.routerPos) || !slices.Equal(rapp.ifacePos, app.ifacePos) || rapp.traces != app.traces:
				t.Fatalf("split at %d, replay %d: the append after the replay touched routers %v, interfaces %v; the unsaved Builder's %v, %v",
					split, k, rapp.routers, rapp.ifaces, app.routers, app.ifaces)
			case !bytes.Equal(imageOf(t, rb), img):
				t.Fatalf("split at %d, replay %d: the image differs from the unsaved Builder's", split, k)
			}
			if d := diffGraphs(rg, g, true, true); d != "" {
				t.Fatalf("split at %d, replay %d: %s", split, k, d)
			}
			rgs = append(rgs, rg)
		}
		wantAnn := dumpAnnotations(mustRun(t, g, env.rels, Options{Workers: 1}))
		for k, rg := range rgs {
			if got := dumpAnnotations(mustRun(t, rg, env.rels, Options{Workers: 1 + 3*k})); got != wantAnn {
				t.Fatalf("split at %d, replay %d: annotations differ from the unsaved Builder's graph's:\n got %.80q\nwant %.80q", split, k, got, wantAnn)
			}
		}
	}
}

// FuzzAppendDifferential holds a Builder that is finished, fed more
// traces and finished again to the oracle's one build of all of them, on
// arbitrary small trace sets over the pool split at an arbitrary point.
// The seeds are the table's cases split after their first and second
// trace, and the table as one corpus split early, in the middle and at
// either end, plain, v4-mapped and across a generation wrap.
func FuzzAppendDifferential(f *testing.F) {
	var all []byte
	for _, c := range poolCases {
		f.Add(append([]byte{1}, c.data...))
		f.Add(append([]byte{2}, c.data...))
		all = append(append(all, c.data...), poolEnd)
	}
	for _, head := range []byte{0, 1, 12, 63, 7 | appendMapped, 9 | appendWrap, 20 | appendMapped | appendWrap} {
		f.Add(append([]byte{head}, all...))
	}
	e := poolEnv(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkAppendedPoolTraces(t, e, data[0], decodePoolTraces(data[1:]))
	})
}

// The differential oracle for delta seeding: the structural digests and
// the two-graph diff exactly as the delta engine ran them before the
// Builder learned to say what an append touched (DESIGN §16) — every
// router and interface of both graphs fingerprinted, sorting links and
// previous hops as it goes (the AS sets are sorted slices now), and
// compared by representative address. Production seeds from Builder
// marks set where structure mutates; this derives the same answer from
// the finished graphs alone, so agreement between the two is agreement
// between two independent accounts of what a batch changed.

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

// hashU64 folds v into the running FNV-64a hash at h.
func hashU64(h *uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for _, x := range b {
		*h = (*h ^ uint64(x)) * fnvPrime
	}
}

func hashAddr(h *uint64, a netip.Addr) {
	b := a.As16()
	for _, x := range b {
		*h = (*h ^ uint64(x)) * fnvPrime
	}
}

func hashSet(h *uint64, s asn.SmallSet) {
	hashU64(h, uint64(len(s)))
	for _, a := range s {
		hashU64(h, uint64(a))
	}
}

// ifaceStructDigest fingerprints every structural input the annotation
// passes read through an interface: identity, origin, resolution kind,
// echo-only status, destination ASes, the owning router's identity
// (its representative address), and each incoming link's source
// router, label, and vote weight. Over-approximation is safe — a
// digest that flags too much only shrinks the replayed region — so the
// digest errs broad.
func ifaceStructDigest(i *Interface) uint64 {
	h := uint64(fnvOffset)
	hashAddr(&h, i.Addr)
	hashU64(&h, uint64(i.Origin))
	hashU64(&h, uint64(i.Kind))
	if i.EchoOnly {
		hashU64(&h, 1)
	} else {
		hashU64(&h, 0)
	}
	hashSet(&h, i.DestASes)
	hashAddr(&h, i.Router.Interfaces[0].Addr)
	links := append([]*Link(nil), i.InLinks...)
	sort.Slice(links, func(a, b int) bool {
		return links[a].From.Interfaces[0].Addr.Less(links[b].From.Interfaces[0].Addr)
	})
	hashU64(&h, uint64(len(links)))
	for _, l := range links {
		hashAddr(&h, l.From.Interfaces[0].Addr)
		hashU64(&h, uint64(l.Label))
		hashU64(&h, uint64(len(l.Prev)))
	}
	return h
}

// routerStructDigest fingerprints every structural input of the router
// vote: last-hop status, origin and destination AS sets, the member
// interfaces, and every outgoing link with its label, previous hops, and
// destination ASes — links and previous hops in their stored order, so
// two routers agree only if both hold them ascending or neither does.
func routerStructDigest(r *Router) uint64 {
	h := uint64(fnvOffset)
	if r.LastHop {
		hashU64(&h, 1)
	} else {
		hashU64(&h, 0)
	}
	hashSet(&h, r.OriginSet)
	hashSet(&h, r.DestASes)
	hashU64(&h, uint64(len(r.Interfaces)))
	for _, i := range r.Interfaces {
		hashAddr(&h, i.Addr)
		hashU64(&h, uint64(i.Origin))
		hashU64(&h, uint64(i.Kind))
		if i.EchoOnly {
			hashU64(&h, 1)
		} else {
			hashU64(&h, 0)
		}
	}
	hashU64(&h, uint64(len(r.Links)))
	for _, l := range r.Links {
		hashAddr(&h, l.To.Addr)
		hashU64(&h, uint64(l.Label))
		hashU64(&h, uint64(len(l.Prev)))
		for _, p := range l.Prev {
			hashAddr(&h, p.Addr)
			hashU64(&h, uint64(p.Origin))
		}
		hashSet(&h, l.DestASes)
	}
	return h
}

// oracleStructDigests returns the graph's structural digests: routers by
// router ID, interfaces by position in Graph.Interfaces.
func oracleStructDigests(g *Graph) (routers, ifaces []uint64) {
	routers = make([]uint64, len(g.Routers))
	for id, r := range g.Routers {
		routers[id] = routerStructDigest(r)
	}
	ifaces = make([]uint64, len(g.Interfaces))
	for idx, i := range g.Interfaces {
		ifaces[idx] = ifaceStructDigest(i)
	}
	return routers, ifaces
}

// oracleSeed is the structural half of the old deltaSeed: which merged
// routers (by ID) and interfaces (by sorted position) differ from their
// base counterpart or have none, and the base → merged index maps.
type oracleSeed struct {
	rdirty, idirty               []bool
	baseToMergedR, baseToMergedI []int
}

// oracleDeltaSeed diffs merged against base structurally. Identity
// crosses the graphs by representative address (each router's smallest
// interface address): alias sets are an input, not an inference, so a
// base router's interfaces always land in one merged router, and a
// merged router whose structure matches its base counterpart
// byte-for-byte starts clean.
func oracleDeltaSeed(merged, base *Graph) *oracleSeed {
	s := &oracleSeed{
		rdirty:        make([]bool, len(merged.Routers)),
		idirty:        make([]bool, len(merged.Interfaces)),
		baseToMergedR: make([]int, len(base.Routers)),
		baseToMergedI: make([]int, len(base.Interfaces)),
	}
	mergedIdx := make(map[netip.Addr]int, len(merged.Interfaces))
	for idx, i := range merged.Interfaces {
		mergedIdx[i.Addr] = idx
	}
	baseIfaces := make(map[netip.Addr]*Interface, len(base.Interfaces))
	for _, i := range base.Interfaces {
		baseIfaces[i.Addr] = i
	}
	baseRDig, baseIDig := oracleStructDigests(base)
	mergedRDig, mergedIDig := oracleStructDigests(merged)

	for bi, br := range base.Routers {
		s.baseToMergedR[bi] = merged.Interfaces[mergedIdx[br.Interfaces[0].Addr]].Router.ID
	}
	// mergedToBaseI inverts baseToMergedI; -1 marks an interface the
	// base graph does not have.
	mergedToBaseI := make([]int, len(merged.Interfaces))
	for idx := range mergedToBaseI {
		mergedToBaseI[idx] = -1
	}
	for bi, i := range base.Interfaces {
		idx := mergedIdx[i.Addr]
		s.baseToMergedI[bi] = idx
		mergedToBaseI[idx] = bi
	}

	for id, r := range merged.Routers {
		// The base counterpart is the base router with the same
		// representative address, if there is one.
		bi, ok := baseIfaces[r.Interfaces[0].Addr]
		if !ok || bi.Router.Interfaces[0] != bi || baseRDig[bi.Router.ID] != mergedRDig[id] {
			s.rdirty[id] = true
		}
	}
	for idx, bi := range mergedToBaseI {
		if bi < 0 || baseIDig[bi] != mergedIDig[idx] {
			s.idirty[idx] = true
		}
	}
	return s
}

// The differential oracle for refinement: the loop and the voting
// helpers exactly as the pre-optimization path ran them (DESIGN §12) —
// fresh maps and sets for every router, a full prevAnnotation snapshot
// every iteration, origin sets re-derived from Link.Prev and the link
// selection from Router.Links on every use — kept test-only and serial.
// It shares no voting code with production: none of the per-shard
// scratch, the changed-set snapshot or the caches Finish fills is read
// here, and a repeated state (§6.3) is recognised by comparing whole
// annotation states, not their hashes. Telemetry and provenance, which
// never feed back into an annotation, are not reproduced.

// oracleRefine runs phases 2 and 3 over a finished graph and returns
// what the loop decided: the annotations (on g), the iteration count,
// and the §6.3 convergence verdict.
func oracleRefine(g *Graph, rels RelationshipOracle, opts Options) *Result {
	opts.setDefaults()
	opts.Workers = 1
	oracleAnnotateLastHops(g, rels, opts)
	res := &Result{Graph: g}
	seen := make(map[string]int) // annotation state → iteration it first appeared
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		for _, r := range g.Routers {
			r.prevAnnotation = r.Annotation
		}
		for _, r := range g.Routers {
			if !r.LastHop {
				r.Annotation = oracleAnnotateRouter(r, rels, opts)
			}
		}
		for _, i := range g.Interfaces {
			oracleAnnotateInterface(i, rels)
		}
		res.Iterations = iter
		state := oracleState(g)
		if first, ok := seen[state]; ok {
			res.Converged = true
			res.CycleLength = iter - first
			break
		}
		seen[state] = iter
	}
	return res
}

// OracleRefine hands oracleRefine to equivalence_test.go, which has to
// live in package core_test: it builds its datasets with eval, and eval
// imports this package.
var OracleRefine = oracleRefine

// oracleState renders the complete annotation state.
func oracleState(g *Graph) string {
	b := make([]byte, 0, 4*(len(g.Routers)+len(g.Interfaces)))
	for _, r := range g.Routers {
		b = binary.BigEndian.AppendUint32(b, uint32(r.Annotation))
	}
	for _, i := range g.Interfaces {
		b = binary.BigEndian.AppendUint32(b, uint32(i.Annotation))
	}
	return string(b)
}

// oracleAnnotateRouter implements Algorithm 2 (§6.1): link votes with
// the Algorithm 3 heuristics, reallocated-prefix correction, interface
// votes, exception checks, the relationship-restricted election, and
// the hidden-AS check.
func oracleAnnotateRouter(r *Router, rels RelationshipOracle, opts Options) asn.ASN {
	votes := make(asn.Counter)
	m := make(map[asn.ASN]asn.Set) // vote AS → link origin ASes backing it
	linkVote := make(map[*Link]asn.ASN)

	links := selectLinks(r)
	for _, l := range links {
		a := oracleLinkHeuristics(l, rels, opts)
		if a == asn.None {
			continue
		}
		votes.Inc(a, 1)
		s, ok := m[a]
		if !ok {
			s = asn.NewSet()
			m[a] = s
		}
		s.AddAll(oracleLinkOrigins(l))
		linkVote[l] = a
	}

	if !opts.DisableRealloc {
		oracleFixReallocatedVotes(r, links, linkVote, votes, m, rels)
	}

	// Alg. 2 line 9: each IR interface votes with its origin AS.
	for _, i := range r.Interfaces {
		if i.Origin != asn.None {
			votes.Inc(i.Origin, 1)
		}
	}

	if !opts.DisableExceptions {
		if a, ok := oracleExceptionCases(r, linkVote, votes, rels); ok {
			return a
		}
	}

	if len(votes) == 0 {
		// Nothing to vote with (all interfaces and neighbours
		// unannounced); keep the previous annotation so propagated
		// annotations survive (§6.1.1 unannounced-address chains).
		return r.prevAnnotation
	}

	// Alg. 2 lines 11–12: restrict the election to origin ASes plus
	// subsequent ASes with a relationship to an origin on their links.
	restricted := asn.NewSet(r.OriginSet...)
	grew := false
	for v := range votes {
		if r.OriginSet.Has(v) {
			continue
		}
		for o := range m[v] {
			if rels.HasRelationship(o, v) {
				restricted.Add(v)
				grew = true
				break
			}
		}
	}
	if grew {
		if w := oracleElectFrom(r, votes, restricted, rels, opts); w != asn.None {
			return w
		}
	}

	// Alg. 2 lines 13–14: unrestricted election, then hidden-AS check.
	top, _ := votes.Max()
	a := oracleBreakTie(r, top, rels, opts)
	if opts.DisableHiddenAS || a == asn.None {
		return a
	}
	return oracleHiddenAS(r, a, m[a], rels)
}

// oracleElectFrom picks the AS with the most votes among the allowed
// set. asn.None when no allowed AS has votes.
func oracleElectFrom(r *Router, votes asn.Counter, allowed asn.Set, rels RelationshipOracle, opts Options) asn.ASN {
	best := 0
	for v, n := range votes {
		if allowed.Has(v) && n > best {
			best = n
		}
	}
	if best == 0 {
		return asn.None
	}
	var tied []asn.ASN
	for v, n := range votes {
		if allowed.Has(v) && n == best {
			tied = append(tied, v)
		}
	}
	return oracleBreakTie(r, tied, rels, opts)
}

// oracleBreakTie resolves a vote tie: first (unless ablated) toward the
// AS whose customer cone covers the most of the IR's destination ASes,
// then toward the smallest customer cone (§6.1.4: "the most likely
// customer AS").
func oracleBreakTie(r *Router, tied []asn.ASN, rels RelationshipOracle, opts Options) asn.ASN {
	if len(tied) <= 1 {
		return rels.SmallestCone(tied)
	}
	if !opts.DisableDestTieBreak && r.DestASes.Len() > 0 {
		// Restrict to candidates whose customer cone accounts for every
		// destination probed through the router: on edge routers the
		// destinations concentrate inside the true operator's cone,
		// while on transit routers (global destination sets) no
		// candidate qualifies and the rule stays silent.
		var full []asn.ASN
		for _, v := range tied {
			cone := rels.CustomerCone(v)
			all := true
			for _, d := range r.DestASes {
				if !cone.Has(d) {
					all = false
					break
				}
			}
			if all {
				full = append(full, v)
			}
		}
		if len(full) > 0 {
			tied = full
		} else if r.DestASes.Len() <= 10 {
			// Small (edge) destination sets: a unique best-coverage
			// candidate still identifies the operator even when one
			// destination escapes its visible cone. Large destination
			// sets stay with the paper's smallest-cone rule — there,
			// coverage only measures cone size.
			best, bestCover := []asn.ASN(nil), 0
			for _, v := range tied {
				cone := rels.CustomerCone(v)
				cover := 0
				for _, d := range r.DestASes {
					if cone.Has(d) {
						cover++
					}
				}
				switch {
				case cover > bestCover:
					best, bestCover = []asn.ASN{v}, cover
				case cover == bestCover && cover > 0:
					best = append(best, v)
				}
			}
			if len(best) == 1 {
				return best[0]
			}
		}
	}
	return rels.SmallestCone(tied)
}

// oracleLinkHeuristics implements Algorithm 3 (§6.1.1): the vote
// contributed by one link, with special cases for IXP addresses,
// unannounced addresses, and third-party addresses.
func oracleLinkHeuristics(l *Link, rels RelationshipOracle, opts Options) asn.ASN {
	j := l.To
	origins := oracleLinkOrigins(l)

	// Line 1: subsequent origin already among the link's origins.
	if j.Origin != asn.None && origins.Has(j.Origin) {
		return j.Origin
	}
	// Line 2: IXP public peering address → the likely transit provider:
	// the link origin AS with the largest customer cone (valley-free
	// reasoning, §6.1.1).
	if j.Kind == ip2as.IXP {
		return rels.LargestCone(oracleLinkOrigins(l).Sorted())
	}
	// The neighbour IR's annotation comes from the previous iteration's
	// snapshot.
	asj := j.Router.prevAnnotation
	// Lines 4–5: unannounced subsequent address → vote for its IR's
	// annotation, which propagates across unannounced chains (Fig. 8).
	if j.Origin == asn.None {
		return asj
	}
	// Lines 6–8: third-party test. The reply may have come from an
	// off-path interface owned by a third AS; detect via (1) an AS
	// relationship between a link origin and j's router annotation that
	// bypasses j's origin, and (2) j's origin never being a destination
	// of probes crossing this link.
	if !opts.DisableThirdParty && asj != asn.None && j.Origin != asj {
		bypass := false
		for o := range origins {
			if rels.HasRelationship(o, asj) {
				bypass = true
				break
			}
		}
		if bypass && !l.DestASes.Has(j.Origin) {
			return asj
		}
	}
	// Line 9: the interface's current annotation.
	return j.Annotation
}

// oracleFixReallocatedVotes implements §6.1.2: when every subsequent
// interface whose origin is in the IR's origin set (a) shares a single
// /24, (b) belongs to IRs annotated with one single AS, and (c) that AS
// is a customer of an IR origin AS, the addresses are inferred to be a
// reallocated prefix and their votes move from the provider to the
// customer.
func oracleFixReallocatedVotes(r *Router, links []*Link, linkVote map[*Link]asn.ASN,
	votes asn.Counter, m map[asn.ASN]asn.Set, rels RelationshipOracle) {

	var cands []*Link
	for _, l := range links {
		if l.To.Origin != asn.None && r.OriginSet.Has(l.To.Origin) {
			cands = append(cands, l)
		}
	}
	if len(cands) < 2 {
		return // require multiple links (§6.1.2)
	}
	var annot asn.ASN
	var prefix netip.Prefix
	for i, l := range cands {
		a := l.To.Router.prevAnnotation // previous iteration's snapshot
		p := netutil.Slash24(l.To.Addr)
		if i == 0 {
			annot, prefix = a, p
			continue
		}
		if a != annot || p != prefix {
			return
		}
	}
	if annot == asn.None {
		return
	}
	isCustomer := false
	for _, o := range r.OriginSet {
		if rels.IsProvider(o, annot) {
			isCustomer = true
			break
		}
	}
	if !isCustomer {
		return
	}
	for _, l := range cands {
		old, ok := linkVote[l]
		if !ok || old == annot {
			continue
		}
		votes.Inc(old, -1)
		if votes[old] <= 0 {
			delete(votes, old)
		}
		votes.Inc(annot, 1)
		linkVote[l] = annot
		s, ok := m[annot]
		if !ok {
			s = asn.NewSet()
			m[annot] = s
		}
		s.AddAll(oracleLinkOrigins(l))
	}
}

// oracleExceptionCases implements §6.1.3: the multihomed-customer
// exception and the multiple-peers/providers exception. ok reports
// whether an exception fired.
func oracleExceptionCases(r *Router, linkVote map[*Link]asn.ASN, votes asn.Counter,
	rels RelationshipOracle) (asn.ASN, bool) {

	subs := asn.NewSet()
	for _, v := range linkVote {
		if v != asn.None {
			subs.Add(v)
		}
	}

	// Multihomed to a provider: a single subsequent AS that is a
	// customer of an IR origin AS operates the router (Fig. 11).
	if subs.Len() == 1 {
		asj := subs.Sorted()[0]
		if !r.OriginSet.Has(asj) {
			for _, o := range r.OriginSet {
				if rels.IsProvider(o, asj) {
					return asj, true
				}
			}
		}
	}

	// Multiple peers/providers: the common denominator operates the IR,
	// provided it retains at least half the top vote count.
	_, maxVotes := votes.Max()
	halfOK := func(a asn.ASN) bool { return votes[a]*2 >= maxVotes }

	if r.OriginSet.Len() == 1 && subs.Len() > 1 {
		origin := r.OriginSet[0]
		all := true
		for s := range subs {
			if s != origin && !rels.IsPeer(origin, s) && !rels.IsProvider(s, origin) {
				all = false
				break
			}
		}
		if all && halfOK(origin) {
			return origin, true
		}
	}
	if r.OriginSet.Len() > 1 && subs.Len() == 1 {
		s := subs.Sorted()[0]
		all := true
		for _, o := range r.OriginSet {
			if o != s && !rels.IsPeer(s, o) && !rels.IsProvider(s, o) {
				all = false
				break
			}
		}
		if all && !r.OriginSet.Has(s) && halfOK(s) {
			return s, true
		}
	}
	return asn.None, false
}

// oracleHiddenAS implements §6.1.5: when the selected AS has no
// relationship with any IR origin AS, look for a single AS bridging the
// link origins and the selection — a customer of a link origin that is a
// provider of the selection (Fig. 12) — and use it instead.
func oracleHiddenAS(r *Router, selected asn.ASN, backing asn.Set, rels RelationshipOracle) asn.ASN {
	if r.OriginSet.Has(selected) {
		return selected
	}
	for _, o := range r.OriginSet {
		if rels.HasRelationship(o, selected) {
			return selected
		}
	}
	bridges := asn.NewSet()
	for p := range rels.Providers(selected) {
		for o := range backing {
			if rels.IsProvider(o, p) {
				bridges.Add(p)
				break
			}
		}
	}
	if bridges.Len() == 0 {
		// Fall back to the IR origin set when the links carried no
		// origins (e.g. all unannounced).
		for p := range rels.Providers(selected) {
			for _, o := range r.OriginSet {
				if rels.IsProvider(o, p) {
					bridges.Add(p)
					break
				}
			}
		}
	}
	if bridges.Len() == 1 {
		return bridges.Sorted()[0]
	}
	return selected
}

// oracleAnnotateInterface implements §6.2: align each interface's
// annotation with the router it connects to. When the interface's origin
// differs from its IR's annotation the origin identifies the far router;
// otherwise the connected IRs vote, weighted by how many of their
// interfaces preceded this one in traceroutes.
func oracleAnnotateInterface(i *Interface, rels RelationshipOracle) {
	if i.Kind == ip2as.IXP || i.Origin == asn.None {
		return
	}
	if i.Origin != i.Router.Annotation {
		i.Annotation = i.Origin
		return
	}
	// Restrict the vote to the highest-confidence in-links available
	// (§4.2's class hierarchy): a Nexthop link identifies the connected
	// router far more reliably than a Multihop link bridging a gap.
	best := LabelMultihop
	for _, l := range i.InLinks {
		if l.Label > best {
			best = l.Label
		}
	}
	votes := make(asn.Counter)
	for _, l := range i.InLinks {
		if l.Label != best {
			continue
		}
		if a := l.From.Annotation; a != asn.None {
			votes.Inc(a, len(l.Prev))
		}
	}
	top, _ := votes.Max()
	switch len(top) {
	case 0:
		i.Annotation = i.Origin
	case 1:
		i.Annotation = top[0]
	default:
		var related []asn.ASN
		for _, t := range top {
			if rels.HasRelationship(t, i.Origin) {
				related = append(related, t)
			}
		}
		if len(related) > 0 {
			i.Annotation = rels.LargestCone(related)
		} else {
			i.Annotation = i.Origin
		}
	}
}

// oracleAnnotateLastHops implements phase 2 (§5) as production ran it
// while its working sets were hash maps: every IR without outgoing links
// is annotated from its origin-AS set and destination-AS set, serially.
func oracleAnnotateLastHops(g *Graph, rels RelationshipOracle, opts Options) {
	for _, r := range g.Routers {
		if !r.LastHop {
			continue
		}
		if r.DestASes.Len() == 0 || opts.DisableLastHopDest {
			r.Annotation = oracleAnnotateEmptyDest(r, rels)
		} else {
			r.Annotation = oracleAnnotateWithDest(r, rels)
		}
	}
}

// oracleAnnotateEmptyDest handles §5.1: the IR's interfaces were only
// seen in Echo Replies (or the destination heuristic is ablated), so
// only the origin-AS set is available.
func oracleAnnotateEmptyDest(r *Router, rels RelationshipOracle) asn.ASN {
	origins := r.OriginSet
	switch len(origins) {
	case 0:
		return asn.None
	case 1:
		return origins[0]
	}
	// ASes in the set with a relationship to all other ASes in the set;
	// tie → smallest customer cone (the inferred customer).
	var related []asn.ASN
	for _, a := range origins {
		all := true
		for _, b := range origins {
			if a != b && !rels.HasRelationship(a, b) {
				all = false
				break
			}
		}
		if all {
			related = append(related, a)
		}
	}
	if len(related) > 0 {
		return rels.SmallestCone(related)
	}
	// An AS outside the set with a relationship to every member.
	var outside []asn.ASN
	cand := oracleNeighborSet(rels, origins[0])
	for a := range cand {
		if r.OriginSet.Has(a) {
			continue
		}
		all := true
		for _, b := range origins {
			if !rels.HasRelationship(a, b) {
				all = false
				break
			}
		}
		if all {
			outside = append(outside, a)
		}
	}
	if len(outside) > 0 {
		return rels.SmallestCone(outside)
	}
	// Most interface AS mappings; tie → smallest customer cone.
	votes := make(asn.Counter)
	for _, i := range r.Interfaces {
		if i.Origin != asn.None {
			votes.Inc(i.Origin, 1)
		}
	}
	top, _ := votes.Max()
	return rels.SmallestCone(top)
}

func oracleNeighborSet(rels RelationshipOracle, a asn.ASN) asn.Set {
	s := asn.NewSet()
	s.AddAll(rels.Providers(a))
	s.AddAll(rels.Customers(a))
	s.AddAll(rels.Peers(a))
	return s
}

// oracleAnnotateWithDest implements Algorithm 1 (§5.2).
func oracleAnnotateWithDest(r *Router, rels RelationshipOracle) asn.ASN {
	D := r.DestASes
	O := r.OriginSet

	// Line 3: overlap between origin and destination sets. A single
	// overlapping AS wins outright; multiple → smallest customer cone
	// (the AS using a reallocated prefix from the larger one).
	var overlap []asn.ASN
	for _, o := range O {
		if D.Has(o) {
			overlap = append(overlap, o)
		}
	}
	if len(overlap) == 1 {
		return overlap[0]
	}
	if len(overlap) > 1 {
		return rels.SmallestCone(overlap)
	}

	// Lines 4–6: destination ASes with a relationship to any origin AS;
	// pick the one whose customer cone covers the most destinations
	// (the inferred transit provider for the others).
	var drel []asn.ASN
	for _, d := range D {
		for _, o := range O {
			if rels.HasRelationship(d, o) {
				drel = append(drel, d)
				break
			}
		}
	}
	if len(drel) > 0 {
		best, bestCover, bestCone := asn.None, -1, -1
		for _, d := range drel {
			cover := 0
			cone := rels.CustomerCone(d)
			for _, x := range D {
				if cone.Has(x) {
					cover++
				}
			}
			sz := rels.ConeSize(d)
			if cover > bestCover ||
				(cover == bestCover && sz > bestCone) ||
				(cover == bestCover && sz == bestCone && d < best) {
				best, bestCover, bestCone = d, cover, sz
			}
		}
		return best
	}

	// Lines 7–10: no relationship between any destination and origin.
	// a = the destination AS with the smallest customer cone.
	a := rels.SmallestCone(D)
	// Look for a bridge AS: a provider of a that is also a customer of
	// some origin AS. Exactly one such AS → use it.
	bridge := asn.NewSet()
	for p := range rels.Providers(a) {
		for _, o := range O {
			if rels.IsProvider(o, p) {
				bridge.Add(p)
				break
			}
		}
	}
	if bridge.Len() == 1 {
		return bridge.Sorted()[0]
	}
	return a
}
