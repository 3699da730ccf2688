package core

import (
	"math"
	"net/netip"
	"testing"

	"repro/internal/asn"
	"repro/internal/traceroute"
)

// linkTo returns r's link to the interface at to, or nil.
func linkTo(r *Router, to netip.Addr) *Link {
	for _, l := range r.Links {
		if l.To.Addr == to {
			return l
		}
	}
	return nil
}

// TestLinkLabelsFig4 reproduces the paper's Fig. 4: a trace with hops at
// TTLs 1, 2, 4, 7, 8 where the TTL-8 hop answers with an Echo Reply.
//
//	hop  1      2      4       7       8
//	addr a      b      c1      c2      d
//	AS   A=100  B=200  C=300   C=300   D=400
//
// Expected labels: IR1→b N (adjacent), IR2→c1 M (gap, different
// origins), IR4→c2 N (gap but same origin), IR7→d E (echo reply).
func TestLinkLabelsFig4(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // a
	e.announce("2.0.0.0/24", 200) // b
	e.announce("3.0.0.0/24", 300) // c1, c2
	e.announce("4.0.0.0/24", 400) // d
	e.trace("4.0.0.99",
		"1.0.0.1", "2.0.0.1", "*", "3.0.0.1", "*", "*", "3.0.0.2", "4.0.0.1/e")
	g := e.graph()

	labelOf := func(from, to string) LinkLabel {
		t.Helper()
		r := iface(t, g, from).Router
		l := linkTo(r, netip.MustParseAddr(to))
		if l == nil {
			t.Fatalf("no link %s→%s", from, to)
		}
		return l.Label
	}
	if got := labelOf("1.0.0.1", "2.0.0.1"); got != LabelNexthop {
		t.Errorf("a→b = %v, want N", got)
	}
	if got := labelOf("2.0.0.1", "3.0.0.1"); got != LabelMultihop {
		t.Errorf("b→c1 = %v, want M", got)
	}
	if got := labelOf("3.0.0.1", "3.0.0.2"); got != LabelNexthop {
		t.Errorf("c1→c2 = %v, want N (same origin)", got)
	}
	if got := labelOf("3.0.0.2", "4.0.0.1"); got != LabelEcho {
		t.Errorf("c2→d = %v, want E", got)
	}
}

func TestLinkLabelUpgrade(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	// First observation across a gap (M), then adjacent (N): the link
	// keeps the highest-confidence label.
	e.trace("9.9.9.9", "1.0.0.1", "*", "2.0.0.1")
	e.trace("9.9.9.9", "1.0.0.1", "2.0.0.1")
	g := e.graph()
	r := iface(t, g, "1.0.0.1").Router
	l := linkTo(r, netip.MustParseAddr("2.0.0.1"))
	if l.Label != LabelNexthop {
		t.Errorf("label = %v, want upgraded N", l.Label)
	}
}

// TestLinkOriginSetsFig5 reproduces Fig. 2/Fig. 5: IR1 has interfaces a1
// and a2 (and alias c); the link origin set of (IR1, b1) is {A} while
// (IR1, b2) is {A, C}.
func TestLinkOriginSetsFig5(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // a1, a2 (ASA)
	e.announce("3.0.0.0/24", 300) // c (ASC)
	e.announce("2.0.0.0/24", 200) // b1, b2 (ASB)
	// a1, a2, c are aliases of IR1.
	e.aliases.Add(
		netip.MustParseAddr("1.0.0.1"),
		netip.MustParseAddr("1.0.0.2"),
		netip.MustParseAddr("3.0.0.1"))
	e.trace("9.0.0.1", "1.0.0.1", "2.0.0.1") // path 1: a1 b1
	e.trace("9.0.0.2", "1.0.0.2", "2.0.0.2") // path 2: a2 b2
	e.trace("9.0.0.3", "3.0.0.1", "2.0.0.2") // path 3: c b2
	g := e.graph()

	r := iface(t, g, "1.0.0.1").Router
	if len(r.Interfaces) != 3 {
		t.Fatalf("IR1 has %d interfaces, want 3 (aliases)", len(r.Interfaces))
	}
	l1 := linkTo(r, netip.MustParseAddr("2.0.0.1"))
	if s := l1.origins; !s.Equal(asn.SmallSet{100}) {
		t.Errorf("L(IR1,b1) = %v, want {100}", s)
	}
	l2 := linkTo(r, netip.MustParseAddr("2.0.0.2"))
	if s := l2.origins; !s.Equal(asn.SmallSet{100, 300}) {
		t.Errorf("L(IR1,b2) = %v, want {100, 300}", s)
	}
}

// TestDestASRecordingFig6 checks destination-AS bookkeeping, including
// the echo-reply exception for the last hop.
func TestDestASRecordingFig6(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("4.0.0.0/24", 400) // destination AS D
	e.trace("4.0.0.50", "1.0.0.1", "2.0.0.1", "2.0.0.9")
	g := e.graph()
	for _, addr := range []string{"1.0.0.1", "2.0.0.1", "2.0.0.9"} {
		if !iface(t, g, addr).DestASes.Has(400) {
			t.Errorf("dest AS 400 missing on %s", addr)
		}
	}

	// A trace ending in an Echo Reply must not record the destination
	// on its final interface.
	e2 := newEnv(t)
	e2.announce("1.0.0.0/24", 100)
	e2.announce("4.0.0.0/24", 400)
	e2.trace("4.0.0.1", "1.0.0.1", "4.0.0.1/e")
	g2 := e2.graph()
	if iface(t, g2, "4.0.0.1").DestASes.Len() != 0 {
		t.Error("echo-reply final hop recorded a destination AS")
	}
	if !iface(t, g2, "1.0.0.1").DestASes.Has(400) {
		t.Error("mid hop lost its destination AS")
	}
}

func TestEchoOnlyFlag(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("4.0.0.0/24", 400)
	e.trace("4.0.0.1", "1.0.0.1", "4.0.0.1/e")
	e.trace("9.9.9.9", "1.0.0.1")
	g := e.graph()
	if iface(t, g, "1.0.0.1").EchoOnly {
		t.Error("TE-replying interface marked echo-only")
	}
	if !iface(t, g, "4.0.0.1").EchoOnly {
		t.Error("echo-only interface not marked")
	}
}

func TestCleanHopsSpecialAndLoops(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	// Private hop in the middle acts as unresponsive; loop truncates.
	e.trace("9.9.9.9", "1.0.0.1", "10.0.0.1", "2.0.0.1", "1.0.0.1", "2.0.0.9")
	g := e.graph()
	if _, ok := g.Interfaces[netip.MustParseAddr("10.0.0.1")]; ok {
		t.Error("private address became an interface")
	}
	if _, ok := g.Interfaces[netip.MustParseAddr("2.0.0.9")]; ok {
		t.Error("post-loop hop retained")
	}
	// Gap over the private hop still links 1.0.0.1 → 2.0.0.1.
	r := iface(t, g, "1.0.0.1").Router
	if linkTo(r, netip.MustParseAddr("2.0.0.1")) == nil {
		t.Error("link across private hop missing")
	}
}

func TestLastHopMarking(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.trace("9.9.9.9", "1.0.0.1", "2.0.0.1")
	g := e.graph()
	if iface(t, g, "1.0.0.1").Router.LastHop {
		t.Error("mid router marked last-hop")
	}
	if !iface(t, g, "2.0.0.1").Router.LastHop {
		t.Error("final router not marked last-hop")
	}
	if g.Stats.LastHopIRs != 1 || g.Stats.IRsWithLinks != 1 {
		t.Errorf("stats: %+v", g.Stats)
	}
}

// TestReallocatedDestCleanup checks §4.4: an interface with exactly two
// destination ASes, one matching its origin, the other a small-cone AS
// with no BGP relationship, drops the larger-cone (reallocating
// provider) AS.
func TestReallocatedDestCleanup(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // provider P space (the interface)
	e.announce("5.0.0.0/24", 500) // customer C's announced prefix
	e.announce("6.0.0.0/24", 600) // P's other dest space
	// Give P a real cone > 5 so it is "the larger" and C cone 1.
	for c := uint32(700); c < 707; c++ {
		e.rels.AddP2C(100, asn.ASN(c))
	}
	// No relationship between 100 and 500 in the graph.
	// Interface 1.0.0.50 (origin 100) crossed by traces to C (500) and
	// to P-covered space (origin 100 itself).
	e.trace("5.0.0.9", "1.0.0.50", "5.0.0.1")
	e.trace("1.0.0.200", "1.0.0.50", "1.0.0.201")
	g := e.graph()
	i := iface(t, g, "1.0.0.50")
	if i.DestASes.Has(100) {
		t.Errorf("reallocating provider not removed: %v", i.DestASes)
	}
	if !i.DestASes.Has(500) {
		t.Errorf("customer lost: %v", i.DestASes)
	}
}

func TestReallocCleanupRequiresNoRelationship(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("5.0.0.0/24", 500)
	e.rels.AddP2C(100, 500) // relationship IS visible → keep both
	e.trace("5.0.0.9", "1.0.0.50", "5.0.0.1")
	e.trace("1.0.0.200", "1.0.0.50", "1.0.0.201")
	g := e.graph()
	i := iface(t, g, "1.0.0.50")
	if !i.DestASes.Has(100) || !i.DestASes.Has(500) {
		t.Errorf("visible relationship should keep both dests: %v", i.DestASes)
	}
}

func TestNoAliasesSeparateIRs(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.trace("9.9.9.9", "1.0.0.1", "1.0.0.2")
	g := e.graph()
	if iface(t, g, "1.0.0.1").Router == iface(t, g, "1.0.0.2").Router {
		t.Error("without aliases every interface is its own IR")
	}
}

func TestSameRouterAdjacentHopsNoSelfLink(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.aliases.Add(netip.MustParseAddr("1.0.0.1"), netip.MustParseAddr("1.0.0.2"))
	e.trace("9.9.9.9", "1.0.0.1", "1.0.0.2")
	g := e.graph()
	r := iface(t, g, "1.0.0.1").Router
	if len(r.Links) != 0 {
		t.Error("aliased adjacent hops created a self link")
	}
}

func TestBuilderStatsCounts(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.trace("9.9.9.9", "1.0.0.1", "2.0.0.1")
	e.trace("9.9.9.8", "1.0.0.1", "2.0.0.1")
	g := e.graph()
	if g.Stats.Traces != 2 {
		t.Errorf("traces = %d", g.Stats.Traces)
	}
	if g.Stats.LinksNexthop != 1 {
		t.Errorf("nexthop links = %d", g.Stats.LinksNexthop)
	}
}

func TestTraceWithOnlySpecialHops(t *testing.T) {
	e := newEnv(t)
	e.trace("9.9.9.9", "10.0.0.1", "192.168.1.1")
	g := e.graph()
	if len(g.Interfaces) != 0 || len(g.Routers) != 0 {
		t.Errorf("special-only trace built graph: %d ifaces", len(g.Interfaces))
	}
}

// TestAddTraceSeenPathAllocatesNothing: once a path's interfaces, links
// and destination AS are in the graph, adding it again is bookkeeping
// over Builder-owned scratch. The path carries what cleanHops has to
// handle: a private hop, an immediate repeat, and a loop that cuts it.
func TestAddTraceSeenPathAllocatesNothing(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("9.9.9.0/24", 300)
	e.trace("9.9.9.9", "1.0.0.1", "10.0.0.1", "2.0.0.1", "2.0.0.1", "2.0.0.2", "1.0.0.1", "9.9.9.9/e")
	b := NewBuilder(e.resolver, e.aliases)
	b.AddTrace(e.traces[0])
	if n := testing.AllocsPerRun(100, func() { b.AddTrace(e.traces[0]) }); n != 0 {
		t.Errorf("AddTrace on a seen path: %v allocations, want 0", n)
	}
	g := b.Finish(e.rels)
	if len(g.Interfaces) != 3 {
		t.Errorf("%d interfaces, want the 3 before the loop", len(g.Interfaces))
	}
}

// buildChunk builds traces in one AddTraces call.
func buildChunk(e *testEnv, traces []*traceroute.Trace) *Graph {
	b := NewBuilder(e.resolver, e.aliases)
	b.AddTraces(traces)
	return b.Finish(e.rels)
}

// TestRepeatedTracesChangeNothing: the memo paths — an address already
// interned, a link already known, a previous hop already recorded —
// must be pure shortcuts. Appending a second copy of every trace, or
// adding any one trace again, leaves the finished graph structurally
// identical apart from the trace count.
func TestRepeatedTracesChangeNothing(t *testing.T) {
	e, traces := campaign(t, 1, 8)
	want := buildChunk(e, traces)

	doubled := append(append([]*traceroute.Trace{}, traces...), traces...)
	got := buildChunk(e, doubled)
	if d := diffGraphs(got, want, true, false); d != "" {
		t.Errorf("corpus + a copy of itself: %s", d)
	}
	if got.Stats.Traces != 2*want.Stats.Traces {
		t.Errorf("corpus + a copy of itself: %d traces, want %d", got.Stats.Traces, 2*want.Stats.Traces)
	}

	for _, k := range []int{0, len(traces) / 3, len(traces) - 1} {
		b := NewBuilder(e.resolver, e.aliases)
		b.AddTraces(traces)
		b.AddTrace(traces[k])
		if d := diffGraphs(b.Finish(e.rels), want, true, false); d != "" {
			t.Errorf("trace %d added again: %s", k, d)
		}
	}
}

// TestTraceOrderChangesOnlyOrder: however the traces of different VPs
// interleave, every set-valued field of the graph is the same; only
// first-seen orders (InLinks) may differ.
func TestTraceOrderChangesOnlyOrder(t *testing.T) {
	e, traces := campaign(t, 1, 8)
	want := buildChunk(e, traces)

	byVP := map[string][]*traceroute.Trace{}
	var vps []string
	for _, tr := range traces {
		if _, ok := byVP[tr.VP]; !ok {
			vps = append(vps, tr.VP)
		}
		byVP[tr.VP] = append(byVP[tr.VP], tr)
	}
	if len(vps) < 2 {
		t.Fatalf("campaign has %d VPs, want at least 2", len(vps))
	}
	// Round-robin across the VPs, last VP first.
	var mixed []*traceroute.Trace
	for k := 0; len(mixed) < len(traces); k++ {
		for v := len(vps) - 1; v >= 0; v-- {
			if q := byVP[vps[v]]; k < len(q) {
				mixed = append(mixed, q[k])
			}
		}
	}
	if d := diffGraphs(buildChunk(e, mixed), want, false, true); d != "" {
		t.Errorf("VPs interleaved round-robin: %s", d)
	}
	reversed := append([]*traceroute.Trace{}, traces...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	if d := diffGraphs(buildChunk(e, reversed), want, false, true); d != "" {
		t.Errorf("corpus reversed: %s", d)
	}
}

// v4Mapped returns copies of traces with every IPv4 address, hop and
// destination, in its v4-mapped IPv6 form.
func v4Mapped(traces []*traceroute.Trace) []*traceroute.Trace {
	mapAddr := func(a netip.Addr) netip.Addr {
		if !a.Is4() {
			return a
		}
		return netip.AddrFrom16(a.As16())
	}
	mapped := make([]*traceroute.Trace, len(traces))
	for k, tr := range traces {
		m := *tr
		m.Dst = mapAddr(tr.Dst)
		m.Hops = append([]traceroute.Hop{}, tr.Hops...)
		for h := range m.Hops {
			m.Hops[h].Addr = mapAddr(m.Hops[h].Addr)
		}
		mapped[k] = &m
	}
	return mapped
}

// TestMappedAddressesAreTheSameInterfaces: a corpus whose every address
// arrives in v4-mapped IPv6 form (::ffff:a.b.c.d, as a JSONL record can
// spell it) builds the graph the plain corpus builds — same interfaces,
// same alias groups, same origins.
func TestMappedAddressesAreTheSameInterfaces(t *testing.T) {
	e, traces := campaign(t, 1, 8)
	want := buildChunk(e, traces)

	mapped := v4Mapped(traces)
	n := 0
	for k, tr := range traces {
		for h := range tr.Hops {
			if mapped[k].Hops[h].Addr != tr.Hops[h].Addr {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no address was mapped")
	}
	if d := diffGraphs(buildChunk(e, mapped), want, true, true); d != "" {
		t.Errorf("all-mapped corpus: %s", d)
	}
	// And mixed in one corpus: each mapped trace right after its plain twin.
	var both []*traceroute.Trace
	for k := range traces {
		both = append(both, traces[k], mapped[k])
	}
	if d := diffGraphs(buildChunk(e, both), want, true, false); d != "" {
		t.Errorf("plain and mapped twins interleaved: %s", d)
	}
}

// TestLoopDetectorSurvivesGenerationWrap forces the per-trace stamp
// counter through its uint32 wrap while traces with loops and repeats
// are being added: a stamp left by a trace 2^32 generations ago must
// not read as "seen in this trace".
func TestLoopDetectorSurvivesGenerationWrap(t *testing.T) {
	e := poolEnv(t)
	// Three one-hop traces leave stamps 1, 2 and 3 on three addresses;
	// the next three walk those addresses in generations that, after a
	// wrap that forgot to clear them, would be 1, 2 and 3 again.
	traces := decodePoolTraces([]byte{
		7, 0, poolEnd, 7, 2, poolEnd, 7, 4, poolEnd,
		7, 1, 0, 2, 4, poolEnd, 7, 1, 2, 4, 0, poolEnd, 7, 1, 4, 0, 2, poolEnd,
	})
	for _, c := range poolCases {
		traces = append(traces, decodePoolTraces(c.data)...)
	}
	want := buildChunk(e, traces)
	for _, before := range []uint32{0, 1, 2, 5} {
		b := NewBuilder(e.resolver, e.aliases)
		b.AddTraces(traces[:3])
		b.gen = math.MaxUint32 - before
		b.AddTraces(traces[3:])
		if b.gen >= uint32(len(traces)) {
			t.Fatalf("generation %d after wrapping from MaxUint32-%d: the counter did not wrap", b.gen, before)
		}
		if d := diffGraphs(b.Finish(e.rels), want, true, true); d != "" {
			t.Errorf("wrap %d traces in: %s", before, d)
		}
	}
}
