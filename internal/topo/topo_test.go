package topo

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/asn"
)

func smallNet(t *testing.T, seed int64) *Internet {
	t.Helper()
	in, err := Generate(SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGenerateCounts(t *testing.T) {
	in := smallNet(t, 1)
	cfg := in.Cfg
	want := cfg.NumTier1 + cfg.NumTransit + cfg.NumAccess + cfg.NumRE + cfg.NumStub
	if len(in.ASList) != want {
		t.Errorf("ASes = %d, want %d", len(in.ASList), want)
	}
	if len(in.IXPs) != cfg.NumIXPs {
		t.Errorf("IXPs = %d", len(in.IXPs))
	}
	if len(in.Routers) == 0 || len(in.IfaceByAddr) == 0 {
		t.Fatal("no routers or interfaces generated")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := SmallConfig(1)
	cfg.NumTier1 = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for tiny clique")
	}
}

// TestAddIfaceDuplicateReturnsError: a duplicate interface address is
// reported as a Generate-style error, never a panic.
func TestAddIfaceDuplicateReturnsError(t *testing.T) {
	in := smallNet(t, 5)
	var existing *Iface
	for _, i := range in.IfaceByAddr {
		existing = i
		break
	}
	if _, err := in.addIface(in.Routers[0], existing.Addr); err == nil {
		t.Fatal("addIface accepted a duplicate address")
	} else if got := err.Error(); !strings.Contains(got, "duplicate interface address") {
		t.Errorf("err = %q, want a duplicate-address diagnostic", got)
	}
	// The failed add must not have half-attached the interface.
	if in.IfaceByAddr[existing.Addr] != existing {
		t.Error("duplicate add replaced the existing interface")
	}
	for _, ri := range in.Routers[0].Ifaces {
		if ri.Addr == existing.Addr && ri != existing {
			t.Error("duplicate add left a dangling interface on the router")
		}
	}
}

func TestUniqueAddresses(t *testing.T) {
	// addIface rejects duplicates; generation succeeding proves
	// uniqueness. Spot-check interface/router back pointers instead.
	in := smallNet(t, 2)
	for addr, i := range in.IfaceByAddr {
		if i.Addr != addr {
			// IPv6 twins key the same interface under the embedding.
			if v4, ok := V4Of(addr); !ok || v4 != i.Addr {
				t.Fatalf("interface %v keyed as %v", i.Addr, addr)
			}
			continue
		}
		found := false
		for _, ri := range i.Router.Ifaces {
			if ri == i {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("interface %v not on its router", addr)
		}
	}
}

func TestRelationshipsAcyclic(t *testing.T) {
	in := smallNet(t, 3)
	// No AS may appear in its own (strict) customer cone via a cycle:
	// CustomerCone terminates and includes the AS exactly once.
	for _, a := range in.ASList {
		cone := in.Rels.CustomerCone(a.ASN)
		if !cone.Has(a.ASN) {
			t.Fatalf("cone of %v misses itself", a.ASN)
		}
	}
	// Providers and customers are mutually consistent.
	for _, a := range in.ASList {
		for _, p := range a.Providers {
			if !in.Rels.IsProvider(p.ASN, a.ASN) {
				t.Fatalf("relationship %v→%v missing from graph", p.ASN, a.ASN)
			}
		}
	}
}

func TestEdgesRealized(t *testing.T) {
	in := smallNet(t, 4)
	for _, e := range in.Edges() {
		if e.AIface == nil || e.BIface == nil {
			t.Fatalf("edge %v-%v has no interfaces", e.A.ASN, e.B.ASN)
		}
		if e.AIface.Router.Owner != e.A || e.BIface.Router.Owner != e.B {
			t.Fatalf("edge %v-%v interfaces on wrong routers", e.A.ASN, e.B.ASN)
		}
		if e.IXP == nil && e.AIface.Peer != e.BIface {
			t.Fatalf("p2p edge %v-%v not peered", e.A.ASN, e.B.ASN)
		}
	}
}

func TestValleyFreePaths(t *testing.T) {
	in := smallNet(t, 5)
	rels := in.Rels
	classify := func(a, b asn.ASN) int {
		switch {
		case rels.IsProvider(a, b):
			return -1 // down
		case rels.IsProvider(b, a):
			return +1 // up
		default:
			return 0 // peer
		}
	}
	checked := 0
	for i := 0; i < len(in.ASList); i += 7 {
		for j := 1; j < len(in.ASList); j += 11 {
			src, dst := in.ASList[i], in.ASList[j]
			if src == dst || dst.ReallocSilent {
				continue
			}
			path, ok := in.ASPathTo(src.ASN, dst.ASN)
			if !ok {
				continue
			}
			// Valley-free: once the path goes down or crosses a peer
			// link it may never go up or peer again. The final hop is
			// exempt: a BGP-invisible backup link delivers on-link.
			descended := false
			for k := 0; k+1 < len(path); k++ {
				c := classify(path[k], path[k+1])
				lastHop := k+2 == len(path)
				if descended && c >= 0 && !lastHop {
					t.Fatalf("valley in path %v at %d", path, k)
				}
				if c <= 0 {
					descended = true
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
}

func TestTracerouteStructure(t *testing.T) {
	in := smallNet(t, 6)
	vps := in.SelectVPs(5, nil)
	if len(vps) != 5 {
		t.Fatalf("got %d VPs", len(vps))
	}
	rng := rand.New(rand.NewSource(9))
	count := 0
	for _, dst := range in.Targets()[:40] {
		tr := in.Traceroute(vps[0], dst, rng)
		if tr == nil {
			continue
		}
		count++
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid trace to %v: %v", dst, err)
		}
		// Every reply address must belong to a real interface.
		for _, h := range tr.Hops {
			if _, ok := in.IfaceByAddr[h.Addr]; !ok {
				t.Fatalf("trace reply from unknown address %v", h.Addr)
			}
		}
	}
	if count == 0 {
		t.Fatal("no traces produced")
	}
}

func TestFirewalledNeverRevealsInside(t *testing.T) {
	in := smallNet(t, 7)
	var fw *AS
	for _, a := range in.ASList {
		if a.Firewalled && !a.ReallocSilent {
			fw = a
			break
		}
	}
	if fw == nil {
		t.Skip("no firewalled AS in this seed")
	}
	vps := in.SelectVPs(3, asn.SmallSet{fw.ASN})
	rng := rand.New(rand.NewSource(1))
	for _, vp := range vps {
		tr := in.Traceroute(vp, fw.Hosts[0], rng)
		if tr == nil {
			continue
		}
		seenInside := 0
		for _, h := range tr.Hops {
			if r := in.RouterOf(h.Addr); r != nil && r.Owner == fw {
				seenInside++
			}
		}
		if seenInside > 1 {
			t.Errorf("firewalled AS revealed %d routers", seenInside)
		}
		if tr.ReachedDst() {
			t.Error("probe reached a firewalled host")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := smallNet(t, 42)
	b := smallNet(t, 42)
	if len(a.Routers) != len(b.Routers) || len(a.IfaceByAddr) != len(b.IfaceByAddr) {
		t.Fatal("generation not deterministic in size")
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatal("RIB not deterministic")
	}
	for i := range a.Routes {
		if a.Routes[i].Prefix != b.Routes[i].Prefix {
			t.Fatalf("route %d differs", i)
		}
	}
	// Campaign determinism.
	vpsA := a.SelectVPs(3, nil)
	vpsB := b.SelectVPs(3, nil)
	trA := a.RunCampaign(vpsA, a.Targets()[:30])
	trB := b.RunCampaign(vpsB, b.Targets()[:30])
	if len(trA) != len(trB) {
		t.Fatalf("campaigns differ in size: %d vs %d", len(trA), len(trB))
	}
	for i := range trA {
		if trA[i].Dst != trB[i].Dst || len(trA[i].Hops) != len(trB[i].Hops) {
			t.Fatalf("trace %d differs", i)
		}
	}
}

func TestGroundTruthNetworks(t *testing.T) {
	in := smallNet(t, 8)
	gt := in.GroundTruthNetworks()
	for _, key := range []string{"Tier1", "LAccess", "RE1", "RE2"} {
		a, ok := gt[key]
		if !ok {
			t.Fatalf("missing GT network %s", key)
		}
		if in.ASes[a] == nil {
			t.Fatalf("GT %s = %v not in topology", key, a)
		}
	}
	if gt["RE1"] == gt["RE2"] {
		t.Error("RE networks must differ")
	}
}

func TestSilentReallocEffectiveASN(t *testing.T) {
	in := smallNet(t, 9)
	found := false
	for _, a := range in.ASList {
		if a.ReallocSilent {
			found = true
			if a.EffectiveASN() != a.ReallocFrom.ASN {
				t.Errorf("silent customer %v effective ASN = %v", a.ASN, a.EffectiveASN())
			}
		} else if a.EffectiveASN() != a.ASN {
			t.Errorf("normal AS %v effective ASN = %v", a.ASN, a.EffectiveASN())
		}
	}
	if !found {
		t.Log("no silent realloc in this seed (acceptable)")
	}
}

func TestResolverCoverageHigh(t *testing.T) {
	in := smallNet(t, 10)
	r := in.Resolver()
	cov := r.Measure(in.ObservedAddrs())
	if f := cov.Fraction(); f < 0.9 {
		t.Errorf("resolver coverage %.3f too low", f)
	}
}

func TestProberConsistency(t *testing.T) {
	in := smallNet(t, 11)
	p := in.Prober()
	var shared *Router
	for _, r := range in.Routers {
		if r.IPIDShared && !r.Unresponsive && len(r.Ifaces) >= 2 {
			shared = r
			break
		}
	}
	if shared == nil {
		t.Skip("no shared-counter multi-interface router")
	}
	a1, a2 := shared.Ifaces[0].Addr, shared.Ifaces[1].Addr
	id1a, ok1 := p.ProbeIPID(a1, 10)
	id2, ok2 := p.ProbeIPID(a2, 11)
	id1b, ok3 := p.ProbeIPID(a1, 12)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("probes failed")
	}
	// Interleaved samples of one counter are monotone (mod 2^16).
	if uint16(id2-id1a) > 1<<14 || uint16(id1b-id2) > 1<<14 {
		t.Errorf("shared counter not monotone: %d %d %d", id1a, id2, id1b)
	}
}

func TestVPSelectionExclusions(t *testing.T) {
	in := smallNet(t, 12)
	gt := in.GroundTruthNetworks()
	var exclude asn.SmallSet
	for _, a := range gt {
		exclude.Add(a)
	}
	for _, vp := range in.SelectVPs(10, exclude) {
		if exclude.Has(vp.AS.ASN) {
			t.Errorf("excluded AS %v selected", vp.AS.ASN)
		}
		if vp.AS.Type == Stub {
			t.Errorf("stub AS %v selected as VP", vp.AS.ASN)
		}
	}
}

// TestLinkNetworkSpill: an AS whose x.x.240.0/20 infrastructure window
// is exhausted spills into extra /16 aggregates from the reserved
// 12.x–19.x plane instead of wrapping back into its own host space —
// the address-collision bug the L rung first exposed.
func TestLinkNetworkSpill(t *testing.T) {
	in := smallNet(t, 3)
	var a *AS
	for _, cand := range in.ASList {
		if cand.ReallocFrom == nil && !cand.UnannLinks {
			a = cand
			break
		}
	}
	if a == nil {
		t.Fatal("no plain-aggregate AS in small topology")
	}
	seen := make(map[netip.Prefix]bool)
	a.nextLinkNet = linkWindowAddrs - 4 // one /30 left in the window
	for i := 0; i < 3*16384+8; i++ {    // cross two whole extra /16s
		p, err := in.nextLinkNetwork(a)
		if err != nil {
			t.Fatalf("nextLinkNetwork %d: %v", i, err)
		}
		if seen[p] {
			t.Fatalf("nextLinkNetwork %d: duplicate link net %v", i, p)
		}
		seen[p] = true
		if a.Space.Contains(p.Addr()) {
			if i > 0 {
				t.Fatalf("nextLinkNetwork %d: %v back inside aggregate %v after spill", i, p, a.Space)
			}
			continue
		}
		b := p.Addr().As4()
		if b[0] < 12 || b[0] > 19 {
			t.Fatalf("nextLinkNetwork %d: spill net %v outside the 12.x–19.x plane", i, p)
		}
	}
	if len(a.ExtraSpace) != 4 {
		t.Fatalf("ExtraSpace = %v, want 4 aggregates", a.ExtraSpace)
	}
	for _, p := range a.ExtraSpace {
		if p.Bits() != 16 {
			t.Fatalf("extra aggregate %v, want a /16", p)
		}
	}
	// Regenerating exports with the extras present must cover them in
	// the RIB, the delegations, and the ground-truth owner map.
	in.export()
	for _, p := range a.ExtraSpace {
		if got := in.prefixOwner[p]; got != a {
			t.Errorf("prefixOwner[%v] = %v, want AS %d", p, got, a.ASN)
		}
		if got, _, ok := in.Delegations.Origin(p.Addr()); !ok || got != a.ASN {
			t.Errorf("Delegations.Origin(%v) = %v/%v, want AS %d", p.Addr(), got, ok, a.ASN)
		}
		found := false
		for _, r := range in.Routes {
			if r.Prefix == p {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("extra aggregate %v not announced in the RIB", p)
		}
	}
}

// TestTakeExtraSpaceExhaustion: the reserved plane is finite and
// exhaustion is a diagnostic, not a wraparound.
func TestTakeExtraSpaceExhaustion(t *testing.T) {
	in := smallNet(t, 3)
	in.extraSpaceIdx = 8*256 - 1
	if p, err := in.takeExtraSpace(); err != nil {
		t.Fatalf("last aggregate: %v", err)
	} else if p.Addr().As4()[0] != 19 {
		t.Fatalf("last aggregate %v, want 19.255.0.0/16", p)
	}
	if _, err := in.takeExtraSpace(); err == nil {
		t.Fatal("takeExtraSpace past the plane succeeded")
	} else if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v, want an exhaustion diagnostic", err)
	}
}
