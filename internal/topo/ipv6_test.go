package topo

import (
	"net/netip"
	"testing"
)

func TestV6EmbeddingRoundTrip(t *testing.T) {
	for _, s := range []string{"1.2.3.4", "20.0.240.1", "255.255.255.255", "0.0.0.0"} {
		a := netip.MustParseAddr(s)
		v6 := V6Of(a)
		if !v6.Is6() {
			t.Fatalf("V6Of(%v) = %v", a, v6)
		}
		back, ok := V4Of(v6)
		if !ok || back != a {
			t.Errorf("round trip %v → %v → %v (%v)", a, v6, back, ok)
		}
	}
	if _, ok := V4Of(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("foreign v6 inverted")
	}
	if _, ok := V4Of(netip.MustParseAddr("2a0a:102:304::1")); ok {
		t.Error("non-canonical host bits inverted")
	}
}

func TestV6PrefixPreservesContainment(t *testing.T) {
	outer := netip.MustParsePrefix("20.0.0.0/16")
	inner := netip.MustParsePrefix("20.0.5.0/24")
	foreign := netip.MustParsePrefix("21.0.0.0/16")
	v6outer, v6inner, v6foreign := V6Prefix(outer), V6Prefix(inner), V6Prefix(foreign)
	if !v6outer.Contains(v6inner.Addr()) {
		t.Error("containment lost")
	}
	if v6outer.Contains(v6foreign.Addr()) {
		t.Error("false containment")
	}
	if v6outer.Bits() != 32 || v6inner.Bits() != 40 {
		t.Errorf("prefix lengths: %d %d", v6outer.Bits(), v6inner.Bits())
	}
}

func TestDualStackGroundTruth(t *testing.T) {
	in := smallNet(t, 21)
	n := 0
	for addr, iface := range in.IfaceByAddr {
		if !addr.Is4() {
			continue
		}
		n++
		v6 := V6Of(addr)
		if got := in.IfaceByAddr[v6]; got != iface {
			t.Fatalf("v6 twin of %v missing or wrong", addr)
		}
		if in.OwnerASN(v6) != in.OwnerASN(addr) {
			t.Fatalf("owner differs across families for %v", addr)
		}
	}
	if n == 0 {
		t.Fatal("no v4 interfaces")
	}
}

func TestV6ResolverParity(t *testing.T) {
	in := smallNet(t, 22)
	r := in.Resolver()
	for addr := range in.IfaceByAddr {
		if !addr.Is4() {
			continue
		}
		v4res := r.Lookup(addr)
		v6res := r.Lookup(V6Of(addr))
		if v4res.Origin != v6res.Origin || v4res.Kind != v6res.Kind {
			t.Fatalf("resolver parity broken at %v: v4={%v %v} v6={%v %v}",
				addr, v4res.Origin, v4res.Kind, v6res.Origin, v6res.Kind)
		}
	}
}

func TestRunCampaignV6Isomorphic(t *testing.T) {
	in := smallNet(t, 23)
	vps := in.SelectVPs(3, nil)
	targets := in.Targets()[:30]
	v4 := in.RunCampaign(vps, targets)
	v6 := in.RunCampaignV6(vps, targets)
	if len(v4) != len(v6) {
		t.Fatalf("campaign sizes differ: %d vs %d", len(v4), len(v6))
	}
	for i := range v4 {
		if len(v4[i].Hops) != len(v6[i].Hops) {
			t.Fatalf("trace %d hop counts differ", i)
		}
		if V6Of(v4[i].Dst) != v6[i].Dst {
			t.Fatalf("trace %d dst not embedded", i)
		}
		for h := range v4[i].Hops {
			if V6Of(v4[i].Hops[h].Addr) != v6[i].Hops[h].Addr {
				t.Fatalf("trace %d hop %d not embedded", i, h)
			}
		}
	}
}

func TestIPv6Disabled(t *testing.T) {
	cfg := SmallConfig(24)
	cfg.EnableIPv6 = false
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := range in.IfaceByAddr {
		if !addr.Is4() {
			t.Fatalf("v6 twin present with IPv6 disabled: %v", addr)
		}
	}
}

// TestIPv6DoesNotPerturbIPv4 asserts the embedding's key promise: the
// v4 world is identical with and without IPv6 enabled.
func TestIPv6DoesNotPerturbIPv4(t *testing.T) {
	cfgOn := SmallConfig(25)
	cfgOff := SmallConfig(25)
	cfgOff.EnableIPv6 = false
	on, err := Generate(cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Generate(cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	v4Count := 0
	for addr := range on.IfaceByAddr {
		if addr.Is4() {
			v4Count++
			if off.IfaceByAddr[addr] == nil {
				t.Fatalf("v4 interface %v missing without IPv6", addr)
			}
		}
	}
	if v4Count != len(off.IfaceByAddr) {
		t.Fatalf("v4 interface counts differ: %d vs %d", v4Count, len(off.IfaceByAddr))
	}
	vpsOn := on.SelectVPs(2, nil)
	vpsOff := off.SelectVPs(2, nil)
	trOn := on.RunCampaign(vpsOn, on.Targets()[:20])
	trOff := off.RunCampaign(vpsOff, off.Targets()[:20])
	if len(trOn) != len(trOff) {
		t.Fatalf("campaigns differ: %d vs %d", len(trOn), len(trOff))
	}
	for i := range trOn {
		if trOn[i].Dst != trOff[i].Dst || len(trOn[i].Hops) != len(trOff[i].Hops) {
			t.Fatalf("trace %d differs", i)
		}
	}
}
