package topo

import (
	"net/netip"
	"sort"

	"repro/internal/asn"
)

// OwnerASN returns the ground-truth operator of the router that owns
// addr, or asn.None for unknown addresses. This is the oracle the
// evaluation scores router-annotation inferences against.
func (in *Internet) OwnerASN(addr netip.Addr) asn.ASN {
	if i, ok := in.IfaceByAddr[addr]; ok {
		return i.Router.Owner.EffectiveASN()
	}
	return asn.None
}

// GroundTruthNetworks selects the four validation networks mirroring
// the paper's ground-truth set: the busiest tier-1, the busiest large
// access network, and two R&E networks.
func (in *Internet) GroundTruthNetworks() map[string]asn.ASN {
	busiest := func(t ASType, skip asn.SmallSet) *AS {
		var best *AS
		bestDeg := -1
		for _, a := range in.ASList {
			if a.Type != t || skip.Has(a.ASN) {
				continue
			}
			deg := len(a.Providers) + len(a.Customers) + len(a.Peers)
			if deg > bestDeg || (deg == bestDeg && a.ASN < best.ASN) {
				best, bestDeg = a, deg
			}
		}
		return best
	}
	out := make(map[string]asn.ASN, 4)
	var skip asn.SmallSet
	if a := busiest(Tier1, skip); a != nil {
		out["Tier1"] = a.ASN
		skip.Add(a.ASN)
	}
	if a := busiest(Access, skip); a != nil {
		out["LAccess"] = a.ASN
		skip.Add(a.ASN)
	}
	if a := busiest(RE, skip); a != nil {
		out["RE1"] = a.ASN
		skip.Add(a.ASN)
	}
	if a := busiest(RE, skip); a != nil {
		out["RE2"] = a.ASN
	}
	return out
}

// TrueLink is one ground-truth interdomain adjacency at interface
// granularity.
type TrueLink struct {
	AAddr, BAddr netip.Addr
	A, B         asn.ASN
}

// TrueInterdomainLinks enumerates the interface pairs realizing every
// interdomain edge.
func (in *Internet) TrueInterdomainLinks() []TrueLink {
	var out []TrueLink
	for _, e := range in.Edges() {
		if e.AIface == nil || e.BIface == nil {
			continue
		}
		a, b := e.A.EffectiveASN(), e.B.EffectiveASN()
		if a == b {
			continue // a silent customer's provider link is internal
		}
		out = append(out, TrueLink{
			AAddr: e.AIface.Addr, BAddr: e.BIface.Addr,
			A: a, B: b,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AAddr.Less(out[j].AAddr) })
	return out
}

// ObservedAddrs returns the deterministic list of all assigned
// interface addresses (for coverage measurements).
func (in *Internet) ObservedAddrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(in.IfaceByAddr))
	for a := range in.IfaceByAddr {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
