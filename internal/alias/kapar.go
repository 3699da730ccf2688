package alias

import (
	"net/netip"

	"repro/internal/netutil"
	"repro/internal/traceroute"
)

// Kapar implements a kapar/APAR-style analytical alias resolution
// (Keys 2010) over traceroute paths, without any probing. Its core
// inference: traceroute links are usually point-to-point /30 or /31
// subnets, so for an observed hop pair a→b, the "subnet mate" of a —
// the other usable address in a's /30 (or the partner in its /31) — is
// on the same router as b.
//
// As with the real tool, this aggressive heuristic increases coverage
// but over-merges when the point-to-point assumption fails (multi-access
// LANs, off-path addresses), producing the less precise alias groups
// whose effect on bdrmapIT the paper measures in §7.4 / Fig. 20.
// isIXP filters addresses on known multi-access exchange LANs, where
// the point-to-point assumption never holds (the real tool consumes an
// IXP prefix list for the same reason). A nil predicate disables the
// filter.
func Kapar(traces []*traceroute.Trace, isIXP func(netip.Addr) bool) *Sets {
	if isIXP == nil {
		isIXP = func(netip.Addr) bool { return false }
	}
	// Collect the set of observed addresses; mates are only applied when
	// the mate address itself was observed somewhere (as kapar does).
	observed := make(map[netip.Addr]bool)
	for _, t := range traces {
		for _, h := range t.Hops {
			observed[h.Addr] = true
		}
	}
	sets := NewSets()
	for _, t := range traces {
		for i := 0; i+1 < len(t.Hops); i++ {
			a, b := t.Hops[i], t.Hops[i+1]
			if a.Addr == b.Addr || isIXP(a.Addr) || isIXP(b.Addr) {
				continue
			}
			// APAR's core rule: b replied with its ingress interface on
			// the a→b link subnet, so the subnet mate of b's address is
			// an interface of a's router. The rule is applied to every
			// consecutive responsive pair — including pairs bridging
			// unresponsive hops, where the assumption fails and produces
			// the false merges that make kapar's groups imprecise.
			// A pair already on one router needs no merge, so it is
			// not checked for a conflict either.
			mates, n := subnetMates(b.Addr)
			for _, mate := range mates[:n] {
				if mate != a.Addr && observed[mate] && !isIXP(mate) &&
					!sets.SameRouter(a.Addr, mate) && !mateConflict(sets, a.Addr, mate) {
					sets.Add(a.Addr, mate)
				}
			}
		}
	}
	return sets
}

// mateConflict applies APAR's accumulation constraint: a merge is
// rejected when it would place both ends of one point-to-point subnet
// on the same router (a router never talks to itself over a /30).
// Being subnet mates is symmetric, so it walks the smaller group's
// mates and asks whether each is in the larger group.
func mateConflict(sets *Sets, x, y netip.Addr) bool {
	gx, gy := sets.Members(x), sets.Members(y)
	if len(gy) < len(gx) {
		gx, y = gy, x
	}
	for _, m := range gx {
		mates, n := subnetMates(m)
		for _, mate := range mates[:n] {
			if mate == y || sets.SameRouter(mate, y) {
				return true
			}
		}
	}
	return false
}

// subnetMates returns the candidate point-to-point partners of addr,
// the first n of mates: the /31 partner and the /30 partner (when addr
// is a usable /30 host).
func subnetMates(addr netip.Addr) (mates [2]netip.Addr, n int) {
	addr = addr.Unmap()
	if !addr.Is4() {
		return mates, 0
	}
	v := netutil.AddrToUint32(addr)
	mates[0] = netutil.Uint32ToAddr(v ^ 1) // /31 partner
	switch v & 3 {
	case 1:
		mates[1] = netutil.Uint32ToAddr(v + 1) // .1 ↔ .2 in /30
		return mates, 2
	case 2:
		mates[1] = netutil.Uint32ToAddr(v - 1)
		return mates, 2
	}
	return mates, 1
}
