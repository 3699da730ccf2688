// Package bdrmap reimplements the inference component of the bdrmap
// comparator (Luckie et al., IMC 2016): mapping the borders of a single
// vantage-point network from targeted traceroutes, alias resolution,
// and AS relationships. bdrmapIT's regression evaluation (paper §7.1,
// Fig. 15) feeds both tools the same single-VP data.
//
// The heuristics implemented here are the ones the bdrmapIT paper
// credits to bdrmap: internal-router identification by position before
// VP-announced address space, relationship-constrained origin voting at
// the first border, third-party reply handling, and destination-based
// annotation of firewalled or unrouted edges. bdrmap does not map past
// the first AS boundary and has no hidden-AS or reallocated-prefix
// machinery — the gaps bdrmapIT closes.
package bdrmap

import (
	"net/netip"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/core"
	"repro/internal/ip2as"
	"repro/internal/netutil"
	"repro/internal/traceroute"
)

// Options configures a run.
type Options struct {
	// VPAS is the vantage point's network: the AS whose borders are
	// mapped.
	VPAS asn.ASN
}

// Result maps router ownership at the VP network's border.
type Result struct {
	graph *core.Graph
	vpAS  asn.ASN
}

// OperatorOf returns the inferred operator of the router using addr.
// Routers beyond bdrmap's problem domain (past the first boundary)
// return asn.None.
func (r *Result) OperatorOf(addr netip.Addr) asn.ASN {
	i := r.graph.Interface(addr)
	if i == nil {
		return asn.None
	}
	return i.Router.Annotation
}

// Neighbors returns the ASes inferred to interconnect with the VP
// network.
func (r *Result) Neighbors() []asn.ASN {
	var s asn.SmallSet
	for _, rt := range r.graph.Routers {
		if rt.Annotation != asn.None && rt.Annotation != r.vpAS {
			s.Add(rt.Annotation)
		}
	}
	return s
}

// Infer runs bdrmap over a single-VP trace archive.
func Infer(traces []*traceroute.Trace, resolver *ip2as.Resolver,
	aliases *alias.Sets, rels core.RelationshipOracle, opts Options) *Result {

	b := core.NewBuilder(resolver, aliases)
	for _, t := range traces {
		b.AddTrace(t)
	}
	g := b.Finish(rels)
	res := &Result{graph: g, vpAS: opts.VPAS}

	// Step 1: routers internal to the VP network — any router observed
	// strictly before an interface announced by the VP network. The
	// router replying with the last VP-announced address itself is NOT
	// internal: on a provider-numbered interdomain link that reply
	// comes from the neighbour's ingress.
	internal := make(map[*core.Router]bool)
	borderCandidates := make(map[*core.Router]bool)
	for _, t := range traces {
		hops := responsive(t)
		lastVP := -1
		for i, h := range hops {
			if resolver.Lookup(h.Addr).Origin == opts.VPAS {
				lastVP = i
			}
		}
		if lastVP == -1 {
			continue // path never showed VP address space
		}
		for i := 0; i < lastVP; i++ {
			if iface := g.Interface(hops[i].Addr); iface != nil {
				internal[iface.Router] = true
			}
		}
		// Border candidates: the last VP-announced router (VP egress or
		// neighbour ingress) and the router immediately after it.
		for _, idx := range []int{lastVP, lastVP + 1} {
			if idx < len(hops) {
				if iface := g.Interface(hops[idx].Addr); iface != nil {
					borderCandidates[iface.Router] = true
				}
			}
		}
	}
	for r := range internal {
		r.Annotation = opts.VPAS
	}
	for _, r := range g.Routers {
		if !borderCandidates[r] || internal[r] {
			continue
		}
		r.Annotation = annotateBorder(r, rels, opts.VPAS)
	}
	return res
}

func responsive(t *traceroute.Trace) []traceroute.Hop {
	out := make([]traceroute.Hop, 0, len(t.Hops))
	for _, h := range t.Hops {
		if !netutil.IsSpecial(h.Addr) {
			out = append(out, h)
		}
	}
	return out
}

// annotateBorder infers the operator of one border-candidate router: a
// router at the first boundary, operated either by the VP network or by
// a directly connected neighbour.
func annotateBorder(r *core.Router, rels core.RelationshipOracle, vp asn.ASN) asn.ASN {
	vpOnly := true
	hasIXP := false
	for _, i := range r.Interfaces {
		if i.Kind == ip2as.IXP {
			hasIXP = true
		}
		if i.Origin != asn.None && i.Origin != vp {
			vpOnly = false
			break
		}
	}

	if hasIXP && r.OriginSet.Len() == 0 {
		// A router observed only by its public peering LAN address was
		// reached across the exchange and belongs to the peer: the next
		// hops reveal whose network the probe entered. bdrmap discovers
		// peers at IXPs without requiring a previously known
		// relationship. (A router that also exposes VP address space is
		// the VP's own port and is handled below.)
		var fwd asn.Tally
		for _, l := range r.Links {
			if o := l.To.Origin; o != asn.None && o != vp {
				fwd.Add(o, 1)
			}
		}
		if top, _ := fwd.Max(nil); len(top) > 0 {
			return rels.SmallestCone(top)
		}
		return asn.None
	}

	if !vpOnly {
		// The router exposes foreign address space: vote among its
		// interface origins, constrained to ASes with a relationship to
		// the VP network.
		var votes asn.Tally
		for _, i := range r.Interfaces {
			if i.Origin == asn.None || i.Kind == ip2as.IXP || i.Origin == vp {
				continue
			}
			if rels.HasRelationship(vp, i.Origin) {
				votes.Add(i.Origin, 1)
			}
		}
		if top, _ := votes.Max(nil); len(top) > 0 {
			return rels.SmallestCone(top)
		}
	}

	// Every interface is in VP space (the common provider-numbered
	// transit link). Look at where the router forwards next: a
	// neighbour's ingress reveals the neighbour's space one hop on. A
	// clear majority is required — the VP's own egress borders also fan
	// out to neighbours.
	var fwd asn.Tally
	for _, l := range r.Links {
		if o := l.To.Origin; o != asn.None && o != vp {
			fwd.Add(o, 1)
		}
	}
	if top, n := fwd.Max(nil); len(top) > 0 && int(n)*2 > len(r.Links) {
		return rels.SmallestCone(top)
	}

	// Firewalled edges and unrouted reply addresses: the destinations
	// probed through this router identify the owner (bdrmap's reactive
	// probing of every routed prefix makes the destination set dense).
	if len(r.Links) == 0 && r.DestASes.Len() > 0 {
		dests := r.DestASes
		if len(dests) == 1 {
			return dests[0]
		}
		// Prefer a destination that is a customer of the VP network.
		var custs []asn.ASN
		for _, d := range dests {
			if rels.IsProvider(vp, d) {
				custs = append(custs, d)
			}
		}
		if len(custs) > 0 {
			return rels.SmallestCone(custs)
		}
		return rels.SmallestCone(dests)
	}

	// No foreign evidence: a subsequent router is operated by the VP
	// network or a neighbour; default to the VP network.
	if vpOnly {
		return vp
	}
	var all asn.Tally
	for _, i := range r.Interfaces {
		if i.Origin != asn.None {
			all.Add(i.Origin, 1)
		}
	}
	top, _ := all.Max(nil)
	return rels.SmallestCone(top)
}
