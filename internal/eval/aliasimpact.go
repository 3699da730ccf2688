package eval

import (
	"net/netip"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

// AliasImpact classifies how alias resolution changed router-annotation
// outcomes relative to the pure interface graph — the investigation the
// paper leaves as future work (§7.4: aggregation "can impact the
// results both positively and negatively").
//
// For every multi-interface IR in the aliased run, the member
// interfaces' annotations are compared between the two runs:
//
//   - Fixed: at least one member was wrong in the interface-graph run
//     and every member is correct with aliases (grouping supplied the
//     missing constraints).
//   - Broken: every member was correct without aliases and at least one
//     is wrong with them (a noisy member dragged the group down —
//     reallocated or third-party addresses, per the paper).
//   - Neutral: anything else (both right, both wrong, or mixed).
type AliasImpact struct {
	MultiIRs int // multi-interface IRs examined
	Fixed    int
	Broken   int
	Neutral  int
	// BrokenAtRealloc counts Broken IRs containing an address inside a
	// reallocated block — the failure locus the paper identifies ("the
	// negative impacts ... occurred exclusively at the edge of the
	// Tier-1 network, where reallocated prefixes are common").
	BrokenAtRealloc int
}

// RunAliasImpact runs the inference with and without alias resolution
// and classifies every multi-interface IR.
func RunAliasImpact(ds *Dataset) AliasImpact {
	withRes := ds.RunBdrmapIT(ds.Aliases, core.Options{})
	withoutRes := ds.RunBdrmapIT(EmptyAliases(), core.Options{})

	var out AliasImpact
	for _, r := range withRes.Graph.Routers {
		if len(r.Interfaces) < 2 {
			continue
		}
		out.MultiIRs++
		allRightWith, allRightWithout := true, true
		anyWrongWithout := false
		hasRealloc := false
		for _, i := range r.Interfaces {
			truth := ds.In.OwnerASN(i.Addr)
			if truth == asn.None {
				continue
			}
			if withRes.OperatorOf(i.Addr) != truth {
				allRightWith = false
			}
			if withoutRes.OperatorOf(i.Addr) != truth {
				allRightWithout = false
				anyWrongWithout = true
			}
			if a := ds.In.OwnerOf(i.Addr); a != nil && a.ReallocFrom != nil {
				hasRealloc = true
			}
		}
		switch {
		case allRightWith && anyWrongWithout:
			out.Fixed++
		case allRightWithout && !allRightWith:
			out.Broken++
			if hasRealloc {
				out.BrokenAtRealloc++
			}
		default:
			out.Neutral++
		}
	}
	return out
}

// IPv6Parity is the dual-stack experiment's outcome: link accuracy of
// the same inference run over the IPv4 campaign and its IPv6 twin.
// Under the simulator's structure-preserving embedding the two runs
// face isomorphic inputs, so any divergence indicates family-dependent
// behaviour in the pipeline.
type IPv6Parity struct {
	V4Accuracy, V6Accuracy float64
	V4Links, V6Links       int
}

// RunIPv6Parity runs bdrmapIT over the IPv6 view of the campaign and
// compares link accuracy with the IPv4 run.
func RunIPv6Parity(ds *Dataset) IPv6Parity {
	var out IPv6Parity
	v4res := ds.RunBdrmapIT(nil, core.Options{})
	out.V4Accuracy, out.V4Links = ds.OverallAccuracy(v4res)

	v6traces := make([]*traceroute.Trace, len(ds.Traces))
	for i, t := range ds.Traces {
		v6traces[i] = topo.TranslateTraceV6(t)
	}
	v6aliases := alias.NewSets()
	ds.Aliases.Groups(func(addrs []netip.Addr) bool {
		v6 := make([]netip.Addr, len(addrs))
		for i, a := range addrs {
			v6[i] = topo.V6Of(a)
		}
		v6aliases.Add(v6...)
		return true
	})
	v6res := ds.infer(v6traces, v6aliases, core.Options{})

	links := ObservedLinks(ds.In, v6traces)
	correct, total := 0, 0
	for _, gt := range ds.gtNetworks() {
		for _, l := range links {
			if !l.Interdomain() || !l.Involves(gt.ASN) || l.FarEchoOnly {
				continue
			}
			total++
			if v6res.OperatorOf(l.NearAddr) == l.NearASN && v6res.OperatorOf(l.FarAddr) == l.FarASN {
				correct++
			}
		}
	}
	if total > 0 {
		out.V6Accuracy = float64(correct) / float64(total)
	}
	out.V6Links = total
	return out
}

// RelAccuracy scores the relationship-inference pass against the
// simulator's ground-truth business relationships (the quality of the
// §4.1 input when no CAIDA file is available). Edges invisible in BGP
// (backup links of invisible reallocations) are excluded from recall —
// no path-based inference can see them.
type RelAccuracy struct {
	// P2C/P2P tallies over ground-truth edges visible in BGP.
	P2CCorrect, P2CWrongType, P2CMissing int
	P2PCorrect, P2PWrongType, P2PMissing int
	// Spurious counts inferred edges with no ground-truth counterpart.
	Spurious int
}

// RunRelAccuracy compares the dataset's inferred relationship graph to
// ground truth.
func RunRelAccuracy(ds *Dataset) RelAccuracy {
	var out RelAccuracy
	truth := ds.In.Rels
	inferred := ds.Rels
	seen := make(map[[2]asn.ASN]bool)
	for _, e := range ds.In.Edges() {
		if e.BGPInvisible {
			continue
		}
		a, b := e.A.ASN, e.B.ASN
		seen[[2]asn.ASN{a, b}] = true
		switch {
		case e.Rel == 0: // peers
			switch {
			case inferred.IsPeer(a, b):
				out.P2PCorrect++
			case inferred.HasRelationship(a, b):
				out.P2PWrongType++
			default:
				out.P2PMissing++
			}
		default:
			p, c := e.A.ASN, e.B.ASN
			if e.Rel == 1 {
				p, c = c, p
			}
			switch {
			case inferred.IsProvider(p, c):
				out.P2CCorrect++
			case inferred.HasRelationship(p, c):
				out.P2CWrongType++
			default:
				out.P2CMissing++
			}
		}
	}
	for _, a := range inferred.ASes() {
		for b := range inferred.Customers(a) {
			if !truth.HasRelationship(a, b) {
				out.Spurious++
			}
		}
		for b := range inferred.Peers(a) {
			if a < b && !truth.HasRelationship(a, b) {
				out.Spurious++
			}
		}
	}
	return out
}
