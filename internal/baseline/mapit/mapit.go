// Package mapit reimplements the MAP-IT comparator (Marder & Smith,
// IMC 2016): iterative inference of interdomain links over an
// interface-level graph with localized majority voting. bdrmapIT's
// evaluation (paper §7.2) compares against it on Internet-wide
// datasets; MAP-IT lacks alias resolution, destination-AS evidence, and
// edge-network heuristics, which costs it coverage of last-hop and
// low-visibility links.
package mapit

import (
	"net/netip"
	"sort"

	"repro/internal/asn"
	"repro/internal/ip2as"
	"repro/internal/netutil"
	"repro/internal/traceroute"
)

// Options tunes the inference.
type Options struct {
	// Threshold is the neighbour-majority fraction required to infer an
	// interdomain half-link (default 0.5, MAP-IT's plurality rule).
	Threshold float64
	// MaxIterations caps the refinement loop (default 20).
	MaxIterations int
}

func (o *Options) defaults() {
	if o.Threshold <= 0 {
		o.Threshold = 0.5
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 20
	}
}

// node is one interface in the interface-level graph.
type node struct {
	addr     netip.Addr
	origin   asn.ASN
	operator asn.ASN // refined operator of the router using this interface
	farSide  asn.ASN // inferred AS on the other side of the link, if any
	next     map[netip.Addr]int
	prev     map[netip.Addr]int
}

// Result is a MAP-IT run outcome.
type Result struct {
	// Iterations is the number of refinement passes executed.
	Iterations int

	nodes map[netip.Addr]*node
}

// OperatorOf returns the inferred operator of the router using addr
// (the origin AS when MAP-IT made no inference for it).
func (r *Result) OperatorOf(addr netip.Addr) asn.ASN {
	if n, ok := r.nodes[addr]; ok {
		return n.operator
	}
	return asn.None
}

// ConnectedAS returns the inferred far-side AS of addr's link, or
// asn.None when MAP-IT labeled no interdomain link at addr.
func (r *Result) ConnectedAS(addr netip.Addr) asn.ASN {
	if n, ok := r.nodes[addr]; ok {
		return n.farSide
	}
	return asn.None
}

// InterdomainInterfaces returns the addresses MAP-IT inferred to sit on
// an interdomain link, sorted.
func (r *Result) InterdomainInterfaces() []netip.Addr {
	var out []netip.Addr
	for a, n := range r.nodes {
		if n.farSide != asn.None {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Infer runs MAP-IT over the traces. Only TTL-adjacent hop pairs form
// edges (MAP-IT does not bridge unresponsive gaps), and no alias
// resolution or destination evidence is used — both faithful to the
// original tool and the source of its coverage gap.
func Infer(traces []*traceroute.Trace, resolver *ip2as.Resolver, opts Options) *Result {
	opts.defaults()
	res := &Result{nodes: make(map[netip.Addr]*node)}
	get := func(addr netip.Addr) *node {
		n, ok := res.nodes[addr]
		if !ok {
			origin := resolver.Lookup(addr).Origin
			n = &node{
				addr: addr, origin: origin, operator: origin,
				next: make(map[netip.Addr]int), prev: make(map[netip.Addr]int),
			}
			res.nodes[addr] = n
		}
		return n
	}
	for _, t := range traces {
		var prev *traceroute.Hop
		for i := range t.Hops {
			h := &t.Hops[i]
			if netutil.IsSpecial(h.Addr) {
				prev = nil
				continue
			}
			get(h.Addr)
			if prev != nil && h.ProbeTTL == prev.ProbeTTL+1 && prev.Addr != h.Addr {
				get(prev.Addr).next[h.Addr]++
				get(h.Addr).prev[prev.Addr]++
			}
			prev = h
		}
	}

	addrs := make([]netip.Addr, 0, len(res.nodes))
	for a := range res.nodes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		res.Iterations = iter
		changed := false
		for _, a := range addrs {
			n := res.nodes[a]
			if n.origin == asn.None {
				continue
			}
			// Far-half test: the majority of *subsequent* interfaces have
			// addresses originated by B ≠ origin — the path dived into
			// B's address space right after this interface, so the
			// interface (addressed from the origin AS's side of the
			// link) is the ingress of B's border router.
			if b, ok := majority(res, n.next, n.origin, opts.Threshold, false); ok {
				if n.operator != b || n.farSide != n.origin {
					n.operator = b
					n.farSide = n.origin
					changed = true
				}
				continue
			}
			// Near-half test: the majority of *preceding* interfaces sit
			// on routers operated by B ≠ origin (using refined operators,
			// MAP-IT's graph-refinement step) — this interface is on the
			// origin AS's border router receiving traffic from B.
			if b, ok := majority(res, n.prev, n.origin, opts.Threshold, true); ok {
				if n.operator != n.origin || n.farSide != b {
					n.operator = n.origin
					n.farSide = b
					changed = true
				}
				continue
			}
			if n.operator != n.origin || n.farSide != asn.None {
				n.operator = n.origin
				n.farSide = asn.None
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res
}

// majority returns the AS holding more than threshold of the weighted
// neighbour votes, if it differs from self. With useOperator the
// neighbours' refined operators vote (the MAP-IT graph-refinement
// step); otherwise their address origins do.
func majority(res *Result, nbrs map[netip.Addr]int, self asn.ASN, threshold float64, useOperator bool) (asn.ASN, bool) {
	var votes asn.Tally
	total := 0
	for addr, w := range nbrs {
		n := res.nodes[addr]
		v := n.origin
		if useOperator {
			v = n.operator
		}
		if v == asn.None {
			continue
		}
		votes.Add(v, int32(w))
		total += w
	}
	if total == 0 {
		return asn.None, false
	}
	top, n := votes.Max(nil)
	if len(top) != 1 {
		return asn.None, false
	}
	if top[0] == self {
		return asn.None, false
	}
	if float64(n) <= threshold*float64(total) {
		return asn.None, false
	}
	// A half-link interface sits entirely past (or before) the border:
	// any vote for the interface's own AS means it still fans into its
	// origin's space and is not a far half.
	if !useOperator && votes.Count(self) > 0 {
		return asn.None, false
	}
	return top[0], true
}
