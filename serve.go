package bdrmapit

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/asn"
	"repro/internal/core"
	"repro/internal/ip2as"
	"repro/internal/serve"
)

// ServeSnapshot converts the completed run into a serving snapshot:
// the queryable form cmd/bdrmapitd loads. It refuses interrupted runs
// — a daemon answering from a non-converged partial map would present
// provisional annotations as authoritative — and is deterministic:
// byte-identical runs produce byte-identical snapshots (no
// timestamps, no map-order leakage).
func (r *Result) ServeSnapshot() (*serve.Snapshot, error) {
	return r.serveSnapshot(sortedPrefixes(r.resolver))
}

// serveSnapshot is ServeSnapshot given the resolver's prefix table
// already in snapshot order (sortedPrefixes), which the snapshot shares
// and does not modify.
func (r *Result) serveSnapshot(prefixes []serve.Prefix) (*serve.Snapshot, error) {
	if r.Interrupted {
		return nil, fmt.Errorf("bdrmapit: refusing to build a serving snapshot from an interrupted run (annotations are a non-converged partial result)")
	}
	// The byte-equality contract with the offline annotations file: the
	// digest of the exact rendering Annotations writes.
	_, annDigest := r.rendering()
	snap := &serve.Snapshot{
		Source: fmt.Sprintf("bdrmapit run: %d routers, %d interfaces, %d refinement iteration(s), converged=%v",
			r.NumRouters(), r.NumInterfaces(), r.Iterations, r.Converged),
		AnnDigest: annDigest,
	}

	// Routers and interfaces, with the router's position in the graph as
	// the dense index Iface.Router refers to. The graph holds its
	// interfaces ascending by address, the snapshot's order.
	g := r.res.Graph
	snap.Routers = make([]uint32, len(g.Routers))
	for idx, rt := range g.Routers {
		snap.Routers[idx] = uint32(rt.Annotation)
	}
	snap.Ifaces = make([]serve.Iface, len(g.Interfaces))
	inLinks, maxIn := 0, 0
	for k, i := range g.Interfaces {
		snap.Ifaces[k] = serve.Iface{Addr: i.Addr, Router: uint32(i.Router.ID), ConnAS: uint32(i.Annotation)}
		inLinks += len(i.InLinks)
		maxIn = max(maxIn, len(i.InLinks))
	}

	// near holds one far interface's records until they are appended:
	// each near AS with its best label, in core.LinkLabel's order.
	type nearLabel struct {
		as    asn.ASN
		label core.LinkLabel
	}
	near := make([]nearLabel, 0, maxIn)

	// Interdomain links — a link whose two routers carry different,
	// non-empty annotations — one record per (FarAddr, NearAS, FarAS)
	// keeping the highest-confidence label: two near routers with the
	// same operator can reach the same far interface. Walking far
	// interfaces in address order, each one's near ASes ascending, is
	// the snapshot's link order.
	snap.Links = make([]serve.Link, 0, inLinks) // at most one record per in-link
	for _, i := range g.Interfaces {
		far := i.Router.Annotation
		if far == asn.None {
			continue
		}
		near = near[:0]
		for _, l := range i.InLinks {
			as := l.From.Annotation
			if as == asn.None || as == far {
				continue
			}
			if k := slices.IndexFunc(near, func(n nearLabel) bool { return n.as == as }); k < 0 {
				near = append(near, nearLabel{as, l.Label})
			} else {
				near[k].label = max(near[k].label, l.Label)
			}
		}
		slices.SortFunc(near, func(a, b nearLabel) int { return cmp.Compare(a.as, b.as) })
		for _, n := range near {
			snap.Links = append(snap.Links, serve.Link{FarAddr: i.Addr, NearAS: uint32(n.as), FarAS: uint32(far), Label: n.label.String()})
		}
	}

	// The ip2as view, flattened so the daemon can answer the ip2as
	// query class without any loader.
	snap.Prefixes = prefixes
	return snap, nil
}

// sortedPrefixes is the resolver's flattened prefix table in the
// snapshot's canonical order: by address, then length, then kind.
func sortedPrefixes(r *ip2as.Resolver) []serve.Prefix {
	p := flattenIP2AS(r)
	slices.SortFunc(p, func(a, b serve.Prefix) int {
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()), cmp.Compare(a.Kind, b.Kind))
	})
	return p
}

// flattenIP2AS walks the resolver's three prefix sources into snapshot
// records. The serving trie re-layers them by kind (IXP over BGP over
// RIR), matching ip2as.Resolver's lookup order.
func flattenIP2AS(r *ip2as.Resolver) []serve.Prefix {
	if r == nil {
		return nil
	}
	var out []serve.Prefix
	if r.Table != nil {
		r.Table.Walk(func(p netip.Prefix, origin asn.ASN) bool {
			out = append(out, serve.Prefix{Prefix: p, Origin: uint32(origin), Kind: serve.PrefixBGP})
			return true
		})
	}
	if r.Delegations != nil {
		r.Delegations.Walk(func(p netip.Prefix, a asn.ASN) bool {
			out = append(out, serve.Prefix{Prefix: p, Origin: uint32(a), Kind: serve.PrefixRIR})
			return true
		})
	}
	if r.IXPs != nil {
		r.IXPs.Walk(func(p netip.Prefix) bool {
			out = append(out, serve.Prefix{Prefix: p, Kind: serve.PrefixIXP})
			return true
		})
	}
	return out
}

// WriteServeSnapshot builds the serving snapshot and publishes it
// atomically at path (temp file + fsync + rename), ready for
// cmd/bdrmapitd to load or hot-swap. Like the other serializers it
// refuses interrupted runs.
func (r *Result) WriteServeSnapshot(path string) error {
	snap, err := r.ServeSnapshot()
	if err != nil {
		return err
	}
	if err := serve.WriteFile(path, snap); err != nil {
		return fmt.Errorf("bdrmapit: %w", err)
	}
	return nil
}
