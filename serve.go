package bdrmapit

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/asn"
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
	// The byte-equality contract with the offline annotations file: the
	// digest of the exact rendering Annotations would write.
	_, annDigest, err := renderAnnotations(r)
	if err != nil {
		return nil, err
	}
	return r.serveSnapshot(annDigest, sortedPrefixes(r.resolver))
}

// serveSnapshot is ServeSnapshot given what does not depend on this
// run's graph walk: the digest of the rendered annotations, and the
// resolver's prefix table already in snapshot order (sortedPrefixes),
// which the snapshot shares and does not modify.
func (r *Result) serveSnapshot(annDigest uint64, prefixes []serve.Prefix) (*serve.Snapshot, error) {
	if r.Interrupted {
		return nil, fmt.Errorf("bdrmapit: refusing to build a serving snapshot from an interrupted run (annotations are a non-converged partial result)")
	}

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
	ifaces := g.SortedInterfaces()
	snap.Ifaces = make([]serve.Iface, len(ifaces))
	inLinks := 0
	for k, i := range ifaces {
		snap.Ifaces[k] = serve.Iface{Addr: i.Addr, Router: uint32(i.Router.ID), ConnAS: uint32(i.Annotation)}
		inLinks += len(i.InLinks)
	}

	// Interdomain links — a link whose two routers carry different,
	// non-empty annotations — one record per (FarAddr, NearAS, FarAS)
	// keeping the highest-confidence label: two near routers with the
	// same operator can reach the same far interface. Walking far
	// interfaces in address order, each one's near ASes ascending, is
	// the snapshot's link order.
	snap.Links = make([]serve.Link, 0, inLinks) // at most one record per in-link
	for _, i := range ifaces {
		far := i.Router.Annotation
		if far == asn.None {
			continue
		}
		start := len(snap.Links)
		for _, l := range i.InLinks {
			near := l.From.Annotation
			if near == asn.None || near == far {
				continue
			}
			label := l.Label.String()
			k := slices.IndexFunc(snap.Links[start:], func(s serve.Link) bool { return s.NearAS == uint32(near) })
			if k < 0 {
				snap.Links = append(snap.Links, serve.Link{FarAddr: i.Addr, NearAS: uint32(near), FarAS: uint32(far), Label: label})
			} else if s := &snap.Links[start+k]; linkLabelRank(label) > linkLabelRank(s.Label) {
				s.Label = label
			}
		}
		slices.SortFunc(snap.Links[start:], func(a, b serve.Link) int { return cmp.Compare(a.NearAS, b.NearAS) })
	}

	// The ip2as view, flattened so the daemon can answer the cheap
	// query class (and degraded lookups) without any loader.
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

// linkLabelRank orders link confidence labels nexthop > echo >
// multihop, matching internal/serve's selection order.
func linkLabelRank(label string) int {
	switch label {
	case "N":
		return 3
	case "E":
		return 2
	case "M":
		return 1
	default:
		return 0
	}
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
