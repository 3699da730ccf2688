package bdrmapit

import (
	"fmt"
	"hash/fnv"
	"net/netip"

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
	h := fnv.New64a()
	if err := r.Annotations(h); err != nil {
		return nil, fmt.Errorf("bdrmapit: digesting annotations: %w", err)
	}
	return r.serveSnapshot(h.Sum64(), sortedPrefixes(r.resolver))
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
	// the dense index Iface.Router refers to.
	snap.Routers = make([]uint32, len(r.res.Graph.Routers))
	snap.Ifaces = make([]serve.Iface, 0, len(r.res.Graph.Interfaces))
	for idx, rt := range r.res.Graph.Routers {
		snap.Routers[idx] = uint32(rt.Annotation)
		for _, i := range rt.Interfaces {
			snap.Ifaces = append(snap.Ifaces, serve.Iface{
				Addr:   i.Addr,
				Router: uint32(idx),
				ConnAS: uint32(i.Annotation),
			})
		}
	}

	// Interdomain links, deduplicated to one record per (FarAddr,
	// NearAS, FarAS) keeping the highest-confidence label: two near
	// routers with the same operator can reach the same far interface,
	// and a nondeterministic winner would break snapshot
	// byte-identity.
	type linkKey struct {
		far           netip.Addr
		nearAS, farAS uint32
	}
	best := make(map[linkKey]string)
	var order []linkKey
	for _, l := range r.res.InterdomainLinks() {
		k := linkKey{far: l.FarAddr, nearAS: uint32(l.NearAS), farAS: uint32(l.FarAS)}
		label := l.Label.String()
		if prev, seen := best[k]; !seen {
			best[k] = label
			order = append(order, k)
		} else if linkLabelRank(label) > linkLabelRank(prev) {
			best[k] = label
		}
	}
	snap.Links = make([]serve.Link, 0, len(order))
	for _, k := range order {
		snap.Links = append(snap.Links, serve.Link{
			FarAddr: k.far,
			NearAS:  k.nearAS,
			FarAS:   k.farAS,
			Label:   best[k],
		})
	}

	// The ip2as view, flattened so the daemon can answer the cheap
	// query class (and degraded lookups) without any loader. It arrives
	// sorted; SortTables orders the two tables built here.
	snap.SortTables()
	snap.Prefixes = prefixes
	return snap, nil
}

// sortedPrefixes is the resolver's flattened prefix table in the
// snapshot's canonical order.
func sortedPrefixes(r *ip2as.Resolver) []serve.Prefix {
	s := serve.Snapshot{Prefixes: flattenIP2AS(r)}
	s.SortTables()
	return s.Prefixes
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
