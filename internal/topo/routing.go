package topo

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/asn"
)

func sortPairKeys(keys [][2]asn.ASN) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
}

// routingState caches per-destination valley-free routing trees.
// BGP-invisible edges are excluded: they carry no announcements, so
// only the local override in nextHop uses them. The cache is guarded
// so campaigns can simulate traceroutes from many goroutines.
//
// When max > 0 the cache is bounded: insertion beyond the cap evicts
// the oldest entries (FIFO). Trees are pure functions of the topology,
// so eviction can only cost recomputation, never change a path — which
// is what lets the large benchmark-ladder rungs stream campaigns in
// O(max · ASes) memory instead of O(ASes²).
type routingState struct {
	mu    sync.RWMutex
	trees map[asn.ASN]*routeTree
	order []asn.ASN // insertion order of live entries, oldest first
	max   int       // 0 = unbounded

	// providers, customers and peers hold each AS's BGP-visible
	// neighbours as ASList positions, indexed by position. No stage
	// depends on their order: every tie breaks to the lowest position.
	providers, customers, peers [][]int32
}

// routeTree is the outcome of simulating BGP route propagation toward
// one destination AS under Gao–Rexford export rules with the standard
// preference order (customer > peer > provider, then shortest path,
// then lowest next-hop ASN). next[x] is the ASList position of the
// next hop AS x forwards to, or -1 when x has no route (and at the
// destination itself).
type routeTree struct {
	next []int32
}

func (in *Internet) initRouting() {
	r := &routingState{
		trees:     make(map[asn.ASN]*routeTree),
		max:       in.Cfg.RouteCacheTrees,
		providers: make([][]int32, len(in.ASList)),
		customers: make([][]int32, len(in.ASList)),
		peers:     make([][]int32, len(in.ASList)),
	}
	for i, a := range in.ASList {
		a.pos = int32(i)
	}
	visible := func(a *AS, nbrs []*AS) []int32 {
		var out []int32
		for _, n := range nbrs {
			if e := in.edges[pairKey(a.ASN, n.ASN)]; e != nil && e.BGPInvisible {
				continue
			}
			out = append(out, n.pos)
		}
		return out
	}
	for i, a := range in.ASList {
		r.providers[i] = visible(a, a.Providers)
		r.customers[i] = visible(a, a.Customers)
		r.peers[i] = visible(a, a.Peers)
	}
	in.routing = r
	linkIntra(in.Routers)
}

// linkIntra builds each router's intra list from its nbrIfaces.
func linkIntra(routers []*Router) {
	for _, r := range routers {
		r.intra = r.intra[:0]
		for n := range r.nbrIfaces {
			if n.Owner == r.Owner {
				r.intra = append(r.intra, hopPoint{r: n, ingress: n.nbrIfaces[r]})
			}
		}
		slices.SortFunc(r.intra, func(a, b hopPoint) int { return cmp.Compare(a.r.ID, b.r.ID) })
	}
}

// treeCacheSize reports how many routing trees are currently cached —
// the quantity the streaming-generation memory bound is stated in.
func (in *Internet) treeCacheSize() int {
	in.routing.mu.RLock()
	defer in.routing.mu.RUnlock()
	return len(in.routing.trees)
}

// tree returns (computing and caching) the routing tree toward dst.
func (in *Internet) tree(dst asn.ASN) *routeTree {
	in.routing.mu.RLock()
	t, ok := in.routing.trees[dst]
	in.routing.mu.RUnlock()
	if ok {
		return t
	}
	t = in.computeTree(dst)
	in.routing.mu.Lock()
	// A racing goroutine may have stored an identical tree; keep the
	// first so callers share one instance.
	if prev, ok := in.routing.trees[dst]; ok {
		t = prev
	} else {
		in.routing.trees[dst] = t
		in.routing.order = append(in.routing.order, dst)
		if in.routing.max > 0 {
			for len(in.routing.trees) > in.routing.max {
				old := in.routing.order[0]
				in.routing.order = in.routing.order[1:]
				delete(in.routing.trees, old)
			}
		}
	}
	in.routing.mu.Unlock()
	return t
}

// computeTree simulates valley-free route propagation toward dst:
//
//  1. customer routes climb provider links (breadth-first from dst);
//  2. peer routes are one peering hop from a customer route;
//  3. provider routes descend customer links, seeded by the best
//     customer or peer route at each provider.
//
// Distances and next hops are position-indexed, -1 meaning no route.
func (in *Internet) computeTree(dst asn.ASN) *routeTree {
	r := in.routing
	n := len(in.ASList)
	dist, next := unrouted(n), unrouted(n)
	d, ok := in.ASes[dst]
	if !ok {
		return &routeTree{next: next}
	}
	dist[d.pos] = 0
	spread(dist, next, r.providers)
	// Peer routes read customer routes only, so they are all chosen
	// before any is merged in; a customer route outranks a peer route.
	alt, altNext := unrouted(n), unrouted(n)
	for x := range n {
		alt[x], altNext[x] = nearest(r.peers[x], dist)
	}
	for x := range n {
		if dist[x] < 0 {
			dist[x], next[x] = alt[x], altNext[x]
		}
	}
	// Provider routes rank last: they fill in only where neither a
	// customer nor a peer route exists.
	for x := range n {
		alt[x], altNext[x] = nearest(r.providers[x], dist)
	}
	spread(alt, altNext, r.customers)
	for x := range n {
		if dist[x] < 0 {
			next[x] = altNext[x]
		}
	}
	return &routeTree{next: next}
}

func unrouted(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// nearest picks, among nbrs that have a route in dist, the one whose
// route plus one hop is shortest (lowest position on ties). It returns
// -1, -1 when none has a route.
func nearest(nbrs, dist []int32) (best, via int32) {
	best, via = -1, -1
	for _, p := range nbrs {
		if dist[p] < 0 {
			continue
		}
		if nd := dist[p] + 1; best < 0 || nd < best || (nd == best && p < via) {
			best, via = nd, p
		}
	}
	return best, via
}

// spread extends the routes in dist along adj one hop at a time,
// shortest first: an AS keeps its shortest route and, among equally
// short ones, the lowest-positioned next hop.
func spread(dist, next []int32, adj [][]int32) {
	var level [][]int32 // level[k]: ASes reached at distance k
	add := func(x, k int32) {
		for int(k) >= len(level) {
			level = append(level, nil)
		}
		level[k] = append(level[k], x)
	}
	for x, k := range dist {
		if k >= 0 {
			add(int32(x), k)
		}
	}
	for k := int32(0); int(k) < len(level); k++ {
		for _, x := range level[k] {
			if dist[x] != k {
				continue // reached more cheaply since it was queued
			}
			for _, y := range adj[x] {
				switch {
				case dist[y] < 0 || k+1 < dist[y]:
					dist[y], next[y] = k+1, x
					add(y, k+1)
				case k+1 == dist[y] && x < next[y]:
					next[y] = x
				}
			}
		}
	}
}

// hop returns the AS x forwards to toward the tree's destination.
func (in *Internet) hop(t *routeTree, x asn.ASN) (asn.ASN, bool) {
	a, ok := in.ASes[x]
	if !ok || t.next[a.pos] < 0 {
		return asn.None, false
	}
	return in.ASList[t.next[a.pos]].ASN, true
}

// nextHop returns the AS cur forwards to when the packet is destined to
// owner (the ground-truth destination AS). It first applies the local
// override for BGP-invisible customer links: a provider forwards
// directly to its silently-attached customer.
func (in *Internet) nextHop(cur, owner asn.ASN) (asn.ASN, bool) {
	if cur == owner {
		return asn.None, false
	}
	if e := in.edges[pairKey(cur, owner)]; e != nil {
		// Directly connected: always deliver on-link (covers invisible
		// backup links and ordinary adjacencies alike).
		return owner, true
	}
	// When the owner is invisible in BGP (silent realloc), route toward
	// the covering announcement: the reallocating provider.
	target := owner
	if a := in.ASes[owner]; a != nil && a.ReallocSilent && a.ReallocFrom != nil {
		target = a.ReallocFrom.ASN
		if cur == target {
			return owner, true
		}
	}
	return in.hop(in.tree(target), cur)
}

// ASPathTo returns the AS-level forwarding path from src to the
// ground-truth owner AS of the destination, inclusive of both ends.
// ok is false when unreachable.
func (in *Internet) ASPathTo(src, owner asn.ASN) ([]asn.ASN, bool) {
	path := []asn.ASN{src}
	cur := src
	for cur != owner {
		if len(path) > 32 {
			return nil, false
		}
		nh, ok := in.nextHop(cur, owner)
		if !ok {
			return nil, false
		}
		path = append(path, nh)
		cur = nh
	}
	return path, true
}

// BGPPathTo returns the path announcements would take from origin to a
// collector — the reverse of the forwarding path from the collector to
// the origin, which is how RIB paths read (collector-adjacent AS
// first, origin last). Only BGP-visible edges are used.
func (in *Internet) BGPPathTo(collector, origin asn.ASN) ([]asn.ASN, bool) {
	if collector == origin {
		return []asn.ASN{origin}, true
	}
	t := in.tree(origin)
	path := []asn.ASN{collector}
	cur := collector
	for cur != origin {
		if len(path) > 32 {
			return nil, false
		}
		nh, ok := in.hop(t, cur)
		if !ok {
			return nil, false
		}
		path = append(path, nh)
		cur = nh
	}
	return path, true
}
