package topo

import (
	"container/heap"
	"sort"
	"testing"

	"repro/internal/asn"
)

// oracleRoutes is a routing tree as the map-based simulator computed
// it: reach marks every AS holding a route to the destination (the
// destination included), next its chosen next-hop AS.
type oracleRoutes struct {
	reach map[asn.ASN]bool
	next  map[asn.ASN]asn.ASN
}

// oracleVisibleNeighbors enumerates a's neighbours over BGP-visible
// edges, split by relationship from a's point of view.
func oracleVisibleNeighbors(in *Internet, a *AS) (providers, customers, peers []*AS) {
	appendVisible := func(dst []*AS, nbrs []*AS) []*AS {
		for _, n := range nbrs {
			if e := in.edges[pairKey(a.ASN, n.ASN)]; e != nil && e.BGPInvisible {
				continue
			}
			dst = append(dst, n)
		}
		return dst
	}
	providers = appendVisible(nil, a.Providers)
	customers = appendVisible(nil, a.Customers)
	peers = appendVisible(nil, a.Peers)
	return
}

// oracleTree is the map-based valley-free route propagation the
// array-based computeTree replaced, kept as its independent check. It
// shares no code with computeTree: neighbours are re-filtered on every
// visit, stage 1 is a FIFO breadth-first search and stage 3 a
// heap-ordered Dijkstra, all keyed by ASN.
func oracleTree(in *Internet, dst asn.ASN) oracleRoutes {
	t := oracleRoutes{reach: map[asn.ASN]bool{}, next: map[asn.ASN]asn.ASN{}}
	if in.ASes[dst] == nil {
		return t
	}
	// Stage 1: customer routes (propagate from dst up provider edges).
	type qent struct {
		as   asn.ASN
		dist int
	}
	custDist := map[asn.ASN]int{dst: 0}
	custNext := map[asn.ASN]asn.ASN{}
	queue := []qent{{dst, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if custDist[cur.as] != cur.dist {
			continue
		}
		providers, _, _ := oracleVisibleNeighbors(in, in.ASes[cur.as])
		sort.Slice(providers, func(i, j int) bool { return providers[i].ASN < providers[j].ASN })
		for _, p := range providers {
			nd := cur.dist + 1
			old, seen := custDist[p.ASN]
			if !seen || nd < old || (nd == old && cur.as < custNext[p.ASN]) {
				custDist[p.ASN] = nd
				custNext[p.ASN] = cur.as
				if !seen || nd < old {
					queue = append(queue, qent{p.ASN, nd})
				}
			}
		}
	}
	// Stage 2: peer routes.
	peerDist := map[asn.ASN]int{}
	peerNext := map[asn.ASN]asn.ASN{}
	for _, a := range in.ASList {
		_, _, peers := oracleVisibleNeighbors(in, a)
		best, bestNext := -1, asn.None
		for _, p := range peers {
			if cd, ok := custDist[p.ASN]; ok {
				nd := cd + 1
				if best == -1 || nd < best || (nd == best && p.ASN < bestNext) {
					best, bestNext = nd, p.ASN
				}
			}
		}
		if best >= 0 {
			peerDist[a.ASN] = best
			peerNext[a.ASN] = bestNext
		}
	}
	// Stage 3: provider routes (Dijkstra over provider→customer edges,
	// seeded with each AS's best customer/peer route).
	seed := func(x asn.ASN) (int, bool) {
		if cd, ok := custDist[x]; ok {
			return cd, true
		}
		if pd, ok := peerDist[x]; ok {
			return pd, true
		}
		return 0, false
	}
	provDist := map[asn.ASN]int{}
	provNext := map[asn.ASN]asn.ASN{}
	pq := &oracleHeap{}
	for _, a := range in.ASList {
		providers, _, _ := oracleVisibleNeighbors(in, a)
		best, bestNext := -1, asn.None
		for _, p := range providers {
			if sd, ok := seed(p.ASN); ok {
				nd := sd + 1
				if best == -1 || nd < best || (nd == best && p.ASN < bestNext) {
					best, bestNext = nd, p.ASN
				}
			}
		}
		if best >= 0 {
			provDist[a.ASN] = best
			provNext[a.ASN] = bestNext
			heap.Push(pq, oracleEntry{a.ASN, best})
		}
	}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(oracleEntry)
		if provDist[cur.as] != cur.dist {
			continue
		}
		_, customers, _ := oracleVisibleNeighbors(in, in.ASes[cur.as])
		for _, c := range customers {
			nd := cur.dist + 1
			old, seen := provDist[c.ASN]
			if !seen || nd < old || (nd == old && cur.as < provNext[c.ASN]) {
				provDist[c.ASN] = nd
				provNext[c.ASN] = cur.as
				if !seen || nd < old {
					heap.Push(pq, oracleEntry{c.ASN, nd})
				}
			}
		}
	}
	// Collapse: best route per AS by class precedence.
	for _, a := range in.ASList {
		x := a.ASN
		if x == dst {
			t.reach[x] = true
			continue
		}
		if _, ok := custDist[x]; ok {
			t.reach[x], t.next[x] = true, custNext[x]
			continue
		}
		if _, ok := peerDist[x]; ok {
			t.reach[x], t.next[x] = true, peerNext[x]
			continue
		}
		if _, ok := provDist[x]; ok {
			t.reach[x], t.next[x] = true, provNext[x]
		}
	}
	return t
}

type oracleEntry struct {
	as   asn.ASN
	dist int
}

type oracleHeap []oracleEntry

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].as < h[j].as
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEntry)) }
func (h *oracleHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestRoutingMatchesOracle requires the array-based trees to agree with
// the map-based oracle on every (destination, AS) pair: the same
// reachability and the same next hop.
func TestRoutingMatchesOracle(t *testing.T) {
	realloc := DefaultConfig(2018)
	realloc.PReallocStub = 0.6 // BGP-invisible links and silent customers become common
	cases := []struct {
		name string
		cfg  Config
	}{
		{"small-1", SmallConfig(1)},
		{"default-2018", DefaultConfig(2018)},
		{"default-7", DefaultConfig(7)},
		{"default-2018-realloc", realloc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.EnableIPv6 = false // routing never reads the v6 view
			in, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "default-2018-realloc" {
				invisible, silent := 0, 0
				for _, e := range in.Edges() {
					if e.BGPInvisible {
						invisible++
					}
				}
				for _, a := range in.ASList {
					if a.ReallocSilent {
						silent++
					}
				}
				if invisible < 20 || silent < 20 {
					t.Fatalf("%d BGP-invisible edges, %d silent customers: too few to exercise either", invisible, silent)
				}
			}
			for _, d := range in.ASList {
				want := oracleTree(in, d.ASN)
				got := in.computeTree(d.ASN)
				for _, x := range in.ASList {
					nh, ok := in.hop(got, x.ASN)
					if reach := ok || x == d; reach != want.reach[x.ASN] {
						t.Fatalf("toward AS%d: AS%d reachable=%v, oracle %v", d.ASN, x.ASN, reach, want.reach[x.ASN])
					}
					if nh != want.next[x.ASN] {
						t.Fatalf("toward AS%d: AS%d next hop AS%d, oracle AS%d", d.ASN, x.ASN, nh, want.next[x.ASN])
					}
				}
			}
		})
	}
}
