package asrel

import (
	"slices"
	"sort"

	"repro/internal/asn"
)

// Infer derives AS relationships from a set of (loop-free, prepending-
// removed) BGP AS paths, following the skeleton of Luckie et al. 2013
// ("AS Relationships, Customer Cones, and Validation"):
//
//  1. compute transit degrees,
//  2. infer a clique of tier-1 ASes by transit degree and mutual
//     adjacency,
//  3. walk each path assuming valley-freeness: links on the uphill side
//     of the path's topological peak vote customer→provider, links on
//     the downhill side vote provider→customer,
//  4. adjudicate votes per adjacency: strongly directional → p2c,
//     balanced between high-degree ASes or clique members → p2p.
//
// The full published algorithm has additional passes (stub filtering,
// poisoning detection, partial-transit); those do not change behaviour
// on the clean simulated RIBs this repository evaluates with, and the
// simplification is documented in DESIGN.md.
func Infer(paths [][]asn.ASN) *Graph {
	deg := transitDegrees(paths)
	clique := inferClique(paths, deg, 10)

	type pair struct{ a, b asn.ASN }
	// votes[pair{a,b}] counts observations of a acting as provider of b.
	p2cVotes := make(map[pair]int)
	adjacent := make(map[pair]bool)

	for _, path := range paths {
		if len(path) < 2 || hasLoop(path) {
			continue
		}
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			adjacent[pair{a, b}] = true
			adjacent[pair{b, a}] = true
		}
		peak, anchored := pathPeak(path, deg, clique)
		// Uphill: path[0..peak], each left AS is the customer.
		// Downhill: path[peak..], each left AS is the provider.
		//
		// When no clique member anchors the path, the links touching the
		// topological peak are excluded from transit voting: a
		// valley-free path crossing a (non-clique) peering has two tops,
		// and the peak-adjacent link may be that peering. Such links
		// still collect transit votes from paths where they sit below
		// the top; links that never do fall out as peerings.
		for i := 0; i < peak; i++ {
			if !anchored && i == peak-1 {
				continue
			}
			p2cVotes[pair{path[i+1], path[i]}]++
		}
		for i := peak; i+1 < len(path); i++ {
			if !anchored && i == peak {
				continue
			}
			p2cVotes[pair{path[i], path[i+1]}]++
		}
	}

	g := New()
	done := make(map[pair]bool)
	// Deterministic iteration over adjacencies.
	var adjs []pair
	for pr := range adjacent {
		if pr.a < pr.b {
			adjs = append(adjs, pr)
		}
	}
	sort.Slice(adjs, func(i, j int) bool {
		if adjs[i].a != adjs[j].a {
			return adjs[i].a < adjs[j].a
		}
		return adjs[i].b < adjs[j].b
	})
	for _, pr := range adjs {
		if done[pr] {
			continue
		}
		done[pr] = true
		ab := p2cVotes[pair{pr.a, pr.b}] // a provider of b
		ba := p2cVotes[pair{pr.b, pr.a}] // b provider of a
		switch {
		case clique.Has(pr.a) && clique.Has(pr.b):
			g.AddP2P(pr.a, pr.b)
		case ab > 0 && ba == 0:
			g.AddP2C(pr.a, pr.b)
		case ba > 0 && ab == 0:
			g.AddP2C(pr.b, pr.a)
		case ab == 0 && ba == 0:
			// Observed adjacent only inside AS_SET-truncated or single-link
			// paths; treat as peering between similar-degree ASes,
			// otherwise larger-degree side is the provider.
			g.AddP2P(pr.a, pr.b)
		default:
			// Conflicting votes: majority wins, ties become peering.
			switch {
			case ab > 2*ba:
				g.AddP2C(pr.a, pr.b)
			case ba > 2*ab:
				g.AddP2C(pr.b, pr.a)
			default:
				g.AddP2P(pr.a, pr.b)
			}
		}
	}
	return g
}

// transitDegrees counts, for each AS, the distinct neighbours seen while
// the AS appears in the middle of a path (i.e. providing transit).
func transitDegrees(paths [][]asn.ASN) map[asn.ASN]int {
	nbrs := make(map[asn.ASN]asn.SmallSet)
	for _, path := range paths {
		for i := 1; i+1 < len(path); i++ {
			addTo(nbrs, path[i], path[i-1])
			addTo(nbrs, path[i], path[i+1])
		}
	}
	deg := make(map[asn.ASN]int, len(nbrs))
	for a, s := range nbrs {
		deg[a] = s.Len()
	}
	return deg
}

// inferClique selects up to max ASes with the highest transit degrees
// that are mutually adjacent in the paths, seeding from the highest-
// degree AS (the Luckie-2013 clique construction, without the
// Bron–Kerbosch refinement).
func inferClique(paths [][]asn.ASN, deg map[asn.ASN]int, max int) asn.SmallSet {
	type kv struct {
		a asn.ASN
		d int
	}
	var order []kv
	for a, d := range deg {
		order = append(order, kv{a, d})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d > order[j].d
		}
		return order[i].a < order[j].a
	})
	var clique asn.SmallSet
	if len(order) == 0 {
		return clique
	}
	// Clique members must be mutually adjacent and carry a transit
	// degree comparable to the top AS — regional transits adjacent to a
	// tier-1 must not slip in.
	minDeg := (order[0].d*2 + 2) / 3
	// Only ASes of at least minDeg can join, so adjacency is needed
	// among them alone.
	var cands asn.SmallSet
	for _, kv := range order {
		if kv.d < minDeg {
			break
		}
		cands = append(cands, kv.a)
	}
	slices.Sort(cands)
	adj := make(map[asn.ASN]asn.SmallSet)
	for _, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			if a, b := path[i], path[i+1]; cands.Has(a) && cands.Has(b) {
				addTo(adj, a, b)
				addTo(adj, b, a)
			}
		}
	}
	for _, cand := range order {
		if clique.Len() >= max || cand.d < minDeg {
			break
		}
		ok := true
		for _, member := range clique {
			if !adj[cand.a].Has(member) {
				ok = false
				break
			}
		}
		if ok {
			clique.Add(cand.a)
		}
	}
	return clique
}

// pathPeak returns the index of the path's topological top — the first
// clique member if any, otherwise the AS with the highest transit
// degree — and whether a clique member anchored it.
func pathPeak(path []asn.ASN, deg map[asn.ASN]int, clique asn.SmallSet) (int, bool) {
	for i, a := range path {
		if clique.Has(a) {
			return i, true
		}
	}
	peak, best := 0, -1
	for i, a := range path {
		if d := deg[a]; d > best {
			peak, best = i, d
		}
	}
	return peak, false
}

func hasLoop(path []asn.ASN) bool {
	for i, a := range path {
		if slices.Contains(path[:i], a) {
			return true
		}
	}
	return false
}
