package asrel_test

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asn"
)

// This file is the relationship graph as it was when it held its
// neighbour sets and cones in hash sets, kept verbatim under new names
// (Graph → oracleGraph, New → newOracle, Read → oracleRead, Infer →
// oracleInfer) as the differential oracle TestGraphMatchesOracle and
// FuzzReadDifferential hold the sorted-slice Graph to. It is an external
// test package so that those tests can build their inputs with topo,
// which imports asrel.

// hashSet is the hash set the oracle's sets were: asn.Set as it was.
type hashSet map[asn.ASN]struct{}

func newHashSet(members ...asn.ASN) hashSet {
	s := make(hashSet, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

func (s hashSet) Add(a asn.ASN) { s[a] = struct{}{} }

func (s hashSet) Has(a asn.ASN) bool {
	_, ok := s[a]
	return ok
}

func (s hashSet) Len() int { return len(s) }

func (s hashSet) Sorted() []asn.ASN {
	out := make([]asn.ASN, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleGraph holds AS relationships. The zero value is not usable; construct
// with newOracle.
//
// Once construction (AddP2C/AddP2P) is done, a oracleGraph is safe for any
// number of concurrent readers: the lazily-filled customer-cone cache —
// the only state queries mutate — is guarded by an RWMutex, which the
// parallel refinement engine relies on (core.Options.Workers > 1).
type oracleGraph struct {
	providers map[asn.ASN]hashSet // AS → its transit providers
	customers map[asn.ASN]hashSet // AS → its customers
	peers     map[asn.ASN]hashSet // AS → its settlement-free peers

	coneMu sync.RWMutex // guards cones and sizes
	cones  map[asn.ASN]hashSet
	sizes  map[asn.ASN]int
}

// newOracle returns an empty relationship graph.
func newOracle() *oracleGraph {
	return &oracleGraph{
		providers: make(map[asn.ASN]hashSet),
		customers: make(map[asn.ASN]hashSet),
		peers:     make(map[asn.ASN]hashSet),
	}
}

func oracleAddTo(m map[asn.ASN]hashSet, k, v asn.ASN) {
	s, ok := m[k]
	if !ok {
		s = newHashSet()
		m[k] = s
	}
	s.Add(v)
}

// AddP2C records that provider transits customer.
func (g *oracleGraph) AddP2C(provider, customer asn.ASN) {
	if provider == customer || provider == asn.None || customer == asn.None {
		return
	}
	oracleAddTo(g.customers, provider, customer)
	oracleAddTo(g.providers, customer, provider)
	g.invalidate()
}

// AddP2P records a settlement-free peering between a and b.
func (g *oracleGraph) AddP2P(a, b asn.ASN) {
	if a == b || a == asn.None || b == asn.None {
		return
	}
	oracleAddTo(g.peers, a, b)
	oracleAddTo(g.peers, b, a)
	g.invalidate()
}

func (g *oracleGraph) invalidate() {
	g.coneMu.Lock()
	g.cones = nil
	g.sizes = nil
	g.coneMu.Unlock()
}

// HasRelationship reports whether a and b share any BGP-observable
// relationship (transit in either direction, or peering).
func (g *oracleGraph) HasRelationship(a, b asn.ASN) bool {
	if a == b {
		return false
	}
	return g.customers[a].Has(b) || g.providers[a].Has(b) || g.peers[a].Has(b)
}

// IsProvider reports whether p is a transit provider of c.
func (g *oracleGraph) IsProvider(p, c asn.ASN) bool { return g.customers[p].Has(c) }

// IsPeer reports whether a and b peer.
func (g *oracleGraph) IsPeer(a, b asn.ASN) bool { return g.peers[a].Has(b) }

// Providers returns the providers of a (never nil).
func (g *oracleGraph) Providers(a asn.ASN) hashSet {
	if s, ok := g.providers[a]; ok {
		return s
	}
	return hashSet{}
}

// Customers returns the customers of a (never nil).
func (g *oracleGraph) Customers(a asn.ASN) hashSet {
	if s, ok := g.customers[a]; ok {
		return s
	}
	return hashSet{}
}

// Peers returns the peers of a (never nil).
func (g *oracleGraph) Peers(a asn.ASN) hashSet {
	if s, ok := g.peers[a]; ok {
		return s
	}
	return hashSet{}
}

// ASes returns every AS mentioned in the graph, sorted.
func (g *oracleGraph) ASes() []asn.ASN {
	seen := newHashSet()
	for a := range g.providers {
		seen.Add(a)
	}
	for a := range g.customers {
		seen.Add(a)
	}
	for a := range g.peers {
		seen.Add(a)
	}
	return seen.Sorted()
}

// NumEdges returns the count of distinct relationship edges.
func (g *oracleGraph) NumEdges() int {
	n := 0
	for _, s := range g.customers {
		n += s.Len()
	}
	p := 0
	for _, s := range g.peers {
		p += s.Len()
	}
	return n + p/2
}

// CustomerCone returns the customer cone of a: a itself plus every AS
// reachable from a by following only provider→customer edges (paper
// §4.1). The result is cached; do not mutate it. Safe to call from many
// goroutines at once.
func (g *oracleGraph) CustomerCone(a asn.ASN) hashSet {
	g.coneMu.RLock()
	c, ok := g.cones[a]
	g.coneMu.RUnlock()
	if ok {
		return c
	}
	// Compute outside the lock (the BFS reads only the immutable
	// relationship maps); a racing goroutine computing the same cone
	// just produces an identical set, and one of the two wins the cache.
	cone := newHashSet(a)
	queue := []asn.ASN{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for c := range g.customers[cur] {
			if !cone.Has(c) {
				cone.Add(c)
				queue = append(queue, c)
			}
		}
	}
	g.coneMu.Lock()
	if g.cones == nil {
		g.cones = make(map[asn.ASN]hashSet)
		g.sizes = make(map[asn.ASN]int)
	}
	if prior, ok := g.cones[a]; ok {
		cone = prior // keep the first published set stable for readers
	} else {
		g.cones[a] = cone
		g.sizes[a] = cone.Len()
	}
	g.coneMu.Unlock()
	return cone
}

// ConeSize returns |CustomerCone(a)|. Stub ASes have cone size 1.
func (g *oracleGraph) ConeSize(a asn.ASN) int {
	g.coneMu.RLock()
	n, ok := g.sizes[a]
	g.coneMu.RUnlock()
	if ok {
		return n
	}
	return g.CustomerCone(a).Len()
}

// SmallestCone returns the candidate with the smallest customer cone,
// breaking ties toward the smallest ASN. It returns asn.None for an
// empty candidate list. This is the paper's recurring tie-break.
func (g *oracleGraph) SmallestCone(candidates []asn.ASN) asn.ASN {
	best, bestSize := asn.None, -1
	for _, a := range candidates {
		sz := g.ConeSize(a)
		if bestSize == -1 || sz < bestSize || (sz == bestSize && a < best) {
			best, bestSize = a, sz
		}
	}
	return best
}

// LargestCone returns the candidate with the largest customer cone,
// breaking ties toward the smallest ASN.
func (g *oracleGraph) LargestCone(candidates []asn.ASN) asn.ASN {
	best, bestSize := asn.None, -1
	for _, a := range candidates {
		sz := g.ConeSize(a)
		if sz > bestSize || (sz == bestSize && a < best) {
			best, bestSize = a, sz
		}
	}
	return best
}

// oracleRead parses the CAIDA serial-1 relationship format: one edge per line,
// "as1|as2|rel" with rel -1 for as1-provider-of-as2 and 0 for peering.
// Comment lines start with '#'.
func oracleRead(r io.Reader) (*oracleGraph, error) {
	g := newOracle()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) < 3 {
			return nil, fmt.Errorf("asrel: line %d: expected as1|as2|rel", lineno)
		}
		a, err := asn.Parse(fields[0])
		if err != nil {
			return nil, fmt.Errorf("asrel: line %d: %w", lineno, err)
		}
		b, err := asn.Parse(fields[1])
		if err != nil {
			return nil, fmt.Errorf("asrel: line %d: %w", lineno, err)
		}
		rel, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("asrel: line %d: rel: %w", lineno, err)
		}
		switch rel {
		case -1:
			g.AddP2C(a, b)
		case 0:
			g.AddP2P(a, b)
		default:
			return nil, fmt.Errorf("asrel: line %d: unknown relationship %d", lineno, rel)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("asrel: read: %w", err)
	}
	return g, nil
}

// Write serializes the graph in serial-1 format, deterministically
// ordered.
func (g *oracleGraph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# format: as1|as2|rel (-1: as1 provider of as2, 0: peers)")
	type edge struct {
		a, b asn.ASN
		rel  int
	}
	var edges []edge
	for p, cs := range g.customers {
		for c := range cs {
			edges = append(edges, edge{p, c, -1})
		}
	}
	for a, ps := range g.peers {
		for b := range ps {
			if a < b {
				edges = append(edges, edge{a, b, 0})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		if edges[i].b != edges[j].b {
			return edges[i].b < edges[j].b
		}
		return edges[i].rel < edges[j].rel
	})
	for _, e := range edges {
		fmt.Fprintf(bw, "%d|%d|%d\n", uint32(e.a), uint32(e.b), e.rel)
	}
	return bw.Flush()
}

// oracleInfer derives AS relationships from a set of (loop-free, prepending-
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
func oracleInfer(paths [][]asn.ASN) *oracleGraph {
	deg := oracleTransitDegrees(paths)
	clique := oracleInferClique(paths, deg, 10)

	type pair struct{ a, b asn.ASN }
	// votes[pair{a,b}] counts observations of a acting as provider of b.
	p2cVotes := make(map[pair]int)
	adjacent := make(map[pair]bool)

	for _, path := range paths {
		if len(path) < 2 || oracleHasLoop(path) {
			continue
		}
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			adjacent[pair{a, b}] = true
			adjacent[pair{b, a}] = true
		}
		peak, anchored := oraclePathPeak(path, deg, clique)
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

	g := newOracle()
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

// oracleTransitDegrees counts, for each AS, the distinct neighbours seen while
// the AS appears in the middle of a path (i.e. providing transit).
func oracleTransitDegrees(paths [][]asn.ASN) map[asn.ASN]int {
	nbrs := make(map[asn.ASN]hashSet)
	for _, path := range paths {
		for i := 1; i+1 < len(path); i++ {
			s, ok := nbrs[path[i]]
			if !ok {
				s = newHashSet()
				nbrs[path[i]] = s
			}
			s.Add(path[i-1])
			s.Add(path[i+1])
		}
	}
	deg := make(map[asn.ASN]int, len(nbrs))
	for a, s := range nbrs {
		deg[a] = s.Len()
	}
	return deg
}

// oracleInferClique selects up to max ASes with the highest transit degrees
// that are mutually adjacent in the paths, seeding from the highest-
// degree AS (the Luckie-2013 clique construction, without the
// Bron–Kerbosch refinement).
func oracleInferClique(paths [][]asn.ASN, deg map[asn.ASN]int, max int) hashSet {
	adj := make(map[asn.ASN]hashSet)
	for _, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			for _, pr := range [2][2]asn.ASN{{a, b}, {b, a}} {
				s, ok := adj[pr[0]]
				if !ok {
					s = newHashSet()
					adj[pr[0]] = s
				}
				s.Add(pr[1])
			}
		}
	}
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
	clique := newHashSet()
	if len(order) == 0 {
		return clique
	}
	// Clique members must be mutually adjacent and carry a transit
	// degree comparable to the top AS — regional transits adjacent to a
	// tier-1 must not slip in.
	minDeg := (order[0].d*2 + 2) / 3
	for _, cand := range order {
		if clique.Len() >= max || cand.d < minDeg {
			break
		}
		ok := true
		for member := range clique {
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

// oraclePathPeak returns the index of the path's topological top — the first
// clique member if any, otherwise the AS with the highest transit
// degree — and whether a clique member anchored it.
func oraclePathPeak(path []asn.ASN, deg map[asn.ASN]int, clique hashSet) (int, bool) {
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

func oracleHasLoop(path []asn.ASN) bool {
	seen := make(hashSet, len(path))
	for _, a := range path {
		if seen.Has(a) {
			return true
		}
		seen.Add(a)
	}
	return false
}
