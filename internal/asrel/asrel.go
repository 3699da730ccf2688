// Package asrel models AS business relationships (provider-customer and
// peer-peer) and customer cones, which bdrmapIT uses to constrain router
// ownership inference (paper §4.1). It reads and writes the CAIDA
// serial-1 relationship format and, when no relationship file is
// available, infers relationships from BGP AS paths with a simplified
// version of Luckie et al. 2013.
package asrel

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asn"
)

// Graph holds AS relationships. The zero value is not usable; construct
// with New.
//
// Once construction (AddP2C/AddP2P/Merge) is done, a Graph is safe for
// any number of concurrent readers: the lazily-filled customer-cone cache
// — the only state queries mutate — is guarded by an RWMutex, which the
// parallel refinement engine relies on (core.Options.Workers > 1).
type Graph struct {
	providers map[asn.ASN]asn.SmallSet // AS → its transit providers
	customers map[asn.ASN]asn.SmallSet // AS → its customers
	peers     map[asn.ASN]asn.SmallSet // AS → its settlement-free peers

	coneMu sync.RWMutex // guards cones
	cones  map[asn.ASN]asn.SmallSet
}

// New returns an empty relationship graph.
func New() *Graph {
	return &Graph{
		providers: make(map[asn.ASN]asn.SmallSet),
		customers: make(map[asn.ASN]asn.SmallSet),
		peers:     make(map[asn.ASN]asn.SmallSet),
	}
}

func addTo(m map[asn.ASN]asn.SmallSet, k, v asn.ASN) {
	if s := m[k]; s.Add(v) {
		m[k] = s
	}
}

// AddP2C records that provider transits customer.
func (g *Graph) AddP2C(provider, customer asn.ASN) {
	if provider == customer || provider == asn.None || customer == asn.None {
		return
	}
	addTo(g.customers, provider, customer)
	addTo(g.providers, customer, provider)
	g.invalidate()
}

// AddP2P records a settlement-free peering between a and b.
func (g *Graph) AddP2P(a, b asn.ASN) {
	if a == b || a == asn.None || b == asn.None {
		return
	}
	addTo(g.peers, a, b)
	addTo(g.peers, b, a)
	g.invalidate()
}

// Merge adds every relationship of other to g.
func (g *Graph) Merge(other *Graph) {
	for _, a := range other.ASes() {
		for _, c := range other.customers[a] {
			g.AddP2C(a, c)
		}
		for _, p := range other.peers[a] {
			if a < p {
				g.AddP2P(a, p)
			}
		}
	}
}

func (g *Graph) invalidate() {
	g.coneMu.Lock()
	g.cones = nil
	g.coneMu.Unlock()
}

// HasRelationship reports whether a and b share any BGP-observable
// relationship (transit in either direction, or peering).
func (g *Graph) HasRelationship(a, b asn.ASN) bool {
	if a == b {
		return false
	}
	return g.customers[a].Has(b) || g.providers[a].Has(b) || g.peers[a].Has(b)
}

// IsProvider reports whether p is a transit provider of c.
func (g *Graph) IsProvider(p, c asn.ASN) bool { return g.customers[p].Has(c) }

// IsPeer reports whether a and b peer.
func (g *Graph) IsPeer(a, b asn.ASN) bool { return g.peers[a].Has(b) }

// Providers returns the providers of a, ascending. The set is the
// graph's own: do not modify it.
func (g *Graph) Providers(a asn.ASN) asn.SmallSet { return g.providers[a] }

// Customers returns the customers of a, ascending. The set is the
// graph's own: do not modify it.
func (g *Graph) Customers(a asn.ASN) asn.SmallSet { return g.customers[a] }

// Peers returns the peers of a, ascending. The set is the graph's own:
// do not modify it.
func (g *Graph) Peers(a asn.ASN) asn.SmallSet { return g.peers[a] }

// ASes returns every AS mentioned in the graph, sorted.
func (g *Graph) ASes() []asn.ASN {
	out := make([]asn.ASN, 0, len(g.providers)+len(g.customers)+len(g.peers))
	for _, m := range [...]map[asn.ASN]asn.SmallSet{g.providers, g.customers, g.peers} {
		for a := range m {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NumEdges returns the count of distinct relationship edges.
func (g *Graph) NumEdges() int {
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
// §4.1), ascending. The result is cached; do not modify it. Safe to call
// from many goroutines at once.
func (g *Graph) CustomerCone(a asn.ASN) asn.SmallSet {
	g.coneMu.RLock()
	cone, ok := g.cones[a]
	g.coneMu.RUnlock()
	if ok {
		return cone
	}
	// One breadth-first walk outside the lock (it reads only the
	// immutable customer sets), with the cone itself as the queue; its
	// members are sorted once at the end. A racing goroutine computing
	// the same cone just produces an identical set, and one of the two
	// wins the cache.
	cone = asn.SmallSet{a}
	if len(g.customers[a]) > 0 {
		seen := map[asn.ASN]bool{a: true}
		for next := 0; next < len(cone); next++ {
			for _, c := range g.customers[cone[next]] {
				if !seen[c] {
					seen[c] = true
					cone = append(cone, c)
				}
			}
		}
		slices.Sort(cone)
	}
	g.coneMu.Lock()
	if g.cones == nil {
		g.cones = make(map[asn.ASN]asn.SmallSet)
	}
	if prior, ok := g.cones[a]; ok {
		cone = prior // keep the first published set stable for readers
	} else {
		g.cones[a] = cone
	}
	g.coneMu.Unlock()
	return cone
}

// ConeSize returns |CustomerCone(a)|. Stub ASes have cone size 1.
func (g *Graph) ConeSize(a asn.ASN) int { return len(g.CustomerCone(a)) }

// SmallestCone returns the candidate with the smallest customer cone,
// breaking ties toward the smallest ASN. It returns asn.None for an
// empty candidate list. This is the paper's recurring tie-break.
func (g *Graph) SmallestCone(candidates []asn.ASN) asn.ASN {
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
func (g *Graph) LargestCone(candidates []asn.ASN) asn.ASN {
	best, bestSize := asn.None, -1
	for _, a := range candidates {
		sz := g.ConeSize(a)
		if sz > bestSize || (sz == bestSize && a < best) {
			best, bestSize = a, sz
		}
	}
	return best
}

// Read parses the CAIDA serial-1 relationship format: one edge per line,
// "as1|as2|rel" with rel -1 for as1-provider-of-as2 and 0 for peering.
// Comment lines start with '#'.
func Read(r io.Reader) (*Graph, error) {
	g := New()
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
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# format: as1|as2|rel (-1: as1 provider of as2, 0: peers)")
	type edge struct {
		a, b asn.ASN
		rel  int
	}
	var edges []edge
	for p, cs := range g.customers {
		for _, c := range cs {
			edges = append(edges, edge{p, c, -1})
		}
	}
	for a, ps := range g.peers {
		for _, b := range ps {
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
