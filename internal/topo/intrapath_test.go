package topo

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// oracleIntraPath is the map-based intra-AS walk: neighbours read from
// nbrIfaces, filtered and sorted at every step. appendIntraPath must
// choose the same hops.
func oracleIntraPath(from, to *Router) []hopPoint {
	if from == to {
		return nil
	}
	type crumb struct {
		r   *Router
		via *Iface
	}
	prev := map[*Router]crumb{from: {}}
	queue := []*Router{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			break
		}
		nbrs := make([]*Router, 0, len(cur.nbrIfaces))
		for n := range cur.nbrIfaces {
			if n.Owner == from.Owner {
				nbrs = append(nbrs, n)
			}
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].ID < nbrs[j].ID })
		for _, n := range nbrs {
			if _, seen := prev[n]; seen {
				continue
			}
			prev[n] = crumb{r: cur, via: n.nbrIfaces[cur]}
			queue = append(queue, n)
		}
	}
	if _, ok := prev[to]; !ok {
		return nil
	}
	var rev []hopPoint
	for cur := to; cur != from; {
		c := prev[cur]
		rev = append(rev, hopPoint{r: cur, ingress: c.via})
		cur = c.r
	}
	out := make([]hopPoint, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// randomIntraGraph draws routers of two ASes with shuffled IDs and
// random links, some between the ASes and some repeated (a repeat
// replaces the interface, as connect does). Sizes cross the walk's
// 64-router stack buffer.
func randomIntraGraph(rng *rand.Rand) []*Router {
	ases := []*AS{{ASN: 1}, {ASN: 2}}
	k := 1 + rng.Intn(90)
	ids := rng.Perm(k)
	routers := make([]*Router, k)
	for i := range routers {
		owner := ases[0]
		if rng.Intn(6) == 0 {
			owner = ases[1]
		}
		routers[i] = &Router{ID: ids[i], Owner: owner, local: owner.nrouters}
		owner.nrouters++
	}
	addr := uint32(0)
	iface := func(r *Router) *Iface {
		addr++
		return &Iface{Addr: netip.AddrFrom4([4]byte{10, byte(addr >> 16), byte(addr >> 8), byte(addr)}), Router: r}
	}
	for range rng.Intn(3 * k) {
		a, b := routers[rng.Intn(k)], routers[rng.Intn(k)]
		if a == b {
			continue
		}
		a.connect(b, iface(a))
		b.connect(a, iface(b))
	}
	linkIntra(routers)
	return routers
}

func TestIntraPathMatchesOracle(t *testing.T) {
	paths := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		routers := randomIntraGraph(rng)
		prefix := []hopPoint{{r: routers[0]}}
		for _, from := range routers {
			for range 3 {
				to := routers[rng.Intn(len(routers))]
				want := oracleIntraPath(from, to)
				if len(want) > 1 {
					paths++
				}
				got := appendIntraPath(slices.Clone(prefix), from, to)
				if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if paths == 0 {
		t.Fatal("no sampled graph had a multi-hop path")
	}
}
